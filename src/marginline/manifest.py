"""Dataset manifest: the JSON case list driving every pipeline stage.

Schema (one entry per case):
    {"case_id": str, "die_path": str, "crown_bottom_path": str|null,
     "rating": float|null, "split": "train"|"test"}

Keys outside this schema are accepted and ignored: among them `arch`
and `tooth_position`, which no stage reads (registration puts every die
base down, whatever its arch).

Paths are resolved relative to the manifest file. A directory stands for
the `manifest.json` in it; one without a manifest is scanned instead:
`<case>_die.stl` plus optional `<case>_crown_bottom.stl` pairs are
picked up with default metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ManifestError

@dataclass
class CaseEntry:
    case_id: str
    die_path: Path
    crown_bottom_path: Path | None
    rating: float | None
    split: str


@dataclass
class DatasetManifest:
    cases: list

    def __iter__(self):
        return iter(self.cases)

    def __len__(self):
        return len(self.cases)

    def split(self, which):
        return [c for c in self.cases if c.split == which]


def _existing_file(base, value, where, what):
    if not isinstance(value, str):
        raise ManifestError(f"{where}: {what} path {value!r} is not a string")
    path = base / value
    try:
        path = path.resolve()
        if path.is_file():
            return path
    except (OSError, ValueError):  # e.g. a name too long, or a NUL byte
        pass
    raise ManifestError(f"{where}: {what} path {path} is not a file")


def _check_case_id(case_id, where):
    """A case id names the stages' files, and `#` starts the suffix of an
    augmented sample (`pipeline.sample_ids`): refuse one that is not a
    string, is not a plain file name or holds a `#`."""
    if not isinstance(case_id, str):
        raise ManifestError(f"{where}: case id {case_id!r} is not a string")
    if case_id in ("", ".", "..") or any(c in case_id for c in "/\\#"):
        raise ManifestError(
            f"{where}: case id {case_id!r} must be a file name without "
            "'/', '\\' or '#'"
        )
    return case_id


def _validate_entry(raw, base, index):
    where = f"manifest entry {index}"
    if not isinstance(raw, dict):
        raise ManifestError(f"{where}: {raw!r} is not a JSON object")
    for key in ("case_id", "die_path"):
        if key not in raw:
            raise ManifestError(f"{where}: missing required key {key!r}")
    case_id = _check_case_id(raw["case_id"], where)
    rating = raw.get("rating")
    # bool is an int, but `true` is no rating
    if isinstance(rating, bool) or not (
        rating is None or (isinstance(rating, (int, float)) and 1 <= rating <= 4)
    ):
        raise ManifestError(f"{where}: rating {rating!r} is not a number in [1, 4]")
    die = _existing_file(base, raw["die_path"], where, "die")
    crown = raw.get("crown_bottom_path")
    if crown is not None:
        crown = _existing_file(base, crown, where, "crown")
    split = raw.get("split", "train")
    if split not in ("train", "test"):
        raise ManifestError(f"{where}: split must be 'train' or 'test'")
    return CaseEntry(
        case_id=case_id,
        die_path=die,
        crown_bottom_path=crown,
        rating=None if rating is None else float(rating),
        split=split,
    )


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if path.is_dir():
        if not (path / "manifest.json").is_file():
            return scan_directory(path)
        path = path / "manifest.json"
    raw = json.loads(path.read_text())
    entries = raw.get("cases") if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ManifestError(
            f"{path}: expected a list of cases or an object with a 'cases' list"
        )
    if not entries:
        raise ManifestError(f"{path}: the case list is empty")
    cases = [
        _validate_entry(e, path.parent, i) for i, e in enumerate(entries)
    ]
    ids = [c.case_id for c in cases]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})
        raise ManifestError(f"duplicate case ids: {dup}")
    return DatasetManifest(cases)


def scan_directory(directory) -> DatasetManifest:
    """Fallback layout: `<case>_die.stl` (+ `<case>_crown_bottom.stl`)."""
    directory = Path(directory)
    cases = []
    for die in sorted(directory.glob("*_die.stl")):
        case_id = _check_case_id(die.name[: -len("_die.stl")], str(die))
        crown = directory / f"{case_id}_crown_bottom.stl"
        cases.append(
            CaseEntry(
                case_id=case_id,
                die_path=die.resolve(),
                crown_bottom_path=crown.resolve() if crown.exists() else None,
                rating=None,
                split="train",
            )
        )
    if not cases:
        raise ManifestError(f"no '*_die.stl' files found in {directory}")
    return DatasetManifest(cases)


def save_manifest(path, entries):
    """entries: list of plain dicts in the schema above."""
    Path(path).write_text(json.dumps({"cases": entries}, indent=1))
