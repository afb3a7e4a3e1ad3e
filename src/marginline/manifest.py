"""Dataset manifest: the JSON case list driving every pipeline stage.

Schema (one entry per case):
    {"case_id": str, "die_path": str, "crown_bottom_path": str|null,
     "arch": "upper"|"lower", "tooth_position": 11|21|31|41,
     "rating": float|null, "split": "train"|"test"}

Paths are resolved relative to the manifest file. A directory without a
manifest can be scanned instead: `<case>_die.stl` plus optional
`<case>_crown_bottom.stl` pairs are picked up with default metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ManifestError

TOOTH_POSITIONS = (11, 21, 31, 41)


@dataclass
class CaseEntry:
    case_id: str
    die_path: Path
    crown_bottom_path: Path | None
    arch: str
    tooth_position: int
    rating: float | None
    split: str
    extra: dict = field(default_factory=dict)


@dataclass
class DatasetManifest:
    cases: list

    def __iter__(self):
        return iter(self.cases)

    def __len__(self):
        return len(self.cases)

    def split(self, which):
        return [c for c in self.cases if c.split == which]

    def by_id(self, case_id):
        for c in self.cases:
            if c.case_id == case_id:
                return c
        raise ManifestError(f"unknown case id {case_id!r}")


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


def _validate_entry(raw, base, index):
    where = f"manifest entry {index}"
    if not isinstance(raw, dict):
        raise ManifestError(f"{where}: {raw!r} is not a JSON object")
    for key in ("case_id", "die_path", "arch"):
        if key not in raw:
            raise ManifestError(f"{where}: missing required key {key!r}")
    if raw["arch"] not in ("upper", "lower"):
        raise ManifestError(f"{where}: arch must be 'upper' or 'lower'")
    pos = raw.get("tooth_position", 11)
    if pos not in TOOTH_POSITIONS:
        raise ManifestError(
            f"{where}: tooth_position {pos!r} not in {TOOTH_POSITIONS}"
        )
    rating = raw.get("rating")
    if rating is not None and not (
        isinstance(rating, (int, float)) and 1 <= rating <= 4
    ):
        raise ManifestError(f"{where}: rating {rating!r} is not a number in [1, 4]")
    die = _existing_file(base, raw["die_path"], where, "die")
    crown = raw.get("crown_bottom_path")
    if crown is not None:
        crown = _existing_file(base, crown, where, "crown")
    split = raw.get("split", "train")
    if split not in ("train", "test"):
        raise ManifestError(f"{where}: split must be 'train' or 'test'")
    known = {
        "case_id", "die_path", "crown_bottom_path", "arch",
        "tooth_position", "rating", "split",
    }
    return CaseEntry(
        case_id=str(raw["case_id"]),
        die_path=die,
        crown_bottom_path=crown,
        arch=raw["arch"],
        tooth_position=int(pos),
        rating=None if rating is None else float(rating),
        split=split,
        extra={k: v for k, v in raw.items() if k not in known},
    )


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if path.is_dir():
        return scan_directory(path)
    raw = json.loads(path.read_text())
    entries = raw.get("cases") if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ManifestError(
            f"{path}: expected a list of cases or an object with a 'cases' list"
        )
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
        case_id = die.name[: -len("_die.stl")]
        crown = directory / f"{case_id}_crown_bottom.stl"
        cases.append(
            CaseEntry(
                case_id=case_id,
                die_path=die.resolve(),
                crown_bottom_path=crown.resolve() if crown.exists() else None,
                arch="lower",
                tooth_position=31,
                rating=None,
                split="train",
                extra={},
            )
        )
    if not cases:
        raise ManifestError(f"no '*_die.stl' files found in {directory}")
    return DatasetManifest(cases)


def save_manifest(path, entries):
    """entries: list of plain dicts in the schema above."""
    Path(path).write_text(json.dumps({"cases": entries}, indent=1))
