"""Tests for dataset manifest loading, validation and directory scan."""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marginline.errors import ManifestError
from marginline.manifest import load_manifest, save_manifest


def _write(tmp_path, entries):
    for e in entries:
        (tmp_path / e["die_path"]).touch()
        crown = e.get("crown_bottom_path")
        if crown:
            (tmp_path / crown).touch()
    path = tmp_path / "manifest.json"
    save_manifest(path, entries)
    return path


def _by_id(manifest, case_id):
    return next(c for c in manifest if c.case_id == case_id)


def _entry(**overrides):
    e = {
        "case_id": "a",
        "die_path": "a_die.stl",
        "crown_bottom_path": "a_crown_bottom.stl",
        "rating": 3,
        "split": "train",
    }
    e.update(overrides)
    return e


def test_round_trip(tmp_path):
    path = _write(tmp_path, [_entry(), _entry(case_id="b", die_path="b_die.stl",
                                            crown_bottom_path=None, split="test")])
    m = load_manifest(path)
    assert len(m) == 2
    a = _by_id(m, "a")
    assert a.rating == 3.0
    assert a.die_path.exists()
    b = _by_id(m, "b")
    assert b.crown_bottom_path is None
    assert [c.case_id for c in m.split("test")] == ["b"]
    assert [c.case_id for c in m.split("train")] == ["a"]


def test_plain_list_accepted(tmp_path):
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    path.write_text(json.dumps([_entry(crown_bottom_path=None)]))
    assert len(load_manifest(path)) == 1


def test_defaults(tmp_path):
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    path.write_text(json.dumps([{"case_id": "a", "die_path": "a_die.stl"}]))
    case = _by_id(load_manifest(path), "a")
    assert case.split == "train"
    assert case.crown_bottom_path is None
    assert case.rating is None


def test_validation_errors(tmp_path):
    (tmp_path / "a_die.stl").touch()
    bad = [
        _entry(rating=5, crown_bottom_path=None),
        _entry(split="holdout", crown_bottom_path=None),
        _entry(die_path="missing_die.stl", crown_bottom_path=None),
        {"die_path": "a_die.stl"},  # no case_id
        {"case_id": "a"},  # no die_path
    ]
    for entry in bad:
        path = tmp_path / "m.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ManifestError):
            load_manifest(path)


@pytest.mark.parametrize(
    "key, value",
    [("case_id", None), ("case_id", ["a"]), ("case_id", 7), ("rating", True)],
)
def test_values_of_the_wrong_json_type_are_refused(tmp_path, key, value):
    """`null` is no case id "None", and `true` no rating of 1."""
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    path.write_text(json.dumps([_entry(crown_bottom_path=None, **{key: value})]))
    where = "case id" if key == "case_id" else "rating"
    with pytest.raises(ManifestError, match=f"^manifest entry 0: {where}"):
        load_manifest(path)


# a case id names the stages' files, and `#` marks an augmented sample;
# a scanned file name cannot hold '/'
BAD_SCANNED_IDS = {
    "empty": "", "dot": ".", "dotdot": "..",
    "backslash": "a\\b", "hash": "x#1",
}
BAD_IDS = {**BAD_SCANNED_IDS, "slash": "a/b"}


@pytest.mark.parametrize("case_id", BAD_IDS.values(), ids=BAD_IDS.keys())
def test_case_id_that_is_not_a_plain_file_name_is_rejected(tmp_path, case_id):
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    good = _entry(crown_bottom_path=None)
    bad = _entry(case_id=case_id, crown_bottom_path=None)
    path.write_text(json.dumps([good, bad]))
    with pytest.raises(ManifestError, match=r"^manifest entry 1: case id"):
        load_manifest(path)


@pytest.mark.parametrize(
    "case_id", BAD_SCANNED_IDS.values(), ids=BAD_SCANNED_IDS.keys()
)
def test_scanned_case_id_that_is_not_a_plain_file_name_is_rejected(
    tmp_path, case_id
):
    die = tmp_path / f"{case_id}_die.stl"
    die.touch()
    where = re.escape(str(die))
    with pytest.raises(ManifestError, match=f"^{where}: case id"):
        load_manifest(tmp_path)


def test_duplicate_ids_rejected(tmp_path):
    path = _write(
        tmp_path,
        [_entry(crown_bottom_path=None), _entry(crown_bottom_path=None)],
    )
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_directory_scan(tmp_path):
    (tmp_path / "x_die.stl").touch()
    (tmp_path / "x_crown_bottom.stl").touch()
    (tmp_path / "y_die.stl").touch()
    m = load_manifest(tmp_path)
    assert [c.case_id for c in m] == ["x", "y"]
    assert _by_id(m, "x").crown_bottom_path is not None
    assert _by_id(m, "y").crown_bottom_path is None


def test_directory_with_a_manifest_reads_it(tmp_path):
    """The directory stands for its manifest.json: the file's metadata,
    not the scan's defaults."""
    path = _write(tmp_path, [_entry(split="test", rating=3)])
    from_dir, from_file = load_manifest(tmp_path), load_manifest(path)
    assert from_dir.cases == from_file.cases
    case = _by_id(from_dir, "a")
    assert (case.split, case.rating) == ("test", 3.0)


def test_empty_directory_raises(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)


def test_extra_keys_accepted_and_ignored(tmp_path):
    """A key outside the schema is accepted and ignored."""
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    plain = tmp_path / "plain.json"
    path.write_text(json.dumps([_entry(crown_bottom_path=None, scanner="lab-3")]))
    plain.write_text(json.dumps([_entry(crown_bottom_path=None)]))
    assert load_manifest(path).cases == load_manifest(plain).cases


def test_arch_and_tooth_position_are_ignored_keys(tmp_path):
    """No stage reads a case's arch or tooth position, so the manifest
    takes any value for them, as for any key outside its schema."""
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    plain = tmp_path / "plain.json"
    entry = _entry(crown_bottom_path=None, arch="sideways", tooth_position=12)
    path.write_text(json.dumps([entry]))
    plain.write_text(json.dumps([_entry(crown_bottom_path=None)]))
    assert load_manifest(path).cases == load_manifest(plain).cases


@pytest.mark.parametrize(
    "raw, names",
    [
        ({"x": 1}, "'cases' list"),
        (5, "'cases' list"),
        (["case_id die_path arch"], "manifest entry 0"),
        ([_entry(crown_bottom_path=None), _entry(die_path=3)], "manifest entry 1"),
        ([_entry(crown_bottom_path=7)], "manifest entry 0"),
        ([_entry(split=None, crown_bottom_path=None)], "manifest entry 0"),
        ([_entry(rating=[3], crown_bottom_path=None)], "manifest entry 0"),
        ([_entry(die_path="", crown_bottom_path=None)], "manifest entry 0"),
        ([_entry(die_path="x" * 300, crown_bottom_path=None)], "manifest entry 0"),
    ],
)
def test_malformed_json_is_a_manifest_error(tmp_path, raw, names):
    (tmp_path / "a_die.stl").touch()
    (tmp_path / "a_crown_bottom.stl").touch()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match=names):
        load_manifest(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


_DELETE = object()


def _load_or_refuse(tmp_path, raw):
    """`load_manifest` reads `raw` or raises ManifestError or ValueError;
    nothing else may escape."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    try:
        load_manifest(path)
    except (ManifestError, ValueError):
        pass


@given(_JSON)
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_arbitrary_json_is_read_or_refused(tmp_path, raw):
    _load_or_refuse(tmp_path, raw)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_entry()) + ["extra"]),
            st.just(_DELETE) | _JSON,
        ),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
)
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_manifests_are_read_or_refused(tmp_path, edits, wrapped):
    """A valid two-case manifest with keys of its second entry set to
    arbitrary JSON values or deleted."""
    (tmp_path / "a_die.stl").touch()
    (tmp_path / "a_crown_bottom.stl").touch()
    entry = _entry(case_id="b")
    for key, value in edits:
        if value is _DELETE:
            entry.pop(key, None)
        else:
            entry[key] = value
    cases = [_entry(), entry]
    _load_or_refuse(tmp_path, {"cases": cases} if wrapped else cases)
