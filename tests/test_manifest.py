"""Tests for dataset manifest loading, validation and directory scan."""

import json

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


def _entry(**overrides):
    e = {
        "case_id": "a",
        "die_path": "a_die.stl",
        "crown_bottom_path": "a_crown_bottom.stl",
        "arch": "lower",
        "tooth_position": 31,
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
    a = m.by_id("a")
    assert a.arch == "lower"
    assert a.tooth_position == 31
    assert a.rating == 3.0
    assert a.die_path.exists()
    b = m.by_id("b")
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
    path.write_text(json.dumps([{"case_id": "a", "die_path": "a_die.stl",
                                 "arch": "upper"}]))
    case = load_manifest(path).by_id("a")
    assert case.split == "train"
    assert case.tooth_position == 11
    assert case.rating is None


def test_validation_errors(tmp_path):
    (tmp_path / "a_die.stl").touch()
    bad = [
        _entry(arch="sideways", crown_bottom_path=None),
        _entry(tooth_position=12, crown_bottom_path=None),
        _entry(rating=5, crown_bottom_path=None),
        _entry(split="holdout", crown_bottom_path=None),
        _entry(die_path="missing_die.stl", crown_bottom_path=None),
        {"die_path": "a_die.stl", "arch": "lower"},  # no case_id
    ]
    for entry in bad:
        path = tmp_path / "m.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ManifestError):
            load_manifest(path)


def test_duplicate_ids_rejected(tmp_path):
    path = _write(
        tmp_path,
        [_entry(crown_bottom_path=None), _entry(crown_bottom_path=None)],
    )
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def test_unknown_case_id(tmp_path):
    path = _write(tmp_path, [_entry(crown_bottom_path=None)])
    with pytest.raises(ManifestError):
        load_manifest(path).by_id("zz")


def test_directory_scan(tmp_path):
    (tmp_path / "x_die.stl").touch()
    (tmp_path / "x_crown_bottom.stl").touch()
    (tmp_path / "y_die.stl").touch()
    m = load_manifest(tmp_path)
    assert [c.case_id for c in m] == ["x", "y"]
    assert m.by_id("x").crown_bottom_path is not None
    assert m.by_id("y").crown_bottom_path is None


def test_empty_directory_raises(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)


def test_extra_keys_preserved(tmp_path):
    (tmp_path / "a_die.stl").touch()
    path = tmp_path / "m.json"
    path.write_text(json.dumps([_entry(crown_bottom_path=None, scanner="lab-3")]))
    assert load_manifest(path).by_id("a").extra == {"scanner": "lab-3"}


@pytest.mark.parametrize(
    "raw, names",
    [
        ({"x": 1}, "'cases' list"),
        (5, "'cases' list"),
        (["case_id die_path arch"], "manifest entry 0"),
        ([_entry(crown_bottom_path=None), _entry(die_path=3)], "manifest entry 1"),
        ([_entry(crown_bottom_path=7)], "manifest entry 0"),
        ([_entry(tooth_position=None, crown_bottom_path=None)], "manifest entry 0"),
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
