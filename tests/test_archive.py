"""Feature caches and fold checkpoints as `.npz` archives: byte-stable
writes under the caller's file name, and one ValueError naming the path
for anything else the two loaders are handed."""

import io
import json
import pickle
import re
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marginline.features import (
    assemble_features,
    build_adjacency,
    load_feature_cache,
    save_feature_cache,
)
from marginline.segnet import NetworkParams
from marginline.shapes import icosphere

LOADERS = (load_feature_cache, NetworkParams.load)


@pytest.fixture(scope="module")
def cache_parts():
    mesh = icosphere(subdivisions=1)
    feats = assemble_features(mesh, np.linspace(-1.0, 1.0, mesh.n_vertices))
    adj = build_adjacency(mesh.barycenters, r_small=0.5, r_large=1.0)
    labels = (mesh.barycenters[:, 2] > 0).astype(np.int64)
    return feats, adj, labels


def _parent_feature_cache(feats, adj):
    """The retired MLFC container: magic, struct header, COO triplets."""
    n, c = feats.shape
    out = [b"MLFC\x01", struct.pack("<qqqq", n, c, 0b1111, 0)]
    out.append(struct.pack("<dd", 0.5, 1.0))  # the radii `cache_parts` used
    out.append(feats.astype("<f8").tobytes())
    for m in (adj.a_small.tocoo(), adj.a_large.tocoo()):
        out.append(struct.pack("<q", m.nnz))
        out += [m.row.astype("<i8").tobytes(), m.col.astype("<i8").tobytes()]
        out.append(m.data.astype("<f8").tobytes())
    return b"".join(out)


def _parent_checkpoint(params):
    """The retired v2 checkpoint: a JSON header, then raw tensors."""
    names = sorted(params.tensors)
    header = {
        "format": "marginline-checkpoint-v2",
        "arch": params.arch,
        "tensors": [
            {"name": n, "shape": list(params.tensors[n].shape), "dtype": "<f8"}
            for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    body = b"".join(params.tensors[n].astype("<f8").tobytes() for n in names)
    return struct.pack("<q", len(blob)) + blob + body


def _bare_npy():
    buf = io.BytesIO()
    np.save(buf, np.zeros((4, 18)))
    return buf.getvalue()


def _write_foreign(kind, path, cache_parts):
    feats, adj, labels = cache_parts
    params = NetworkParams.init(18, 0.125, seed=3)
    if kind == "15-channel features":
        save_feature_cache(path, feats[:, :15], adj, labels)
    elif kind == "integer tensor":
        params.tensors["clf.b"] = np.zeros(2, dtype=np.int32)
        params.save(path)
    elif kind == "pickled array":
        path.write_bytes(pickle.dumps(np.zeros((4, 18))))
    elif kind == "parent MLFC":
        path.write_bytes(_parent_feature_cache(feats, adj))
    elif kind == "parent v2 checkpoint":
        path.write_bytes(_parent_checkpoint(params))
    elif kind == "empty":
        path.write_bytes(b"")
    else:
        path.write_bytes(_bare_npy())


FOREIGN = (
    "15-channel features",
    "integer tensor",
    "pickled array",
    "parent MLFC",
    "parent v2 checkpoint",
    "empty",
    "bare npy",
)


@pytest.mark.parametrize("kind", FOREIGN)
@pytest.mark.parametrize("load", LOADERS, ids=("cache", "checkpoint"))
def test_loaders_refuse_foreign_input_naming_the_path(
    tmp_path, cache_parts, kind, load
):
    path = tmp_path / "foreign.bin"
    _write_foreign(kind, path, cache_parts)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize(
    "data", [b"\x80garbage, not an archive", _bare_npy()], ids=("garbage", "bare npy")
)
@pytest.mark.parametrize("load", LOADERS, ids=("cache", "checkpoint"))
def test_bytes_that_are_not_an_npz_are_not_taken_for_a_pickle(tmp_path, data, load):
    """Bytes without the zip magic are refused as no archive at all;
    numpy's advice to load the file with pickles allowed never shows."""
    path = tmp_path / "foreign.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a ")) as info:
        load(path)
    assert str(info.value).endswith(": not an .npz archive")
    assert "pickle" not in str(info.value).lower()


def test_integer_tensor_refusal_names_the_tensor(tmp_path, cache_parts):
    path = tmp_path / "foreign.bin"
    _write_foreign("integer tensor", path, cache_parts)
    with pytest.raises(ValueError, match="'clf.b' of dtype int32 is not float"):
        NetworkParams.load(path)


def test_missing_file_is_not_a_format_error(tmp_path):
    for load in LOADERS:
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "absent.mlfc")


def test_writes_keep_the_name_and_repeat_byte_for_byte(tmp_path, cache_parts):
    feats, adj, labels = cache_parts
    params = NetworkParams.init(18, 0.125, seed=3).astype(np.float32)
    for k in (1, 2):
        save_feature_cache(tmp_path / f"case{k}.mlfc", feats, adj, labels=labels)
        params.save(tmp_path / f"fold{k}.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "case1.mlfc", "case2.mlfc", "fold1.bin", "fold2.bin"
    ]
    for a, b in (("case1.mlfc", "case2.mlfc"), ("fold1.bin", "fold2.bin")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def test_cache_round_trip_with_unsorted_columns(tmp_path, cache_parts):
    """A CSR written with its columns out of order reads back with them
    sorted: the form whose pooling products the pipeline pins."""
    feats, adj, _ = cache_parts
    indptr, indices, data = (
        adj.a_small.indptr, adj.a_small.indices.copy(), adj.a_small.data.copy()
    )
    for row in (slice(lo, hi) for lo, hi in zip(indptr[:-1], indptr[1:])):
        indices[row], data[row] = np.roll(indices[row], 1), np.roll(data[row], 1)
    shuffled = sp.csr_matrix((data, indices, indptr), shape=adj.a_small.shape)
    assert not shuffled.has_sorted_indices
    path = tmp_path / "case.mlfc"
    save_feature_cache(path, feats, adj._replace(a_small=shuffled))
    _, back, labels = load_feature_cache(path)
    assert labels is None
    assert back.a_small.has_sorted_indices
    canonical = adj.a_small.tocoo().tocsr()
    assert np.array_equal(back.a_small.indices, canonical.indices)
    assert np.array_equal(back.a_small.data, canonical.data)


@pytest.fixture(scope="module")
def valid_archives(cache_parts, tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    feats, adj, labels = cache_parts
    save_feature_cache(root / "case.mlfc", feats, adj, labels=labels)
    NetworkParams.init(18, 0.125, seed=3).save(root / "fold1.bin")
    return [(root / n).read_bytes() for n in ("case.mlfc", "fold1.bin")]


def _load_or_refuse(tmp_path, data):
    """Both loaders either read `data` or raise a ValueError naming the
    path; nothing else may escape."""
    path = tmp_path / "fuzz.bin"
    path.write_bytes(data)
    for load in LOADERS:
        try:
            load(path)
        except ValueError as exc:
            assert str(path) in str(exc)


@given(st.binary(max_size=512))
@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_arbitrary_bytes_are_refused(tmp_path, data):
    _load_or_refuse(tmp_path, data)


@given(
    st.integers(0, 1),
    st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.0, 1.0),
)
@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_archives_are_read_or_refused(
    tmp_path, valid_archives, which, edits, keep
):
    """Overwritten bytes anywhere in a valid archive, then a cut."""
    data = bytearray(valid_archives[which])
    for where, value in edits:
        data[int(where * len(data))] = value
    _load_or_refuse(tmp_path, bytes(data[: max(1, int(keep * len(data)))]))
