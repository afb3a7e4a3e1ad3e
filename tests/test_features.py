import struct

import numpy as np
import pytest

from marginline.features import (
    assemble_features,
    build_adjacency,
    compute_mean_curvature,
    load_feature_cache,
    save_feature_cache,
)
from marginline.shapes import grid_patch, icosphere, open_cylinder


def test_sphere_curvature():
    sphere = icosphere(subdivisions=3, radius=10.0)
    h = compute_mean_curvature(sphere)
    rel = np.abs(h - 0.1) / 0.1
    assert np.median(rel) <= 0.05
    assert (h > 0).all()  # convex surface, outward normals


def test_cylinder_curvature_interior():
    cyl = open_cylinder(radius=5.0, height=20.0, segments=64, rings=40)
    h = compute_mean_curvature(cyl)
    interior = np.abs(cyl.vertices[:, 2] - 10.0) < 7.0
    rel = np.abs(h[interior] - 0.1) / 0.1
    assert np.median(rel) <= 0.08


def test_plane_curvature_zero():
    patch = grid_patch(n=12, spacing=0.5)
    h = compute_mean_curvature(patch)
    assert np.abs(h).max() < 1e-9


def test_feature_channel_layout(unit_sphere):
    h = compute_mean_curvature(unit_sphere)
    full = assemble_features(unit_sphere, vertex_curvature=h)
    assert full.matrix.shape == (unit_sphere.n_faces, 18)
    # barycenter block sits after the 9 vertex coordinates
    assert np.allclose(full.matrix[:, 9:12], unit_sphere.barycenters)
    assert np.allclose(full.matrix[:, 12:15], unit_sphere.face_normals)


def test_adjacency_row_stochastic_with_self_loops(unit_sphere):
    adj = build_adjacency(unit_sphere.barycenters)
    for a in (adj.a_small, adj.a_large):
        sums = np.asarray(a.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert (a.diagonal() > 0).all()
    # the larger radius reaches at least as many neighbours
    assert adj.a_large.nnz >= adj.a_small.nnz


def test_feature_cache_round_trip(tmp_path, unit_sphere):
    h = compute_mean_curvature(unit_sphere)
    feats = assemble_features(unit_sphere, vertex_curvature=h)
    adj = build_adjacency(unit_sphere.barycenters)
    labels = (unit_sphere.barycenters[:, 2] > 0).astype(np.int64)
    path = tmp_path / "case.mlfc"
    save_feature_cache(path, feats, adj, labels=labels)
    f2, a2, l2 = load_feature_cache(path)
    assert np.array_equal(f2.matrix, feats.matrix)
    assert np.array_equal(l2, labels)
    assert (a2.a_small != adj.a_small).nnz == 0
    assert (a2.a_large != adj.a_large).nnz == 0


def test_feature_cache_rejects_foreign_channel_layout(tmp_path, unit_sphere):
    """A cache whose header names another set of channel groups, or
    another channel count, is refused rather than read as 18 channels."""
    h = compute_mean_curvature(unit_sphere)
    feats = assemble_features(unit_sphere, vertex_curvature=h)
    adj = build_adjacency(unit_sphere.barycenters)
    path = tmp_path / "case.mlfc"
    save_feature_cache(path, feats, adj)
    good = path.read_bytes()
    # header: 5-byte magic, then int64 n, c, channel-group bits, has_labels
    n, c, bits, has_labels = struct.unpack_from("<qqqq", good, 5)
    assert (c, bits) == (18, 0b1111)
    for c_bad, bits_bad in ((18, 0b1110), (15, 0b0111)):
        path.write_bytes(
            good[:5] + struct.pack("<qqqq", n, c_bad, bits_bad, has_labels) + good[37:]
        )
        with pytest.raises(ValueError, match="18-channel layout"):
            load_feature_cache(path)
