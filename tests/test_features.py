import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from geometry import grid_patch, icosphere, open_cylinder
from marginline.features import (
    R_LARGE,
    R_SMALL,
    _vertex_mean_curvature,
    assemble_features,
    build_adjacency,
    compute_mean_curvature,
    load_feature_cache,
    save_feature_cache,
)
from marginline.mesh import TriangleMesh
from marginline.preprocess import normalize
from marginline.synthetic import generate_case


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


def test_zero_area_face_warns_and_adds_no_curvature():
    """A sliver on a plane's edge, its three distinct vertices collinear,
    is reported and weighs nothing: the plane's curvature stays 0."""
    patch = grid_patch(n=4, spacing=1.0)
    a, b = patch.vertices[0], patch.vertices[1]  # the edge of face (0, 1, 6)
    mesh = TriangleMesh(
        np.vstack([patch.vertices, 0.5 * (a + b)]),
        np.vstack([patch.faces, [0, patch.n_vertices, 1]]),
    )
    assert mesh.face_areas[-1] == 0.0
    with pytest.warns(UserWarning, match="zero-area triangle"):
        h = compute_mean_curvature(mesh)
    assert np.all(np.isfinite(h))
    assert np.abs(h).max() < 1e-9


def _loop_smoothing(points, values, radius):
    """Reference: one mean per point over its ball-query neighbour list.
    Returns (means, neighbour lists)."""
    neighbors = cKDTree(points).query_ball_point(points, radius)
    return np.array([values[idx].mean() for idx in neighbors]), neighbors


def _smoothing_meshes():
    return {
        "sphere": lambda: icosphere(subdivisions=3, radius=10.0),
        "cylinder": lambda: open_cylinder(
            radius=5.0, height=20.0, segments=64, rings=40
        ),
        "case_die": lambda: generate_case(np.random.default_rng(5))[0],
    }


@pytest.mark.parametrize("name", [*_smoothing_meshes(), "hires_decimated"])
def test_pair_smoothing_matches_per_vertex_loop(name, request):
    """The neighbour-mean smoothing has the per-vertex loop's neighbour
    sets and its values to 1e-12 of the field's largest magnitude (values
    near 0 differ in their last digits only by summation order)."""
    if name == "hires_decimated":
        mesh = request.getfixturevalue("decimated_hires_die")
    else:
        mesh = _smoothing_meshes()[name]()
    radius = float(mesh.edge_lengths.max())
    expected, neighbors = _loop_smoothing(
        mesh.vertices, _vertex_mean_curvature(mesh), radius
    )
    n = mesh.n_vertices
    pairs = cKDTree(mesh.vertices).query_pairs(radius, output_type="ndarray")
    self_pairs = np.repeat(np.arange(n), 2).reshape(-1, 2)
    got_sets = np.concatenate([pairs, pairs[:, ::-1], self_pairs])
    counts = [len(i) for i in neighbors]
    ref_sets = np.column_stack(
        [np.repeat(np.arange(n), counts), np.concatenate(neighbors)]
    )
    assert np.array_equal(np.unique(got_sets, axis=0), np.unique(ref_sets, axis=0))
    assert len(got_sets) == len(ref_sets)
    got = compute_mean_curvature(mesh)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


def test_feature_channel_layout(unit_sphere):
    h = compute_mean_curvature(unit_sphere)
    full = assemble_features(unit_sphere, vertex_curvature=h)
    assert full.shape == (unit_sphere.n_faces, 18)
    # barycenter block sits after the 9 vertex coordinates
    assert np.allclose(full[:, 9:12], unit_sphere.barycenters)
    assert np.allclose(full[:, 12:15], unit_sphere.face_normals)


def test_adjacency_row_stochastic_with_self_loops(unit_sphere):
    adj = build_adjacency(unit_sphere.barycenters)
    for a in (adj.a_small, adj.a_large):
        sums = np.asarray(a.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert (a.diagonal() > 0).all()
    # the larger radius reaches at least as many neighbours
    assert adj.a_large.nnz >= adj.a_small.nnz


def _dense_adjacency(points, radius):
    """Reference: every pairwise distance, each row divided by its count."""
    d = np.linalg.norm(points[:, None] - points[None], axis=2)
    within = (d <= radius).astype(np.float64)
    return within / within.sum(axis=1, keepdims=True)


def test_adjacency_matches_dense_oracle(tmp_path):
    rng = np.random.default_rng(5)
    # scaled by 1/3, so R_SMALL and R_LARGE reach as far as 0.3 and 0.6 would
    # on the unscaled points
    points = rng.normal(size=(400, 3)) / 3
    points[300:] = points[rng.integers(0, 300, size=100)]  # duplicates
    adj = build_adjacency(points)
    for a, radius in zip(adj, (R_SMALL, R_LARGE)):
        assert a.has_canonical_format
        assert a.indices.dtype == a.indptr.dtype == np.int32
        assert np.array_equal(a.toarray(), _dense_adjacency(points, radius))
    path = tmp_path / "case.mlfc"
    save_feature_cache(path, np.zeros((400, 18)), adj)
    _, loaded, _ = load_feature_cache(path)
    for a, b in zip(adj, loaded):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, part), getattr(b, part))


def test_adjacency_working_set_stays_bounded(decimated_hires_die):
    """Peak traced allocation of both matrices on the 10 000-face
    decimation of the 39 728-face die: 22.0 MB with COO triplets scaled
    by a diagonal matrix's product, 9.9 MB built straight into CSR."""
    barycenters = normalize(decimated_hires_die).barycenters
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        build_adjacency(barycenters)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 14e6


def test_feature_cache_round_trip(tmp_path, unit_sphere):
    h = compute_mean_curvature(unit_sphere)
    feats = assemble_features(unit_sphere, vertex_curvature=h)
    adj = build_adjacency(unit_sphere.barycenters)
    labels = (unit_sphere.barycenters[:, 2] > 0).astype(np.int64)
    path = tmp_path / "case.mlfc"
    save_feature_cache(path, feats, adj, labels=labels)
    f2, a2, l2 = load_feature_cache(path)
    assert np.array_equal(f2.matrix, feats)
    assert np.array_equal(l2, labels)
    assert (a2.a_small != adj.a_small).nnz == 0
    assert (a2.a_large != adj.a_large).nnz == 0


def test_feature_cache_rejects_foreign_channel_layout(tmp_path, unit_sphere):
    """A cache whose feature array has another channel count is refused
    rather than read as 18 channels."""
    h = compute_mean_curvature(unit_sphere)
    feats = assemble_features(unit_sphere, vertex_curvature=h)
    adj = build_adjacency(unit_sphere.barycenters)
    path = tmp_path / "case.mlfc"
    save_feature_cache(path, feats[:, :15], adj)
    with pytest.raises(ValueError, match="18-channel layout"):
        load_feature_cache(path)
