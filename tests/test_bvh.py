import itertools

import numpy as np
import pytest

from geometry import icosphere
import marginline.bvh as bvh_mod
from marginline.bvh import TIE_MM, TriangleBVH, _batches, brute_force_closest
from marginline.mesh import TriangleMesh
from marginline.shapes import frustum_die


def _assert_matches_brute_force(mesh, queries):
    """Distances within 1e-12 of the exhaustive oracle; points too unless
    another face ties for the minimum; and the same face as the oracle's
    argmin, whose exact ties go to the lowest face id."""
    pts, faces, dists = mesh.bvh().closest_points(queries)
    assert pts.shape == (len(queries), 3)
    assert faces.shape == dists.shape == (len(queries),)
    for i, q in enumerate(queries):
        pb, fb, db = brute_force_closest(mesh.vertices, mesh.faces, q)
        assert abs(dists[i] - db) <= 1e-12
        assert faces[i] == fb
        others = np.delete(np.arange(mesh.n_faces), fb)
        if len(others):
            _, _, d_other = brute_force_closest(mesh.vertices, mesh.faces[others], q)
            if d_other - db <= 1e-12:
                continue
        assert np.linalg.norm(pts[i] - pb) <= 1e-12


@pytest.fixture(scope="module")
def mixed_die():
    """Large cap faces beside fine side rows: several radius buckets."""
    die, _ = frustum_die(segments=40, rows_below=10, rows_above=6)
    assert len(die.bvh()._buckets) >= 3
    return die


def test_bvh_matches_brute_force(unit_sphere):
    rng = np.random.default_rng(4)
    _assert_matches_brute_force(unit_sphere, rng.uniform(-2.0, 2.0, size=(200, 3)))


def test_mixed_sizes_match_brute_force(mixed_die):
    rng = np.random.default_rng(6)
    lo, hi = mixed_die.vertices.min(axis=0), mixed_die.vertices.max(axis=0)
    queries = rng.uniform(lo - 1.0, hi + 1.0, size=(150, 3))
    _assert_matches_brute_force(mixed_die, queries)


def test_queries_on_vertices_and_edges(mixed_die):
    rng = np.random.default_rng(7)
    verts = mixed_die.vertices[rng.choice(mixed_die.n_vertices, 60, replace=False)]
    tri = mixed_die.vertices[mixed_die.faces[rng.choice(mixed_die.n_faces, 60)]]
    edges = 0.5 * (tri[:, 0] + tri[:, 1])
    queries = np.vstack([verts, edges])
    _assert_matches_brute_force(mixed_die, queries)
    _, _, dists = mixed_die.bvh().closest_points(queries)
    assert dists.max() <= 1e-12


def test_far_queries(mixed_die):
    lo, hi = mixed_die.vertices.min(axis=0), mixed_die.vertices.max(axis=0)
    size = float(np.linalg.norm(hi - lo))
    rng = np.random.default_rng(8)
    directions = rng.normal(size=(20, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    queries = 0.5 * (lo + hi) + 10.0 * size * directions
    _assert_matches_brute_force(mixed_die, queries)


def test_empty_query_array(unit_sphere):
    pts, faces, dists = unit_sphere.bvh().closest_points(np.zeros((0, 3)))
    assert pts.shape == (0, 3)
    assert faces.shape == dists.shape == (0,)


def test_one_face_mesh():
    mesh = TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], [[0, 1, 2]]
    )
    rng = np.random.default_rng(9)
    _assert_matches_brute_force(mesh, rng.uniform(-3.0, 3.0, size=(40, 3)))


def test_batches_respect_pair_cap():
    cost = np.array([3, 4, 1, 9, 2, 2, 2, 0, 5])
    slices = list(_batches(cost, 6))
    assert np.array_equal(np.concatenate([np.arange(len(cost))[s] for s in slices]),
                          np.arange(len(cost)))
    for s in slices:
        assert cost[s].sum() <= 6 or s.stop - s.start == 1


def test_tiny_pair_cap_keeps_answers(mixed_die, monkeypatch):
    rng = np.random.default_rng(10)
    queries = rng.uniform(-30.0, 30.0, size=(30, 3))
    expected = mixed_die.bvh().closest_points(queries)
    # far queries see nearly every face; a tiny cap forces one query
    # per batch and must not change the answer
    monkeypatch.setattr(bvh_mod, "_MAX_PAIRS", 7)
    got = TriangleBVH(mixed_die.vertices, mixed_die.faces).closest_points(queries)
    for a, b in zip(expected, got):
        assert np.array_equal(a, b)


def test_batched_query_agrees_with_single(unit_sphere):
    bvh = unit_sphere.bvh()
    rng = np.random.default_rng(5)
    queries = rng.uniform(-1.5, 1.5, size=(50, 3))
    pts, faces, dists = bvh.closest_points(queries)
    for i, q in enumerate(queries):
        p, f, d = bvh.closest_points(q)
        assert abs(dists[i] - d[0]) < 1e-12
        assert np.linalg.norm(pts[i] - p[0]) < 1e-12


def test_distance_to_unit_sphere_surface():
    sphere = icosphere(subdivisions=4, radius=1.0)
    bvh = sphere.bvh()
    # far outside: distance approaches |q| - 1
    _, _, d = bvh.closest_points(np.array([3.0, 0.0, 0.0]))
    assert abs(d[0] - 2.0) < 5e-3
    # center: distance approaches the radius
    _, _, d = bvh.closest_points(np.zeros(3))
    assert abs(d[0] - 1.0) < 5e-3


def test_tie_reach_gathers_a_runner_up_beyond_the_bound():
    """A tie score widens pass 2's reach by TIE_MM. Face 1's nearest
    point, a vertex, lies 0.65 * TIE_MM beyond face 0's distance `ub`, so
    it ties and its higher score wins; but its centroid lies one radius r
    farther still, beyond the `ub + r` (times the tree's slack) that
    gathers candidates without a tie score."""
    ub, r, gap = 0.2, 0.1, 0.65 * TIE_MM
    turns = np.deg2rad([0.0, 120.0, 240.0])
    ring = np.stack([np.cos(turns), np.sin(turns), np.zeros(3)], axis=1) * r
    # face 0 faces the query (the origin) from above; face 1 points its
    # first vertex at the query from -x
    face0 = ring + [0.0, 0.0, ub]
    face1 = ring[:, [0, 2, 1]] + [-(ub + gap + r), 0.0, 0.0]
    bvh = TriangleBVH(np.vstack([face0, face1]), [[0, 1, 2], [3, 4, 5]])
    centroid1 = face1.mean(axis=0)
    assert np.linalg.norm(centroid1) > (ub + r) * bvh_mod._SLACK
    _, faces, dists = bvh.closest_points(np.zeros((1, 3)))
    assert faces[0] == 0 and abs(dists[0] - ub) <= 1e-15
    _, faces, dists = bvh.closest_points(np.zeros((1, 3)), tie_score=np.array([0, 1]))
    assert faces[0] == 1 and 0 < dists[0] - ub <= TIE_MM


def _list_closest_points(bvh, queries, tie_score=None, nearest=4, chunk=32):
    """Reference: the list-based query. The upper bound comes from each
    bucket's `nearest` centroids; then every triangle whose centroid lies
    within ub + r of the query comes from `query_ball_point` lists."""
    out = []
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        near = np.hstack(
            [
                ids[tree.query(q, k=min(nearest, len(ids)))[1]].reshape(len(q), -1)
                for tree, ids, _ in bvh._buckets
            ]
        )
        qi = np.repeat(np.arange(len(q)), near.shape[1])
        _, _, ub = bvh._select(q, qi, near.ravel(), None)
        tol = 0.0 if tie_score is None else TIE_MM
        qi, fi = [], []
        for tree, ids, r in bvh._buckets:
            hits = tree.query_ball_point(q, (ub + tol + r) * bvh_mod._SLACK)
            qi.append(np.repeat(np.arange(len(q)), [len(h) for h in hits]))
            flat = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64)
            fi.append(ids[flat])
        out.append(bvh._select(q, np.concatenate(qi), np.concatenate(fi), tie_score))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _query_sets(mesh, seed):
    """Near-surface, far, vertex and edge-midpoint queries."""
    rng = np.random.default_rng(seed)
    tri = mesh.vertices[mesh.faces[rng.choice(mesh.n_faces, 300)]]
    w = rng.dirichlet(np.ones(3), size=300)
    on_surface = np.einsum("ij,ijk->ik", w, tri)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    size = float(np.linalg.norm(hi - lo))
    directions = rng.normal(size=(12, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    edges = mesh.vertices[mesh.faces[rng.choice(mesh.n_faces, 200)]]
    return {
        "near": on_surface + rng.normal(0.0, 0.03, size=on_surface.shape),
        "off": on_surface + rng.normal(0.0, 0.5, size=on_surface.shape),
        "far": 0.5 * (lo + hi) + 10.0 * size * directions,
        "vertex": mesh.vertices[rng.choice(mesh.n_vertices, 200, replace=False)],
        "edge": 0.5 * (edges[:, 0] + edges[:, 1]),
    }


def _assert_same_bits(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("die", ["mixed_die", "hires_die"])
def test_array_candidates_match_list_reference(die, request):
    """Points, faces and distances bit for bit equal to the list-based
    query's, with and without a tie score."""
    mesh = request.getfixturevalue(die)
    bvh = TriangleBVH(mesh.vertices, mesh.faces)
    score = mesh.barycenters[:, 2]
    for queries in _query_sets(mesh, seed=11).values():
        for tie_score in (None, score):
            _assert_same_bits(
                bvh.closest_points(queries, tie_score),
                _list_closest_points(bvh, queries, tie_score),
            )


def test_batches_cap_padded_width():
    """A slice's query count times its widest row per bucket stays within
    the cap."""
    rng = np.random.default_rng(3)
    widths = rng.integers(0, 40, size=(3, 200))
    slices = list(_batches(widths, 100))
    assert np.array_equal(
        np.concatenate([np.arange(200)[s] for s in slices]), np.arange(200)
    )
    for s in slices:
        padded = (s.stop - s.start) * widths[:, s].max(axis=1).sum()
        assert padded <= 100 or s.stop - s.start == 1
