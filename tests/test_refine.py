import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import face_neighbors
from marginline.errors import EmptyRegionError
from marginline.mesh import TriangleMesh
from marginline.refine import (
    GraphCutConfig,
    _min_cut,
    _pairwise_terms,
    cleanup_components,
    cut_energy,
    graph_cut_refine,
)
from marginline.shapes import frustum_die, icosphere


def _random_mesh(rng, max_faces=16):
    """Small random patch of an icosphere (re-indexed)."""
    sphere = icosphere(subdivisions=1, radius=1.0)
    n = int(rng.integers(4, max_faces + 1))
    start = int(rng.integers(0, sphere.n_faces))
    neighbors = face_neighbors(sphere.adjacency())
    chosen = [start]
    frontier = [start]
    while len(chosen) < n and frontier:
        f = frontier.pop(0)
        for g in neighbors[f]:
            if g not in chosen:
                chosen.append(g)
                frontier.append(g)
            if len(chosen) == n:
                break
    faces = sphere.faces[sorted(chosen)]
    used = np.unique(faces)
    remap = {int(v): i for i, v in enumerate(used)}
    faces = np.vectorize(remap.get)(faces)
    return TriangleMesh(sphere.vertices[used], faces)


def _enumerate_optimum(mesh, probs, config):
    best = np.inf
    best_labels = None
    for bits in itertools.product((0, 1), repeat=mesh.n_faces):
        labels = np.asarray(bits, dtype=np.int64)
        e = cut_energy(mesh, probs, labels, config)
        if e < best - 1e-12:
            best = e
            best_labels = labels
    return best, best_labels


def test_exact_on_enumerable_instances():
    rng = np.random.default_rng(17)
    for _ in range(25):
        mesh = _random_mesh(rng, max_faces=12)
        probs = rng.uniform(0.01, 0.99, size=mesh.n_faces)
        probs = np.stack([1 - probs, probs], axis=1)
        config = GraphCutConfig(smoothness=float(rng.uniform(0, 10)))
        labels = graph_cut_refine(mesh, probs, config)
        achieved = cut_energy(mesh, probs, labels, config)
        optimum, _ = _enumerate_optimum(mesh, probs, config)
        assert achieved == pytest.approx(optimum, abs=1e-9)


def _die_probs(seed, one_hot=False):
    """10k-face die with noisy per-face probabilities of the crown label."""
    die, crease = frustum_die(segments=128, rows_below=28, rows_above=12)
    rng = np.random.default_rng(seed)
    logit = 3.0 * (die.barycenters[:, 2] - crease["z"])
    logit += rng.normal(0.0, 2.0, die.n_faces)
    p1 = (logit > 0).astype(np.float64) if one_hot else 1.0 / (1.0 + np.exp(-logit))
    return die, np.stack([1.0 - p1, p1], axis=1)


def _certified_labels(mesh, probs, config):
    """Labels of the min cut, after checking that the solver's float flow
    is feasible and that its value equals the energy of the labels, which
    proves the labels optimal (max-flow min-cut). Flows are exact to 1e-9,
    or to 1e-14 of the largest capacity where that is coarser."""
    unary = -np.log(np.clip(probs, config.prob_floor, None))
    fa, fb, w = _pairwise_terms(mesh, config)
    labels, capacity, flow = _min_cut(unary, fa, fb, config.smoothness * w)
    n = mesh.n_faces
    tol = max(1e-9, 1e-14 * capacity.max())
    assert np.all(flow.data <= capacity.data + tol)
    assert abs(flow + flow.T).max() <= tol
    net_out = np.asarray(flow.sum(axis=1)).ravel()
    assert np.abs(net_out[:n]).max() <= tol
    energy = cut_energy(mesh, probs, labels, config)
    assert net_out[n] == pytest.approx(energy, rel=1e-9)
    assert np.array_equal(labels, graph_cut_refine(mesh, probs, config))
    return labels


def test_flow_certifies_cut_on_die():
    mesh, probs = _die_probs(seed=4)
    assert mesh.n_faces > 10_000
    labels = _certified_labels(mesh, probs, GraphCutConfig())
    assert 0 < np.sum(labels != probs.argmax(axis=1)) < mesh.n_faces // 10


def test_one_hot_probabilities():
    """Zero unaries on one side of every face."""
    mesh, probs = _die_probs(seed=5, one_hot=True)
    _certified_labels(mesh, probs, GraphCutConfig())
    rng = np.random.default_rng(23)
    for _ in range(10):
        mesh = _random_mesh(rng, max_faces=12)
        p1 = rng.integers(0, 2, size=mesh.n_faces).astype(np.float64)
        probs = np.stack([1 - p1, p1], axis=1)
        config = GraphCutConfig(smoothness=float(rng.uniform(0, 10)))
        labels = graph_cut_refine(mesh, probs, config)
        optimum, _ = _enumerate_optimum(mesh, probs, config)
        assert cut_energy(mesh, probs, labels, config) == pytest.approx(optimum, abs=1e-9)


@pytest.mark.parametrize("smoothness", [1e6, 1e-9])
def test_extreme_smoothness_on_die(smoothness):
    """Pairwise capacities of 1e6 or 1e-9 beside unaries of order 1 fit
    the int32 phases."""
    mesh, probs = _die_probs(seed=6)
    config = GraphCutConfig(smoothness=smoothness)
    labels = _certified_labels(mesh, probs, config)
    argmax = probs.argmax(axis=1)
    assert cut_energy(mesh, probs, labels, config) <= cut_energy(
        mesh, probs, argmax, config
    )


def test_face_pair_sharing_several_edges():
    """Two faces on the same three vertices share all three edges; a cut
    between them pays every edge's weight."""
    mesh = TriangleMesh(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0, 1, 2], [0, 2, 1]]),
    )
    fa, fb, w = _pairwise_terms(mesh, GraphCutConfig(dihedral_sigma=100.0))
    assert len(w) == 3 and set(zip(fa.tolist(), fb.tolist())) <= {(0, 1), (1, 0)}
    probs = np.array([[0.2, 0.8], [0.8, 0.2]])
    pair = w.sum()
    split = 2 * -np.log(0.8)
    for lam in np.linspace(0.05, 3.0, 25):
        config = GraphCutConfig(smoothness=float(lam), dihedral_sigma=100.0)
        labels = graph_cut_refine(mesh, probs, config)
        optimum, _ = _enumerate_optimum(mesh, probs, config)
        assert cut_energy(mesh, probs, labels, config) == pytest.approx(optimum, abs=1e-9)
        # uniform labels cost -log(0.8) - log(0.2); the split costs lam * pair
        split_wins = split + lam * pair < -np.log(0.8) - np.log(0.2)
        assert np.array_equal(labels, [1, 0]) == split_wins


def test_pipeline_import_leaves_out_networkx():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, marginline.pipeline; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_zero_smoothness_returns_argmax():
    rng = np.random.default_rng(3)
    mesh = _random_mesh(rng)
    probs = rng.uniform(0.01, 0.99, size=mesh.n_faces)
    probs = np.stack([1 - probs, probs], axis=1)
    labels = graph_cut_refine(mesh, probs, GraphCutConfig(smoothness=0.0))
    assert np.array_equal(labels, probs.argmax(axis=1))


def test_huge_smoothness_flattens_labels():
    rng = np.random.default_rng(8)
    mesh = _random_mesh(rng, max_faces=14)
    probs = rng.uniform(0.01, 0.99, size=mesh.n_faces)
    probs = np.stack([1 - probs, probs], axis=1)
    labels = graph_cut_refine(mesh, probs, GraphCutConfig(smoothness=1e6))
    assert len(np.unique(labels)) == 1


def test_smoothness_never_increases_boundary_length():
    """Property: the cut boundary (number of disagreeing adjacent pairs)
    shrinks or stays equal as smoothness grows."""
    rng = np.random.default_rng(11)
    sphere = icosphere(subdivisions=2, radius=1.0)
    probs = rng.uniform(0.05, 0.95, size=sphere.n_faces)
    probs = np.stack([1 - probs, probs], axis=1)
    adjacency = sphere.adjacency()

    def boundary_edges(labels):
        interior = adjacency.edge_faces[adjacency.edge_faces[:, 1] >= 0]
        return int(np.sum(labels[interior[:, 0]] != labels[interior[:, 1]]))

    last = np.inf
    for lam in (0.0, 0.5, 2.0, 8.0):
        labels = graph_cut_refine(sphere, probs, GraphCutConfig(smoothness=lam))
        edges = boundary_edges(labels)
        assert edges <= last + 1e-9
        last = edges


def test_config_validation():
    with pytest.raises(ValueError):
        GraphCutConfig(smoothness=-1.0).validate()
    with pytest.raises(ValueError):
        GraphCutConfig(dihedral_sigma=0.0).validate()


def test_cleanup_keeps_largest_island(unit_sphere):
    labels = np.zeros(unit_sphere.n_faces, dtype=np.int64)
    z = unit_sphere.barycenters[:, 2]
    labels[z > 0.5] = 1      # big cap
    south = np.argmin(z)
    labels[south] = 1        # lone island
    cleaned = cleanup_components(labels, unit_sphere.adjacency())
    assert cleaned[south] == 0
    assert np.array_equal(cleaned[z > 0.55], labels[z > 0.55])


def test_cleanup_rejects_empty_region(unit_sphere):
    with pytest.raises(EmptyRegionError):
        cleanup_components(
            np.zeros(unit_sphere.n_faces, dtype=np.int64),
            unit_sphere.adjacency(),
        )
