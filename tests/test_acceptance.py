"""Acceptance gate: twelve numbered criteria covering the full pipeline.

Each test prints one `criterion NN ...: PASS` line (or the assertion
fails and pytest reports it). Criteria 9 and 11 train networks and take
several minutes combined; everything else is fast.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import face_neighbors
from geometry import icosphere, open_cylinder
from marginline.cli import main as cli_main
from marginline.decimate import decimate
from marginline.ensemble import combine
from marginline.features import compute_mean_curvature
from marginline.manifest import load_manifest
from marginline.mesh import TriangleMesh
from marginline.metrics import segmentation_metrics, spearman
from marginline.pipeline import PipelineConfig, run_pipeline
from marginline.preprocess import augment
from marginline.refine import GraphCutConfig, cut_energy, graph_cut_refine
from marginline.segnet.network import NetworkParams, forward
from marginline.segnet.train import sample_loss_and_grads
from marginline.shapes import frustum_die
from marginline.spline import fit_smoothing_spline, smoothness_bound
from marginline.synthetic import generate_benchmark, load_truth_points

RATINGS = [2.5, 3, 2, 2, 2, 3, 3, 2, 2, 3, 2, 2, 4]
MEAN_UM = [63, 72, 98, 74, 73, 42, 43, 82, 84, 74, 95, 61, 57]


def _report(number, name):
    print(f"criterion {number:02d} {name}: PASS")


def test_criterion_01_metric_formulas():
    t0 = time.time()
    rng = np.random.default_rng(0)
    rows = [(8, 2, 5, 2)] + [tuple(rng.integers(0, 40, 4)) for _ in range(24)]
    for tp, fp, tn, fn in rows:
        pred = np.concatenate(
            [np.ones(tp + fp, int), np.zeros(tn + fn, int)]
        )
        truth = np.concatenate(
            [np.ones(tp, int), np.zeros(fp + tn, int), np.ones(fn, int)]
        )
        counts, dsc, sen, ppv = segmentation_metrics(pred, truth)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        if tp + fp + fn > 0:
            assert dsc == 2 * tp / (2 * tp + fp + fn)
        if tp + fn > 0:
            assert sen == tp / (tp + fn)
        if tp + fp > 0:
            assert ppv == tp / (tp + fp)
        if sen + ppv > 0:
            assert abs(dsc - 2 * ppv * sen / (ppv + sen)) <= 1e-12
    counts, dsc, sen, ppv = segmentation_metrics(
        np.concatenate([np.ones(10, int), np.zeros(2, int)]),
        np.concatenate([np.ones(8, int), np.zeros(2, int), np.ones(2, int)]),
    )
    assert dsc == sen == ppv == 0.8
    assert time.time() - t0 < 1.0
    _report(1, "metric formulas on 25 confusion tables")


def test_criterion_02_rating_correlation():
    t0 = time.time()
    r, p = spearman(RATINGS, MEAN_UM)
    assert r == pytest.approx(-0.683, abs=0.005)
    assert p == pytest.approx(0.010, abs=0.003)
    assert time.time() - t0 < 1.0
    _report(2, f"rank correlation r={r:.3f} p={p:.3f}")


def test_criterion_03_curvature_oracles():
    t0 = time.time()
    sphere = icosphere(4, radius=10.0)
    h = compute_mean_curvature(sphere)
    sphere_err = float(np.median(np.abs(h - 0.1) / 0.1))
    assert sphere_err <= 0.05
    cyl = open_cylinder(radius=5.0, height=20.0, segments=64, rings=40)
    h = compute_mean_curvature(cyl)
    interior = np.abs(cyl.vertices[:, 2] - 10.0) < 7.0
    cyl_err = float(np.median(np.abs(h[interior] - 0.1) / 0.1))
    assert cyl_err <= 0.08
    assert time.time() - t0 < 10.0
    _report(3, f"curvature sphere {sphere_err:.3f} cylinder {cyl_err:.3f}")


def test_criterion_04_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(30, 18))
    a = np.eye(30) + 0.1 * rng.random((30, 30))
    a /= a.sum(axis=1, keepdims=True)
    adj = (a, a)
    labels = rng.integers(0, 2, 30)
    params = NetworkParams.init(18, scale=0.125, seed=3)
    for v in params.tensors.values():
        v += rng.normal(0.0, 0.05, size=v.shape)
    _, grads = sample_loss_and_grads(params, (feats, adj, labels))

    def loss_at(p):
        from marginline.segnet.loss import loss_value

        probs = forward(p, feats, adj)
        return loss_value(probs, labels)

    h = 1e-5
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        count = min(flat.size, 12)
        for idx in rng.choice(flat.size, size=count, replace=False):
            old = flat[idx]
            flat[idx] = old + h
            up = loss_at(params)
            flat[idx] = old - h
            dn = loss_at(params)
            flat[idx] = old
            fd = (up - dn) / (2 * h)
            g = grads[name].ravel()[idx]
            denom = max(abs(fd), abs(g), 1e-6)
            worst = max(worst, abs(fd - g) / denom)
    assert worst <= 1e-4
    assert time.time() - t0 < 60.0
    _report(4, f"gradient check worst relative error {worst:.2e}")


def _enumerate_energy(mesh, probs, config):
    """Minimum cut energy by brute force over all 2^F labelings."""
    from marginline.refine import _pairwise_terms

    n = mesh.n_faces
    labelings = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(
        np.float64
    )
    unary = -np.log(np.clip(probs, config.prob_floor, None))
    energy = labelings @ unary[:, 1] + (1.0 - labelings) @ unary[:, 0]
    fa, fb, w = _pairwise_terms(mesh, config)
    mismatch = labelings[:, fa] != labelings[:, fb]
    energy += config.smoothness * (mismatch @ w)
    return float(energy.min())


def test_criterion_05_graph_cut_exactness():
    t0 = time.time()
    rng = np.random.default_rng(29)
    sphere = icosphere(1, radius=1.0)
    neighbors = face_neighbors(sphere.adjacency())
    for trial in range(100):
        n = int(rng.integers(4, 17))
        start = int(rng.integers(0, sphere.n_faces))
        chosen, frontier = [start], [start]
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
        mesh = TriangleMesh(sphere.vertices[used], faces)
        probs = rng.uniform(0.01, 0.99, size=mesh.n_faces)
        probs = np.stack([1 - probs, probs], axis=1)
        config = GraphCutConfig(smoothness=float(rng.uniform(0.0, 10.0)))
        labels = graph_cut_refine(mesh, probs, config)
        achieved = cut_energy(mesh, probs, labels, config)
        optimum = _enumerate_energy(mesh, probs, config)
        assert achieved == pytest.approx(optimum, abs=1e-9)
        if trial == 0:
            argmax = graph_cut_refine(mesh, probs, GraphCutConfig(smoothness=0.0))
            assert np.array_equal(argmax, probs.argmax(axis=1))
            flat = graph_cut_refine(mesh, probs, GraphCutConfig(smoothness=1e6))
            assert len(np.unique(flat)) == 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(5, f"graph cut exact on 100 instances in {elapsed:.1f}s")


def test_criterion_06_spline_contract():
    assert smoothness_bound(5000) == pytest.approx(24.5, abs=1e-9)
    rng = np.random.default_rng(2)
    theta = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
    circle = np.stack(
        [5 * np.cos(theta), 5 * np.sin(theta), np.zeros_like(theta)], axis=1
    )
    noisy = circle + rng.normal(0.0, 0.020, size=circle.shape)
    spline = fit_smoothing_spline(noisy)
    assert spline.residual <= 1.05 * smoothness_bound(200)
    samples = spline.sample(2000)
    radial = np.abs(np.hypot(samples[:, 0], samples[:, 1]) - 5.0)
    deviation = max(float(radial.max()), float(np.abs(samples[:, 2]).max()))
    assert deviation <= 0.050
    seam = float(np.linalg.norm(spline([0.0]) - spline([1.0])))
    assert seam <= 1e-9
    _report(6, f"spline bound, deviation {deviation * 1000:.1f} um, seam {seam:.1e}")


def test_criterion_07_decimation():
    t0 = time.time()
    sphere = icosphere(6, radius=10.0)
    assert sphere.n_faces == 81920
    dec = decimate(sphere, 10000)
    assert abs(dec.n_faces - 10000) <= 50
    from marginline.mesh import extract_boundary_loops

    assert extract_boundary_loops(dec) == []
    rng = np.random.default_rng(5)
    sample = rng.choice(len(dec.barycenters), 500, replace=False)
    _, _, d1 = sphere.bvh().closest_points(dec.barycenters[sample])
    sample = rng.choice(len(sphere.barycenters), 500, replace=False)
    _, _, d2 = dec.bvh().closest_points(sphere.barycenters[sample])
    diag = np.linalg.norm(
        sphere.vertices.max(axis=0) - sphere.vertices.min(axis=0)
    )
    deviation = max(float(np.abs(d1).max()), float(np.abs(d2).max()))
    assert deviation <= 0.01 * diag
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(7, f"decimation to {dec.n_faces} faces in {elapsed:.1f}s")


def test_criterion_08_augmentation_count():
    mesh, _ = frustum_die(segments=16, rows_below=4, rows_above=3)
    labels = np.zeros(mesh.n_faces, dtype=np.int64)
    total = sum(len(augment(mesh, 20, 0, i)) for i in range(41))
    assert total == 861
    _report(8, "41 cases x 20 augmented copies = 861 training samples")


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    data = root / "data"
    run = root / "run"
    generate_benchmark(data, n_cases=20, seed=7)
    config = PipelineConfig(
        target_faces=2000,
        folds=5,
        epochs=50,
        width_scale=0.125,
        batch_size=4,
        seed=0,
    )
    t0 = time.time()
    run_pipeline(load_manifest(data / "manifest.json"), config, run)
    return data, run, time.time() - t0


def test_criterion_09_synthetic_benchmark(benchmark_run):
    data, run, elapsed = benchmark_run
    dice = json.loads((run / "models" / "validation_dice.json").read_text())
    assert len(dice) == 5
    assert all(v >= 0.95 for v in dice.values()), dice
    manifest = load_manifest(data / "manifest.json")
    ok = 0
    for case in manifest:
        from marginline.margin import load_margin_json
        from marginline.meshio import load_mesh
        from marginline.pipeline import _load_transform

        pred, _ = load_margin_json(run / "margins" / f"{case.case_id}_margin.json")
        transform = _load_transform(
            run / "preprocess" / f"{case.case_id}_transform.json"
        )
        truth = transform.apply(load_truth_points(data, case.case_id))
        dec = load_mesh(run / "preprocess" / f"{case.case_id}_decimated.stl")
        edges = dec.vertices[dec.faces[:, [0, 1]]]
        mean_edge = float(np.linalg.norm(edges[:, 0] - edges[:, 1], axis=1).mean())
        if cKDTree(truth).query(pred)[0].max() <= 2.0 * mean_edge:
            ok += 1
    assert ok >= 18
    assert elapsed <= 600.0
    _report(
        9,
        f"benchmark dice min {min(dice.values()):.3f}, "
        f"margins {ok}/20, {elapsed:.0f}s",
    )


def test_criterion_10_ensemble_reductions():
    rng = np.random.default_rng(6)
    field = rng.uniform(0.01, 0.99, size=(40, 2))
    field /= field.sum(axis=1, keepdims=True)
    fields = np.stack([field] * 5)
    for strategy in ("max_probability", "democracy"):
        assert np.array_equal(
            combine(fields, strategy), field.argmax(axis=1)
        )
    # max probability follows the single most confident model
    confident = np.stack(
        [
            np.array([[0.6, 0.4]]),
            np.array([[0.55, 0.45]]),
            np.array([[0.01, 0.99]]),
        ]
    )
    assert combine(confident, "max_probability")[0] == 1
    # democracy follows the majority regardless of confidence
    assert combine(confident, "democracy")[0] == 0
    _report(10, "ensemble reductions match documented rules")


def test_criterion_11_determinism(tmp_path):
    data = tmp_path / "data"
    generate_benchmark(data, n_cases=4, seed=5)
    manifest = load_manifest(data / "manifest.json")
    config = PipelineConfig(
        target_faces=2000,
        folds=2,
        epochs=10,
        width_scale=0.125,
        batch_size=4,
        seed=1,
    )
    outputs = []
    for attempt in ("a", "b"):
        run = tmp_path / f"run_{attempt}"
        run_pipeline(manifest, config, run)
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted((run / "margins").glob("*_margin.json"))
            }
        )
    assert outputs[0].keys() == outputs[1].keys()
    assert len(outputs[0]) == 4
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    _report(11, "same-seed reruns produce byte-identical margin JSON")


def test_criterion_12_real_data_harness(tmp_path, capsys):
    """Directory-scan dataset layout (no manifest) through the CLI; only
    completion and the report shape are asserted, never accuracy."""
    data = tmp_path / "dataset"
    generate_benchmark(data, n_cases=3, seed=9)
    (data / "manifest.json").unlink()  # force the bare-directory layout
    run = tmp_path / "run"
    code = cli_main(
        [
            "pipeline",
            "--manifest", str(data),
            "--run-dir", str(run),
            "--target-faces", "2000",
            "--folds", "2",
            "--epochs", "10",
            "--scale", "0.125",
            "--seed", "2",
        ]
    )
    capsys.readouterr()
    assert code == 0
    import csv

    with open(run / "evaluation" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for column in ("case_id", "rating", "max_um", "mean_um", "std_um", "success"):
        assert column in rows[0]
    _report(12, "directory-layout dataset emits the case report CSV")
