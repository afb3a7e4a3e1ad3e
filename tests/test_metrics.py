"""Tests for segmentation metrics, distance statistics, success
classification and rank correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# the oracle for spearman; the package does not import scipy.stats
from scipy.stats import spearmanr

from marginline import metrics
from marginline.errors import MetricError
from marginline.metrics import (
    REPORT_COLUMNS,
    aggregate,
    closed_polyline_distance,
    evaluate_case,
    margin_distance_stats,
    segmentation_metrics,
    spearman,
)

# Published reference data: 13 cases with visual ratings (out of 4) and
# mean margin distances in micrometers.
REFERENCE_RATINGS = [2.5, 3, 2, 2, 2, 3, 3, 2, 2, 3, 2, 2, 4]
REFERENCE_MEAN_UM = [63, 72, 98, 74, 73, 42, 43, 82, 84, 74, 95, 61, 57]


def test_segmentation_metric_formulas():
    pred = np.array([1, 1, 1, 0, 0, 0, 1, 0])
    truth = np.array([1, 1, 0, 0, 1, 0, 1, 1])
    counts, dsc, sen, ppv = segmentation_metrics(pred, truth)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (3, 1, 2, 2)
    assert dsc == pytest.approx(2 * 3 / (2 * 3 + 1 + 2))
    assert sen == pytest.approx(3 / 5)
    assert ppv == pytest.approx(3 / 4)


def test_dsc_is_harmonic_mean_of_sen_and_ppv():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 50
        pred = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        _, dsc, sen, ppv = segmentation_metrics(pred, truth)
        if sen > 0 and ppv > 0:
            assert dsc == pytest.approx(2 * sen * ppv / (sen + ppv))


def test_vacuous_conventions():
    zeros = np.zeros(10, dtype=int)
    ones = np.ones(10, dtype=int)
    # nothing positive anywhere: vacuously perfect
    _, dsc, sen, ppv = segmentation_metrics(zeros, zeros)
    assert (dsc, sen, ppv) == (1.0, 1.0, 1.0)
    # all predictions wrong: everything zero
    _, dsc, sen, ppv = segmentation_metrics(ones, zeros)
    assert dsc == 0.0 and ppv == 0.0
    _, dsc, sen, ppv = segmentation_metrics(zeros, ones)
    assert dsc == 0.0 and sen == 0.0


def test_length_mismatch_raises():
    with pytest.raises(MetricError):
        segmentation_metrics(np.zeros(5, int), np.zeros(6, int))


def test_distance_stats_translation():
    theta = np.linspace(0.0, 2 * np.pi, 300, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], 1)
    shifted = circle + np.array([0.0, 0.0, 0.05])  # 50 um up
    stats = margin_distance_stats(shifted, circle)
    assert stats["max_um"] == pytest.approx(50.0, rel=1e-6)
    assert stats["mean_um"] == pytest.approx(50.0, rel=1e-6)
    assert stats["std_um"] == pytest.approx(0.0, abs=1e-9)


def test_distance_stats_asymmetry():
    # truth has an extra far point that no predicted point is near
    pred = np.zeros((4, 3))
    truth = np.vstack([np.zeros((4, 3)), [[0.0, 0.0, 1.0]]])
    stats = margin_distance_stats(pred, truth)
    assert stats["max_um"] == 0.0


def test_distance_to_sparse_ngon_truth_is_to_its_edges():
    """A dense prediction 30 um outside every edge of a 12-gon truth: the
    distance is to the truth curve, not to its 12 vertices (up to
    ~1.3 mm away)."""
    n, radius, offset = 12, 5.0, 0.03
    corners = radius * np.stack(
        [np.cos(2 * np.pi * np.arange(n) / n), np.sin(2 * np.pi * np.arange(n) / n),
         np.zeros(n)], axis=1
    )
    pred = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        out = (a + b) / np.linalg.norm(a + b)  # outward normal of the edge
        for t in np.linspace(0.0, 1.0, 200, endpoint=False)[1:]:
            pred.append(a + t * (b - a) + offset * out)
    stats = margin_distance_stats(np.asarray(pred), corners)
    assert stats["max_um"] == pytest.approx(30.0, rel=1e-9)
    assert stats["mean_um"] == pytest.approx(30.0, rel=1e-9)


def test_closed_polyline_distance_matches_pairwise_loop(monkeypatch):
    rng = np.random.default_rng(5)
    loop = rng.normal(size=(9, 3))
    loop[4] = loop[3]  # a zero-length segment
    along = rng.integers(0, len(loop), 40)
    on_loop = loop[along] + rng.random((40, 1)) * (np.roll(loop, -1, axis=0)[along] - loop[along])
    points = np.concatenate([
        rng.normal(size=(50, 3)) * 2.0,  # near and far
        on_loop + rng.normal(scale=1e-3, size=on_loop.shape),  # beside a segment
    ])
    monkeypatch.setattr(metrics, "_PAIRS_PER_CHUNK", 20)  # 2 points a chunk
    got = closed_polyline_distance(points, loop)
    for p, d in zip(points, got):
        best = np.inf
        for a, b in zip(loop, np.roll(loop, -1, axis=0)):
            ab = b - a
            t = 0.0 if not ab.any() else np.clip((p - a) @ ab / (ab @ ab), 0, 1)
            best = min(best, np.linalg.norm(p - (a + t * ab)))
        assert d == pytest.approx(best, abs=1e-12)


def test_distance_stats_empty_raises():
    with pytest.raises(MetricError):
        margin_distance_stats(np.zeros((0, 3)), np.zeros((5, 3)))


def test_spearman_reference_correlation():
    r, p = spearman(REFERENCE_RATINGS, REFERENCE_MEAN_UM)
    assert r == pytest.approx(-0.683, abs=0.005)
    assert p == pytest.approx(0.010, abs=0.003)


def test_spearman_monotone_invariance():
    x = np.array(REFERENCE_RATINGS)
    y = np.array(REFERENCE_MEAN_UM, dtype=float)
    r0, _ = spearman(x, y)
    r1, _ = spearman(x, np.exp(y / 50.0))  # strictly increasing transform
    assert r1 == pytest.approx(r0, abs=1e-12)


def test_spearman_guards():
    with pytest.raises(MetricError):
        spearman([1, 2], [3, 4])
    with pytest.raises(MetricError):
        spearman([1, 1, 1], [3, 4, 5])
    # a NaN would sort last and give a finite, wrong rho
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MetricError, match="non-finite"):
            spearman([1, 2, bad, 4], [3, 4, 5, 6])
        with pytest.raises(MetricError, match="non-finite"):
            spearman([1, 2, 3, 4], [3, 4, 5, bad])


@pytest.mark.parametrize(
    "x, y",
    [
        (REFERENCE_RATINGS, REFERENCE_MEAN_UM),
        (REFERENCE_MEAN_UM, REFERENCE_RATINGS),
        ([1, 2, 2, 3, 3, 3], [4, 4, 1, 2, 2, 9]),
        ([1.0, 2.0, 3.0], [2.0, 1.0, 5.0]),
        ([1, 2, 3, 4], [10, 20, 30, 40]),
        ([1, 2, 3, 4], [4, 3, 2, 1]),
        ([2, 2, 1], [3, 3, 1]),
    ],
    ids=["ties", "reversed", "ties both", "n=3", "rho=1", "rho=-1", "n=3 ties rho=1"],
)
def test_spearman_matches_scipy(x, y):
    expected = spearmanr(x, y)
    r, p = spearman(x, y)
    assert r == pytest.approx(expected.statistic, abs=1e-12)
    assert p == pytest.approx(expected.pvalue, abs=1e-12)
    if abs(r) == 1.0:
        assert p == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_spearman_bounds(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=10)
    y = rng.normal(size=10)
    r, p = spearman(x, y)
    assert -1.0 <= r <= 1.0
    assert 0.0 <= p <= 1.0
    expected = spearmanr(x, y)
    assert r == pytest.approx(expected.statistic, abs=1e-12)
    assert p == pytest.approx(expected.pvalue, abs=1e-12)


def test_success_threshold():
    theta = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], 1)
    near = evaluate_case(
        pred_margin_points=circle + [0, 0, 0.1],
        truth_margin_points=circle,
        case_id="near",
    )
    far = evaluate_case(
        pred_margin_points=circle + [0, 0, 0.264],
        truth_margin_points=circle,
        case_id="far",
    )
    assert near["success"] is True
    assert far["success"] is False


def test_evaluate_case_partial_inputs():
    row = evaluate_case(
        pred_labels=np.array([1, 0, 1]),
        truth_labels=np.array([1, 0, 0]),
        case_id="labels-only",
        rating=3.0,
    )
    assert row["mean_um"] is None and row["success"] is None
    assert row["dsc"] is not None
    assert list(row) == list(REPORT_COLUMNS)
    assert row["case_id"] == "labels-only"
    assert row["rating"] == 3.0
    assert row["max_um"] is None


def test_aggregate():
    evals = [
        evaluate_case(
            pred_labels=np.array([1, 1, 0, 0]),
            truth_labels=np.array([1, 0, 0, 0]),
            pred_margin_points=np.zeros((3, 3)),
            truth_margin_points=np.zeros((3, 3)),
            case_id=f"c{i}",
        )
        for i in range(3)
    ]
    out = aggregate(evals)
    assert out["n_cases"] == 3
    assert out["success_count"] == 3
    assert out["dsc_mean"] == pytest.approx(2 / 3)
    assert out["max_um_mean"] == 0.0
