"""Segmentation metrics, margin distance statistics, success
classification and rank correlation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import stdtr

from .errors import MetricError

# a case succeeds within this max distance, the paper's "human error"
SUCCESS_THRESHOLD_UM = 200.0
REPORT_COLUMNS = (
    "case_id", "rating", "dsc", "sen", "ppv",
    "max_um", "mean_um", "std_um", "success",
)


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def _safe_ratio(num, den, vacuous_perfect):
    if den == 0:
        return 1.0 if vacuous_perfect else 0.0
    return num / den


def segmentation_metrics(pred, truth):
    """(ConfusionCounts, DSC, SEN, PPV) over per-face binary labels.

    Zero denominators: a metric is 1 when there are no positives anywhere
    to miss (vacuously perfect), 0 otherwise."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise MetricError(
            f"label length mismatch: {pred.shape} vs {truth.shape}"
        )
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    tn = int(np.sum((pred == 0) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    counts = ConfusionCounts(tp, fp, tn, fn)
    no_pos = tp + fp + fn == 0
    dsc = _safe_ratio(2 * tp, 2 * tp + fp + fn, no_pos)
    sen = _safe_ratio(tp, tp + fn, tp + fn == 0 and fp == 0)
    ppv = _safe_ratio(tp, tp + fp, tp + fp == 0 and fn == 0)
    return counts, dsc, sen, ppv


_PAIRS_PER_CHUNK = 1 << 18


def closed_polyline_distance(points, loop):
    """Exact distance from each point to the closed polyline through
    `loop` (its last point joined to its first), in the input units.

    A segment's closest point lies within half the segment's length of
    one of its ends, so only segments with an end within (distance to the
    nearest loop point + half the longest segment) can be closest; those
    are found with a k-d tree. Points go in chunks of at most 2**18 //
    len(loop), which bounds the pairs of a chunk."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    a = np.asarray(loop, dtype=np.float64).reshape(-1, 3)
    ab = np.roll(a, -1, axis=0) - a
    ab_sq = np.einsum("ij,ij->i", ab, ab)
    inv = np.divide(1.0, ab_sq, out=np.zeros_like(ab_sq), where=ab_sq > 0)
    tree = cKDTree(a)
    reach = (tree.query(points)[0] + 0.5 * np.sqrt(ab_sq.max())) * (1 + 1e-9)
    out = np.full(len(points), np.inf)
    chunk = max(1, _PAIRS_PER_CHUNK // len(a))
    for lo in range(0, len(points), chunk):
        near = tree.query_ball_point(points[lo:lo + chunk], reach[lo:lo + chunk])
        ends = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64)
        owner = lo + np.repeat(np.arange(len(near)), [len(n) for n in near])
        seg = np.concatenate([ends, (ends - 1) % len(a)])  # both segments at each end
        owner = np.concatenate([owner, owner])
        ap = points[owner] - a[seg]
        t = np.clip(np.einsum("ij,ij->i", ap, ab[seg]) * inv[seg], 0.0, 1.0)
        gap = ap - t[:, None] * ab[seg]
        np.minimum.at(out, owner, np.einsum("ij,ij->i", gap, gap))
    return np.sqrt(out)


def margin_distance_stats(pred_points, truth_points):
    """Max, mean and std (`max_um`, `mean_um`, `std_um`) of the distances
    from the predicted points to the truth curve, the closed polyline
    through `truth_points` in order. Inputs are mm; the stats are in
    micrometers."""
    pred_points = np.asarray(pred_points, dtype=np.float64)
    truth_points = np.asarray(truth_points, dtype=np.float64)
    if len(pred_points) == 0 or len(truth_points) == 0:
        raise MetricError("empty point cloud")
    d_pt = closed_polyline_distance(pred_points, truth_points) * 1000.0
    return {
        "max_um": float(d_pt.max()),
        "mean_um": float(d_pt.mean()),
        "std_um": float(d_pt.std()),
    }


def _average_ranks(a):
    """1-based ranks of a, each tie given the mean of the ranks it spans."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.r_[np.flatnonzero(starts), len(a)]
    mean_rank = 0.5 * (bounds[:-1] + bounds[1:] + 1)
    ranks = np.empty(len(a))
    ranks[order] = mean_rank[np.cumsum(starts) - 1]
    return ranks


def spearman(x, y):
    """Spearman rank correlation with average ranks for ties: Pearson's r
    of the ranks, and its two-sided p-value from Student's t with n - 2
    degrees of freedom (0 when |r| = 1)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 3:
        raise MetricError("need two equal-length vectors of length >= 3")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise MetricError("correlation undefined for non-finite values")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise MetricError("correlation undefined for a constant vector")
    r = np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0]
    dof = len(x) - 2
    with np.errstate(divide="ignore"):
        t = r * np.sqrt(max(dof / ((r + 1.0) * (1.0 - r)), 0.0))
    return float(r), float(2.0 * stdtr(dof, -abs(t)))


def evaluate_case(
    pred_labels=None,
    truth_labels=None,
    pred_margin_points=None,
    truth_margin_points=None,
    case_id="",
    rating=None,
):
    """This case's report row, a dict keyed by REPORT_COLUMNS in order;
    success iff max distance <= SUCCESS_THRESHOLD_UM. The columns of a
    missing input pair are None."""
    row = dict.fromkeys(REPORT_COLUMNS)
    row.update(case_id=case_id, rating=rating)
    if pred_labels is not None and truth_labels is not None:
        _, row["dsc"], row["sen"], row["ppv"] = segmentation_metrics(
            pred_labels, truth_labels
        )
    if pred_margin_points is not None and truth_margin_points is not None:
        row.update(margin_distance_stats(pred_margin_points, truth_margin_points))
        row["success"] = bool(row["max_um"] <= SUCCESS_THRESHOLD_UM)
    return row


def aggregate(rows):
    """Means and stds over the report rows plus the success count."""
    def _stats(values):
        values = [v for v in values if v is not None]
        if not values:
            return None, None
        return float(np.mean(values)), float(np.std(values))

    out = {}
    for key in ("dsc", "sen", "ppv", "max_um", "mean_um", "std_um"):
        out[key + "_mean"], out[key + "_std"] = _stats([row[key] for row in rows])
    out["success_count"] = sum(1 for row in rows if row["success"])
    out["n_cases"] = len(rows)
    return out
