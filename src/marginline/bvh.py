"""Exact closest-point queries against a triangle mesh, answered in
batches over k-d trees of the triangle centroids.

Every triangle T has a centroid c and a radius r (the largest
centroid-to-vertex distance), and every point of T lies within r of c.
So if some triangle is at distance `ub` from a query q, the closest
triangle has its centroid within `ub + r` of q. A query therefore runs in
two passes:

1. the exact distance to the triangle of q's nearest centroid in each
   bucket (see below) gives the upper bound `ub`;
2. every triangle whose centroid lies within `ub + r` of q, with r the
   largest radius of its bucket, is gathered as array rows: one k-nearest
   query per batch and bucket, as wide as the batch's widest query and
   masked by each query's own radius. Triangles farther than `ub` plus
   their own radius are dropped, and one vectorized
   `closest_point_on_triangles` call over the remaining (query,
   candidate) pairs picks the winner.

Triangle sizes vary across a scan (large cap faces beside fine side
rows), and one radius for all would sweep in far too many small
triangles. Triangles are therefore bucketed by `floor(log2(r / r_max))`,
each bucket with its own tree and its own largest radius.

Ties: among equally distant triangles the lowest face id wins, so the
answer does not depend on tree layout and equals `brute_force_closest`.
A caller may pass a per-face `tie_score` instead: then among the faces
within `TIE_MM` of the closest, the highest score wins (lowest id after
that). `TIE_MM` is 1e-4 mm: above the rounding of coordinates read
from a float32 STL (≈1e-6 mm at a die's size), so that a point on an
edge ties its two faces however each was rounded, and far below a
face's size (≈0.1 mm), so that no face of the next row ties.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

TIE_MM = 1e-4
_MAX_LEVELS = 5  # radius buckets: r_max / 2**k for k < _MAX_LEVELS
_MAX_PAIRS = 1 << 16  # (query, triangle) pairs per vectorized batch
_SLACK = 1.0 + 1e-9  # keeps rounding in the tree's distances from dropping a face


def closest_point_on_triangles(p, a, b, c):
    """Closest point to `p` on each triangle (a[i], b[i], c[i]).

    Vectorized version of the standard region-test algorithm (Ericson,
    Real-Time Collision Detection). Returns (points (n,3), sqdist (n,)).
    """
    p = np.asarray(p, dtype=np.float64)
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    out = np.empty_like(a)
    done = np.zeros(len(a), dtype=bool)

    # vertex regions
    m = (d1 <= 0) & (d2 <= 0)
    out[m] = a[m]
    done |= m
    m = (~done) & (d3 >= 0) & (d4 <= d3)
    out[m] = b[m]
    done |= m
    m = (~done) & (d6 >= 0) & (d5 <= d6)
    out[m] = c[m]
    done |= m

    # edge AB
    vc = d1 * d4 - d3 * d2
    m = (~done) & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = d1 - d3
    t = np.where(denom != 0, d1 / np.where(denom != 0, denom, 1.0), 0.0)
    out[m] = a[m] + t[m, None] * ab[m]
    done |= m

    # edge AC
    vb = d5 * d2 - d1 * d6
    m = (~done) & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = d2 - d6
    t = np.where(denom != 0, d2 / np.where(denom != 0, denom, 1.0), 0.0)
    out[m] = a[m] + t[m, None] * ac[m]
    done |= m

    # edge BC
    va = d3 * d6 - d5 * d4
    m = (~done) & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4 - d3) + (d5 - d6)
    t = np.where(denom != 0, (d4 - d3) / np.where(denom != 0, denom, 1.0), 0.0)
    out[m] = b[m] + t[m, None] * (c[m] - b[m])
    done |= m

    # interior
    m = ~done
    denom = va + vb + vc
    safe = np.where(denom != 0, denom, 1.0)
    v = vb / safe
    w = vc / safe
    out[m] = a[m] + v[m, None] * ab[m] + w[m, None] * ac[m]

    d = out - p
    return out, np.einsum("ij,ij->i", d, d)


def brute_force_closest(vertices, faces, query):
    """Reference exhaustive closest point; used as the oracle in tests."""
    tri = vertices[faces]
    pts, sq = closest_point_on_triangles(query, tri[:, 0], tri[:, 1], tri[:, 2])
    i = int(np.argmin(sq))
    return pts[i], i, float(np.sqrt(sq[i]))


class TriangleBVH:
    """Exact closest-point index over a triangle mesh: one centroid k-d tree
    per triangle-size bucket (the class name predates the k-d trees).
    Immutable and safe to share after build."""

    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.faces = np.asarray(faces, dtype=np.int64)
        self._tri = self.vertices[self.faces]
        centroids = self._tri.mean(axis=1)
        radius = np.linalg.norm(self._tri - centroids[:, None], axis=2).max(axis=1)
        rel = np.maximum(radius / (radius.max() or 1.0), 2.0 ** (1 - _MAX_LEVELS))
        level = np.floor(np.log2(rel))
        self._radius = radius
        self._buckets = []
        for lv in np.unique(level):
            ids = np.flatnonzero(level == lv)
            self._buckets.append((cKDTree(centroids[ids]), ids, radius[ids].max()))

    def closest_points(self, queries, tie_score=None):
        """Batched exact closest points; returns (points (n,3), faces (n,),
        dists (n,)).

        tie_score: optional per-face array. Among the faces within TIE_MM
        of the closest distance, the one with the highest score wins.
        Without it, exact ties go to the lowest face id."""
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        n = len(queries)
        pts = np.empty_like(queries)
        faces = np.empty(n, dtype=np.int64)
        dists = np.empty(n)
        if n == 0:
            return pts, faces, dists

        # pass 1: exact distance to the triangle of each bucket's nearest
        # centroid
        ub = np.empty(n)
        for s in _batches(np.ones((len(self._buckets), n)), _MAX_PAIRS):
            q = queries[s]
            near = np.stack(
                [ids[tree.query(q)[1]] for tree, ids, _ in self._buckets], axis=1
            )
            qi = np.repeat(np.arange(len(q)), near.shape[1])
            _, _, ub[s] = self._select(q, qi, near.ravel(), None)

        # pass 2: every triangle whose centroid lies within ub + r, with r
        # its bucket's largest radius, gathered per bucket in rows as wide
        # as the batch's widest query; queries go in order of their
        # candidate count, so that the rows of a batch are of about one
        # width. Only the triangles that are within ub + r of the query by
        # their own radius r go on to the exact distance.
        tol = 0.0 if tie_score is None else TIE_MM
        reach = ub + tol
        radii = np.stack([(reach + r) * _SLACK for _, _, r in self._buckets])
        counts = np.stack(
            [
                tree.query_ball_point(queries, rad, return_length=True)
                for (tree, _, _), rad in zip(self._buckets, radii)
            ]
        )
        order = np.argsort(counts.sum(axis=0), kind="stable")
        for s in _batches(counts[:, order], _MAX_PAIRS):
            rows = order[s]
            q = queries[rows]
            qi, fi = [], []
            for (tree, ids, _), rad, cnt in zip(self._buckets, radii, counts):
                if not cnt[rows].any():
                    continue
                row, node, d = _within(tree, q, rad[rows], cnt[rows])
                face = ids[node]
                keep = d <= (reach[rows][row] + self._radius[face]) * _SLACK
                qi.append(row[keep])
                fi.append(face[keep])
            pts[rows], faces[rows], dists[rows] = self._select(
                q, np.concatenate(qi), np.concatenate(fi), tie_score
            )
        return pts, faces, dists

    def _select(self, q, qi, fi, tie_score):
        """Winner per query over the (query qi, face fi) pairs; every query
        must have at least one pair."""
        tri = self._tri[fi]
        cand, sq = closest_point_on_triangles(q[qi], tri[:, 0], tri[:, 1], tri[:, 2])
        order = np.lexsort((fi, sq, qi))
        first = order[_run_starts(qi[order])]
        if tie_score is not None:
            d = np.sqrt(sq)
            near = d <= d[first][qi] + TIE_MM
            order = np.lexsort((fi, -np.asarray(tie_score)[fi], ~near, qi))
            first = order[_run_starts(qi[order])]
        return cand[first], fi[first], np.sqrt(sq[first])


def _run_starts(sorted_keys):
    """Index of the first element of each run of equal sorted keys."""
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def _within(tree, q, rad, counts):
    """(row of q, tree index, distance) of every centroid within rad[row]
    of q[row]; row i holds counts[i] of them. One k-nearest query as wide
    as the widest row, masked by each row's radius."""
    width = int(counts.max())
    d, node = tree.query(q, k=width, distance_upper_bound=rad.max())
    d, node = d.reshape(len(q), width), node.reshape(len(q), width)
    hit = d <= rad[:, None]
    return np.nonzero(hit)[0], node[hit], d[hit]


def _batches(widths, cap):
    """Consecutive slices of the queries, given each query's width per
    row of `widths` ((n,) or (rows, n)): a slice's queries times the sum
    over rows of its widest query stays within `cap`, and a slice always
    holds at least one query."""
    widths = np.atleast_2d(widths)
    n = widths.shape[1]
    start = 0
    while start < n:
        # widths only grow along a slice, so `cap` bounds its length
        first = widths[:, start].sum()
        window = widths[:, start : start + int(cap // max(first, 1)) + 1]
        padded = np.maximum.accumulate(window, axis=1).sum(axis=0)
        padded = padded * np.arange(1, window.shape[1] + 1)
        stop = start + max(1, int(np.searchsorted(padded, cap, side="right")))
        yield slice(start, stop)
        start = stop
