"""Periodic cubic smoothing splines for closed 3D loops.

The fit is penalized least squares on a periodic cubic B-spline basis
with dense uniform knots: minimize sum of squared residuals plus
lambda * integral of |f''|^2. The penalty weight is picked by
generalized cross-validation and then reduced, by bisection, whenever
the smoothness bound s = 0.005 (N - sqrt(2N)) on the total squared
residual would be violated.

The basis is evaluated here in numpy rather than with
`scipy.interpolate.BSpline`: importing `scipy.interpolate` also loads
`scipy.optimize`, `integrate`, `ndimage` and `fft`, about 30 MB of
resident memory and half a second of every start. `_basis` repeats the
recursion of scipy's `_deBoor_D` step for step, and the evaluation sums
in scipy's order, so fits and samples are bit-identical to scipy's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SplineFitError

DEGREE = 3


def smoothness_bound(n_points):
    """Residual budget in mm^2: 0.005 (N - sqrt(2N))."""
    n = float(n_points)
    return 0.005 * (n - np.sqrt(2.0 * n))


def chord_length_params(points):
    """Closed-loop chord-length parameterization mapped to [0, 1)."""
    points = np.asarray(points, dtype=np.float64)
    seg = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
    total = seg.sum()
    if total <= 0:
        raise SplineFitError("degenerate input: zero total chord length")
    return np.concatenate([[0.0], np.cumsum(seg[:-1])]) / total


def _knots(n_coef):
    """Uniform knots of the n_coef-dimensional periodic cubic basis: the
    base interval [0, 1] plus DEGREE knots beyond each end."""
    return np.arange(-DEGREE, n_coef + DEGREE + 1) / n_coef


def _basis(x, knots, nu):
    """The nu-th derivatives of the DEGREE + 1 basis functions that are
    nonzero at each x in [knots[DEGREE], knots[-DEGREE - 1]], and each
    x's knot interval l, with knots[l] <= x < knots[l + 1] (the last
    interval also takes the right end). Column a of the (len(x), 4)
    values belongs to basis function l - DEGREE + a.

    Cox-de Boor in the order of scipy's `_deBoor_D`: DEGREE - nu value
    steps, then nu derivative steps. The knots must be strictly
    increasing."""
    k = DEGREE
    ell = np.searchsorted(knots, x, side="right") - 1
    ell = np.clip(ell, k, len(knots) - k - 2)
    h = np.zeros((len(x), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            xb = knots[ell + n]
            xa = knots[ell + n - j]
            if j <= k - nu:
                w = hh[:, n - 1] / (xb - xa)
                h[:, n - 1] += w * (xb - x)
                h[:, n] = w * (x - xa)
            else:
                w = j * hh[:, n - 1] / (xb - xa)
                h[:, n - 1] -= w
                h[:, n] = w
    return h, ell


def _periodic_design(t, n_coef):
    """Design matrix of the n_coef-dimensional periodic cubic basis on
    [0, 1), evaluated at parameters t (flattened, values wrapped mod 1)."""
    x = np.mod(np.ravel(np.asarray(t, dtype=np.float64)), 1.0)
    values, ell = _basis(x, _knots(n_coef), 0)
    cols = (ell[:, None] + np.arange(-DEGREE, 1)) % n_coef
    design = np.zeros((len(x), n_coef))
    design[np.arange(len(x))[:, None], cols] = values
    return design


def _curvature_penalty(n_coef):
    """Gram matrix of second derivatives of the periodic basis; exact via
    2-point Gauss quadrature (integrands are quadratic per interval)."""
    k = DEGREE
    n_all = n_coef + k
    h = 1.0 / n_coef
    gauss = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    xs = (np.arange(n_coef)[:, None] + gauss[None, :]).ravel() / n_coef
    values, ell = _basis(xs, _knots(n_coef), 2)
    d2 = np.zeros((len(xs), n_all))
    d2[np.arange(len(xs))[:, None], ell[:, None] + np.arange(-k, 1)] = values
    w = np.tile(0.5 * h, len(xs))
    gram = (d2 * w[:, None]).T @ d2
    wrap = np.arange(n_all) % n_coef
    folded = np.zeros((n_coef, n_coef))
    np.add.at(folded, (wrap[:, None], wrap[None, :]), gram)
    return folded


@dataclass
class SmoothingSpline:
    """Closed periodic cubic B-spline fit of an ordered point loop."""

    coefficients: np.ndarray  # (n_coef, 3) control points, mm
    n_coef: int
    bound: float  # residual budget s actually enforced, mm^2
    residual: float  # achieved sum of squared residuals, mm^2
    penalty_weight: float

    def __call__(self, t):
        """Evaluate at parameters t in [0, 1) (wrapped); shape
        t.shape + (3,)."""
        t = np.asarray(t, dtype=np.float64)
        x = np.mod(t.ravel(), 1.0)
        x[x == 1.0] = 0.0  # mod's answer for a tiny negative t
        values, ell = _basis(x, _knots(self.n_coef), 0)
        out = np.zeros((len(x), 3))
        for a in range(DEGREE + 1):
            coef = self.coefficients[(ell - DEGREE + a) % self.n_coef]
            out = out + coef * values[:, a, None]
        return out.reshape(t.shape + (3,))

    def sample(self, n):
        return self(np.arange(n) / n)


def _gcv_solve(design, penalty, targets):
    """lambda by GCV over a log grid; returns solver closure and pick."""
    btb = design.T @ design
    bty = design.T @ targets
    yty = np.einsum("ij,ij->", targets, targets)
    n = design.shape[0]
    ridge = 1e-12 * np.trace(btb) / len(btb)
    btb = btb + ridge * np.eye(len(btb))

    # generalized eigendecomposition makes per-lambda work O(m)
    chol = np.linalg.cholesky(btb)
    inv_chol = np.linalg.inv(chol)
    sym = inv_chol @ penalty @ inv_chol.T
    gamma, q = np.linalg.eigh((sym + sym.T) / 2.0)
    gamma = np.maximum(gamma, 0.0)
    z = q.T @ (inv_chol @ bty)  # (m, 3)
    z2 = np.einsum("ij,ij->i", z, z)

    def stats(lam):
        shrink = 1.0 / (1.0 + lam * gamma)
        rss = yty - (2.0 * shrink - shrink**2) @ z2
        edf = shrink.sum()
        return max(rss, 0.0), edf

    def solve(lam):
        shrink = 1.0 / (1.0 + lam * gamma)
        coef = inv_chol.T @ (q @ (shrink[:, None] * z))
        return coef

    scale = np.trace(btb) / max(np.trace(penalty), 1e-30)
    grid = scale * np.logspace(-16, 4, 81)
    scores = []
    for lam in grid:
        rss, edf = stats(lam)
        denom = max(n - edf, 1e-9)
        scores.append(n * rss / denom**2)
    best = min(scores)
    # near-ties (flat GCV) resolve toward fidelity, not smoothness
    best_lam = next(
        lam for lam, s in zip(grid, scores) if s <= best * (1.0 + 1e-3)
    )
    return solve, stats, best_lam


def fit_smoothing_spline(points) -> SmoothingSpline:
    """Fit a periodic cubic smoothing spline through an ordered closed
    loop of >= 8 points. The total squared residual never exceeds the
    bound s = 0.005 (N - sqrt(2N)) by more than 5%."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 8:
        raise SplineFitError(f"need at least 8 points, got {n}")
    sv = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    if np.count_nonzero(sv > 1e-9 * max(sv[0], 1e-30)) < 2:
        raise SplineFitError("degenerate (collinear) input points")
    t = chord_length_params(points)
    n_coef = int(np.clip(n // 2, 8, 256))  # at most n, as n >= 8
    bound = smoothness_bound(n)

    while True:
        design = _periodic_design(t, n_coef)
        penalty = _curvature_penalty(n_coef)
        solve, stats, lam = _gcv_solve(design, penalty, points)

        rss, _ = stats(lam)
        if rss > bound:
            # GCV smoothed too hard for the budget; bisect lambda down
            lo, hi = 0.0, lam
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if stats(mid)[0] > bound:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-12 * max(hi, 1.0):
                    break
            lam = lo
            rss, _ = stats(lam)
        if rss <= bound * 1.05:
            break
        # rough data: keep adding control points until the bound is
        # satisfiable, like knot-insertion in classic smoothing fits
        if n_coef >= min(n, 256):
            raise SplineFitError(
                f"cannot meet residual bound {bound:.6g} mm^2 "
                f"(best {rss:.6g} with {n_coef} control points)"
            )
        n_coef = min(n_coef * 2, n, 256)
    coef = solve(lam)
    return SmoothingSpline(
        coefficients=coef,
        n_coef=n_coef,
        bound=bound,
        residual=float(rss),
        penalty_weight=float(lam),
    )
