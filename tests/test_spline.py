import numpy as np
import pytest
from numpy.testing import assert_allclose

# the oracle for the hand-written basis; the package does not import it
from scipy.interpolate import BSpline

from marginline.errors import SplineFitError
from marginline.spline import (
    SmoothingSpline,
    _curvature_penalty,
    _knots,
    _periodic_design,
    fit_smoothing_spline,
    smoothness_bound,
)

N_COEFS = [8, 9, 50, 256]


def _circle(n, radius=4.0, noise=0.0, seed=0, z=2.0):
    rng = np.random.default_rng(seed)
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), np.full(n, z)], axis=1
    )
    if noise:
        pts += rng.normal(scale=noise, size=pts.shape)
    return pts


def test_residual_budget_formula():
    assert smoothness_bound(5000) == pytest.approx(24.5, abs=1e-12)
    assert smoothness_bound(200) == pytest.approx(0.005 * (200 - 20), rel=1e-12)


def test_exact_circle_near_interpolation():
    pts = _circle(256)
    spline = fit_smoothing_spline(pts)
    samples = spline.sample(2000)
    r = np.linalg.norm(samples[:, :2], axis=1)
    assert np.abs(r - 4.0).max() < 1e-6
    assert np.abs(samples[:, 2] - 2.0).max() < 1e-6


def test_noisy_circle_meets_bound_and_stays_close():
    noise = 0.020  # 20 um
    pts = _circle(200, noise=noise, seed=42)
    spline = fit_smoothing_spline(pts)
    assert spline.residual <= smoothness_bound(200) * 1.05
    samples = spline.sample(4000)
    dev = np.abs(np.linalg.norm(samples[:, :2], axis=1) - 4.0)
    dev = np.maximum(dev, np.abs(samples[:, 2] - 2.0))
    assert dev.max() < 0.050  # 50 um


def test_periodicity_is_seamless():
    pts = _circle(128, noise=0.01, seed=7)
    spline = fit_smoothing_spline(pts)
    assert np.allclose(spline(0.0), spline(1.0), atol=1e-9)
    # first derivative continuity across the seam via small steps
    eps = 1e-7
    before = (spline(1.0) - spline(1.0 - eps)) / eps
    after = (spline(eps) - spline(0.0)) / eps
    assert np.allclose(before, after, atol=1e-4)


def test_sampling_count_and_closure():
    spline = fit_smoothing_spline(_circle(64))
    samples = spline.sample(5000)
    assert samples.shape == (5000, 3)
    # parameter-uniform samples of a closed curve do not repeat the seam
    assert np.linalg.norm(samples[0] - samples[-1]) > 1e-6


def test_rough_loop_escalates_control_points():
    rng = np.random.default_rng(5)
    pts = _circle(40, noise=0.15, seed=5)
    spline = fit_smoothing_spline(pts)
    # default budget is n // 2; roughness forces more flexibility
    assert spline.residual <= smoothness_bound(40) * 1.05


def test_input_validation():
    with pytest.raises(SplineFitError):
        fit_smoothing_spline(_circle(7))
    line = np.stack([np.linspace(0, 1, 30)] * 3, axis=1)
    with pytest.raises(SplineFitError):
        fit_smoothing_spline(line)


def _oracle_params(n_coef):
    """Random parameters, every knot of [0, 1), and the ends 0 and 1 - 2**-53."""
    rng = np.random.default_rng(n_coef)
    on_knots = np.arange(n_coef) / n_coef
    return np.concatenate([rng.random(101), on_knots, [0.0, 1.0 - 2.0**-53]])


def _fold(n_coef):
    """(n_coef + 3, n_coef) map of scipy's basis functions onto the
    periodic ones: function j joins function j mod n_coef."""
    return np.eye(n_coef + 3, n_coef) + np.eye(n_coef + 3, n_coef, -n_coef)


@pytest.mark.parametrize("n_coef", N_COEFS)
def test_design_matches_scipy(n_coef):
    t = _oracle_params(n_coef)
    full = BSpline.design_matrix(t, _knots(n_coef), 3).toarray()
    assert_allclose(_periodic_design(t, n_coef), full @ _fold(n_coef), rtol=1e-14)
    # rows follow t flattened, and parameters wrap mod 1
    assert np.array_equal(_periodic_design(t.reshape(-1, 1), n_coef),
                          _periodic_design(t, n_coef))
    assert np.array_equal(_periodic_design([1.25, -0.75, 2.0], n_coef),
                          _periodic_design([0.25, 0.25, 0.0], n_coef))


@pytest.mark.parametrize("n_coef", N_COEFS)
def test_curvature_penalty_matches_scipy(n_coef):
    gauss = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    xs = ((np.arange(n_coef)[:, None] + gauss) / n_coef).ravel()
    unit = np.eye(n_coef + 3)
    d2 = np.stack(
        [BSpline(_knots(n_coef), unit[j], 3)(xs, nu=2) for j in range(n_coef + 3)],
        axis=1,
    ) @ _fold(n_coef)
    expected = d2.T @ d2 * (0.5 / n_coef)
    # entries that are zero in exact arithmetic come out as rounding
    # noise of the largest, so those are held to the matrix's scale
    assert_allclose(_curvature_penalty(n_coef), expected, rtol=1e-14,
                    atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("n_coef", N_COEFS)
def test_curvature_penalty_is_psd_and_ignores_constants(n_coef):
    penalty = _curvature_penalty(n_coef)
    scale = np.abs(penalty).max()
    assert_allclose(penalty, penalty.T, rtol=0, atol=1e-14 * scale)
    assert np.linalg.eigvalsh(penalty).min() >= -1e-12 * scale
    # a constant curve has no second derivative
    assert np.abs(penalty @ np.ones(n_coef)).max() <= 1e-12 * scale


@pytest.mark.parametrize("n_coef", N_COEFS)
def test_evaluation_matches_scipy(n_coef):
    rng = np.random.default_rng(n_coef + 1)
    coef = rng.normal(size=(n_coef, 3))
    spline = SmoothingSpline(coef, n_coef, 1.0, 1.0, 1.0)
    oracle = BSpline(_knots(n_coef), np.vstack([coef, coef[:3]]), 3,
                     extrapolate="periodic")
    t = _oracle_params(n_coef)
    for params in (t, t[:100].reshape(20, 5), 0.0, 1.0 - 2.0**-53, 0.37, -0.25):
        got = spline(params)
        assert got.shape == np.shape(params) + (3,)
        assert_allclose(got, oracle(params), rtol=1e-14)
