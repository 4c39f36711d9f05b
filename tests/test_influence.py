"""Influence curves and Wald inference, validated against finite differences."""

import numpy as np
import pytest

from confscreen import (
    BasisConfig,
    Dataset,
    ValidationError,
    eic_theta,
    ic_phi,
    ic_psi,
    infer_scores,
    score_covariate,
)
from confscreen import influence
from confscreen._stats import norm_cdf, norm_ppf


def _phi(theta, mu_o, mu_e):
    return theta / mu_e - (mu_o - theta) / (1.0 - mu_e)


def _psi(theta, mu_o, mu_e):
    return (theta / mu_e) / ((mu_o - theta) / (1.0 - mu_e))


def _numeric_gradient(fn, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    grad = np.empty(3)
    for k in range(3):
        hi = point.copy()
        lo = point.copy()
        hi[k] += h
        lo[k] -= h
        grad[k] = (fn(*hi) - fn(*lo)) / (2.0 * h)
    return grad


def test_eic_theta_worked_point():
    val = eic_theta(np.array([1.0]), np.array([1]), np.array([0.5]), np.array([0.5]), 0.25)
    assert val[0] == pytest.approx(0.5, abs=1e-15)


def test_ic_phi_worked_point_zero():
    val = ic_phi(np.array([0.5]), np.array([0.5]), np.array([0.5]), 0.25, 0.5, 0.5)
    assert val[0] == pytest.approx(0.0, abs=1e-14)


def test_ic_phi_matches_finite_differences():
    rng = np.random.default_rng(100)
    for _ in range(100):
        mu_e = rng.uniform(0.15, 0.85)
        mu_o = rng.uniform(0.2, 2.0)
        theta = rng.uniform(0.05, 0.95) * mu_o
        d = rng.normal(size=3)
        grad = _numeric_gradient(_phi, (theta, mu_o, mu_e))
        expected = grad @ d
        got = ic_phi(d[0:1], d[1:2], d[2:3], theta, mu_o, mu_e)[0]
        assert got == pytest.approx(expected, rel=1e-4, abs=1e-8)


def test_ic_psi_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(100):
        mu_e = rng.uniform(0.15, 0.85)
        mu_o = rng.uniform(0.2, 2.0)
        theta = rng.uniform(0.1, 0.9) * mu_o
        d = rng.normal(size=3)
        grad = _numeric_gradient(_psi, (theta, mu_o, mu_e))
        expected = grad @ d
        got = ic_psi(d[0:1], d[1:2], d[2:3], theta, mu_o, mu_e)[0]
        assert got == pytest.approx(expected, rel=1e-4, abs=1e-8)


def test_ic_psi_matches_finite_differences_at_negative_theta():
    # The natural-scale curve exists wherever psi does, including theta <= 0.
    rng = np.random.default_rng(103)
    for _ in range(100):
        mu_e = rng.uniform(0.15, 0.85)
        mu_o = rng.uniform(0.2, 2.0)
        theta = -rng.uniform(0.1, 0.9) * mu_o
        d = rng.normal(size=3)
        expected = _numeric_gradient(_psi, (theta, mu_o, mu_e)) @ d
        got = ic_psi(d[0:1], d[1:2], d[2:3], theta, mu_o, mu_e)[0]
        assert got == pytest.approx(expected, rel=1e-4, abs=1e-8)


def test_ic_psi_domain_errors():
    d = np.zeros(1)
    with pytest.raises(ValidationError):
        ic_psi(d, d, d, 0.2, 0.5, 0.0)
    with pytest.raises(ValidationError):
        ic_psi(d, d, d, 0.5, 0.5, 0.5)


def test_ic_phi_mu_e_domain():
    d = np.zeros(1)
    with pytest.raises(ValidationError):
        ic_phi(d, d, d, 0.2, 0.5, 0.0)


def test_wald_inference_formulas():
    rng = np.random.default_rng(102)
    values = rng.normal(size=500)
    estimate = 0.3
    (se,) = influence.standard_errors(values[None])
    (lo,), (hi,), (p,) = influence._wald_rows(np.array([estimate]), np.array([se]), 0.0, 0.10)
    expected_se = values.std(ddof=1) / np.sqrt(500)
    assert se == pytest.approx(expected_se, abs=1e-14)
    z = norm_ppf(0.95)
    assert lo == pytest.approx(estimate - z * se, abs=1e-12)
    assert hi == pytest.approx(estimate + z * se, abs=1e-12)
    assert 0.0 < p < 1.0


def test_wald_zero_variance():
    se = influence.standard_errors(np.zeros((2, 10)))
    lo, hi, p = influence._wald_rows(np.array([0.5, 0.0]), se, 0.0, 0.05)
    assert se.tolist() == [0.0, 0.0] and lo.tolist() == hi.tolist() == [0.5, 0.0]
    assert p.tolist() == [0.0, 1.0]


@pytest.mark.filterwarnings("error")
def test_wald_rows_rescale_only_overflowing_rows():
    rng = np.random.default_rng(104)
    values = rng.normal(size=(3, 6))
    values[1] = [1e300, -1e300, 5e299, 2e300, -1.5e300, 3e299]
    estimates = np.array([0.1, 2e299, -0.3])
    se = influence.standard_errors(values)
    lo, hi, p = influence._wald_rows(estimates, se, 0.0, 0.10)
    assert np.isfinite(se).all() and np.isfinite(lo).all() and np.isfinite(hi).all()
    assert se[1] == pytest.approx(1e300 * (values[1] / 1e300).std(ddof=1) / np.sqrt(6), rel=1e-14)
    for i in (0, 2):
        (se_alone,) = influence.standard_errors(values[i : i + 1])
        alone = influence._wald_rows(estimates[i : i + 1], np.array([se_alone]), 0.0, 0.10)
        assert (se[i], lo[i], hi[i], p[i]) == (se_alone, *(x[0] for x in alone))


def test_wald_nan_estimate_or_se_gives_nan_p():
    lo, hi, p = influence._wald_rows(np.array([0.1, np.nan]), np.array([np.nan, 0.2]), 0.0, 0.05)
    assert np.isnan(p).all() and np.isnan(lo).all() and np.isnan(hi).all()
    # A NaN estimate with a zero SE, and a NaN SE at the null, too.
    _, _, p = influence._wald_rows(np.array([np.nan, 0.0, 0.3]), np.array([0.0, np.nan, 0.0]), 0.0, 0.05)
    assert np.isnan(p[:2]).all() and p[2] == 0.0


@pytest.mark.filterwarnings("error")
def test_wald_rows_extreme_rows_warn_nothing():
    # |phi| / SE overflows to inf (p 0), inf / inf is undefined (p NaN, as for
    # a NaN input), and an upper bound past the largest float is inf.
    estimates = np.array([1e308, np.inf, 1e308, -np.inf])
    se = np.array([1e-10, np.inf, 1e308, 1.0])
    lo, hi, p = influence._wald_rows(estimates, se, 0.0, 0.10)
    assert lo.tolist()[0] == hi.tolist()[0] == 1e308 and p.tolist()[0] == 0.0
    assert np.isnan(lo[1]) and hi[1] == np.inf and np.isnan(p[1])
    assert (lo[2], hi[2], p[2]) == (1e308 - norm_ppf(0.95) * 1e308, np.inf, 2.0 * norm_cdf(np.array([-1.0]))[0])
    assert lo.tolist()[3] == hi.tolist()[3] == -np.inf and p.tolist()[3] == 0.0


def test_wald_validation():
    with pytest.raises(ValidationError):
        influence.standard_errors(np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        influence._wald_rows(np.zeros(1), np.zeros(1), 0.0, 1.5)


def _tmle_estimate(seed=30):
    rng = np.random.default_rng(seed)
    n = 500
    x = rng.normal(size=n)
    e = (rng.random(n) < 1.0 / (1.0 + np.exp(-x))).astype(int)
    y = 2.0 + 0.7 * x + rng.normal(size=n)  # positive mean keeps the ratio score defined
    ds = Dataset(outcome=y, exposure=e, covariates=x[:, None], column_names=("c",))
    return score_covariate(ds, 0, "tmle", BasisConfig(degree=2))


def test_infer_scores_end_to_end():
    est = _tmle_estimate()
    inf = infer_scores(est, 0.10)
    assert inf.se_phi > 0.0
    assert inf.ci_phi[0] < est.phi_hat < inf.ci_phi[1]
    assert 0.0 <= inf.p_phi <= 1.0
    if est.psi_hat is not None and est.theta_hat > 0:
        assert inf.ci_psi is not None


def test_infer_scores_ci_width_scales_with_alpha():
    est = _tmle_estimate()
    wide = infer_scores(est, 0.01).ci_phi
    narrow = infer_scores(est, 0.20).ci_phi
    assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])


def test_infer_scores_requires_influence_values():
    est = _tmle_estimate()
    est.se_phi = None
    with pytest.raises(ValidationError):
        infer_scores(est, 0.10)
