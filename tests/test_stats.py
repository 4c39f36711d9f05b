"""Check the platform-stable normal CDF/quantile against scipy's implementations."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from confscreen._stats import expit, logit, norm_cdf, norm_ppf


def test_norm_cdf_matches_scipy_on_grid():
    x = np.linspace(-8.0, 8.0, 4001)
    assert np.max(np.abs(norm_cdf(x) - scipy.stats.norm.cdf(x))) < 1e-14


def test_norm_cdf_far_tails():
    for x in (-37.0, -20.0, -10.0, 10.0, 20.0, 37.0):
        assert norm_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), rel=1e-11, abs=1e-300)


def test_norm_ppf_matches_scipy():
    p = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    assert np.max(np.abs(norm_ppf(p) - scipy.stats.norm.ppf(p))) < 1e-9
    # Extreme tails: the quantile is poorly conditioned there, so allow the
    # intrinsic double-precision limit.
    for p_ext in (1e-12, 1e-10, 1.0 - 1e-10):
        assert norm_ppf(p_ext) == pytest.approx(scipy.stats.norm.ppf(p_ext), abs=1e-7)


def test_norm_ppf_center():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_cdf_ppf_roundtrip(p):
    assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-8, abs=1e-12)


@given(st.floats(min_value=-12.0, max_value=12.0))
def test_expit_logit_roundtrip(x):
    # Beyond |x| ~ 15 the round trip hits the spacing of doubles near 1.
    assert logit(expit(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)


def test_expit_symmetry():
    x = np.linspace(-20, 20, 101)
    assert np.allclose(expit(x) + expit(-x), 1.0, atol=1e-15)


def test_norm_cdf_monotone():
    x = np.linspace(-10, 10, 1001)
    assert np.all(np.diff(norm_cdf(x)) >= 0.0)


def _expit_two_branch(x):
    """Reference: the logistic function evaluated separately on each sign."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_expit_matches_two_branch_reference_bitwise():
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.normal(scale=s, size=20_000) for s in (1e-3, 1.0, 30.0, 300.0)]
        + [np.array([0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf])]
    )
    assert np.array_equal(expit(x).view(np.int64), _expit_two_branch(x).view(np.int64))
