"""Check the platform-stable normal CDF/quantile against scipy's implementations,
and the blocked kernels bitwise against whole-array references."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from confscreen import simulation
from confscreen._stats import (
    _AA,
    _AB,
    _AC,
    _AD,
    _HD,
    _HN,
    _P_LOW,
    _SQRT_2PI,
    BLOCK,
    expit,
    logit,
    norm_cdf,
    norm_ppf,
)


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


def test_norm_ppf_rejects_nan_and_bounds():
    for bad in ([0.3, np.nan], [np.nan, 0.3], [0.0, 0.5], [0.5, 1.0], [-0.0, 0.5], [0.5, np.inf], np.nan, 0.0, 1.0):
        with pytest.raises(ValueError, match="strictly inside"):
            norm_ppf(bad)
    # An empty input has nothing out of range.
    for empty in ([], np.empty((0, 3))):
        out = norm_ppf(empty)
        assert out.shape == np.shape(empty) and out.dtype == float


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


# Whole-array references: the masked, branch-by-branch evaluation that the
# blocked kernels replaced.  Every element must go through the same IEEE
# operations in both, so the results are compared bit for bit.


def _norm_cdf_whole_array(x):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    z = np.abs(x)
    out = np.zeros_like(z)

    small = z < 7.07106781186547
    zs = z[small]
    e = np.exp(-0.5 * zs * zs)
    num = _HN[0] * zs + _HN[1]
    for c in _HN[2:]:
        num = num * zs + c
    den = _HD[0] * zs + _HD[1]
    for c in _HD[2:]:
        den = den * zs + c
    out[small] = e * num / den

    big = (~small) & (z < 38.5)
    zb = z[big]
    e = np.exp(-0.5 * zb * zb)
    cf = zb + 0.65
    for k in range(12, 0, -1):
        cf = zb + k / cf
    out[big] = e / (cf * _SQRT_2PI)

    res = np.where(x > 0.0, 1.0 - out, out)
    return float(res[0]) if scalar else res


def _norm_ppf_whole_array(p):
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    x = np.empty_like(p)

    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = _AA[0] * r + _AA[1]
        for c in _AA[2:]:
            num = num * r + c
        den = _AB[0] * r + _AB[1]
        for c in _AB[2:]:
            den = den * r + c
        x[mid] = num * q / (den * r + 1.0)
    for mask, sign, pp in ((lo, 1.0, p[lo]), (hi, -1.0, 1.0 - p[hi])):
        if not np.any(mask):
            continue
        q = np.sqrt(-2.0 * np.log(pp))
        num = _AC[0] * q + _AC[1]
        for c in _AC[2:]:
            num = num * q + c
        den = _AD[0] * q + _AD[1]
        for c in _AD[2:]:
            den = den * q + c
        x[mask] = sign * num / (den * q + 1.0)

    err = _norm_cdf_whole_array(x) - p
    u = err * _SQRT_2PI * np.exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return float(x[0]) if scalar else x


def _assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def _philox_uniforms():
    return simulation._uniforms(simulation.substream(42), (500, 1000))


_CDF_SPECIAL = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 7.07106781186547, -7.07106781186547,
     38.5, -38.5, 1e300, -1e300, 5e-324, -5e-324]
)


def _cdf_inputs():
    far = np.linspace(7.07, 38.5, 4001, endpoint=False)
    beyond = np.geomspace(38.5, 1e300, 200)
    return np.concatenate(
        [np.linspace(-40.0, 40.0, 100_001), far, -far, beyond, -beyond, _CDF_SPECIAL]
    )


def test_norm_ppf_bitwise_on_philox_stream():
    u = _philox_uniforms()
    _assert_bitwise(norm_ppf(u), _norm_ppf_whole_array(u))


def test_norm_ppf_bitwise_in_the_tails():
    p = np.concatenate([np.geomspace(1e-300, 0.5, 5000), 1.0 - np.geomspace(1e-16, 0.5, 5000)])
    _assert_bitwise(norm_ppf(p), _norm_ppf_whole_array(p))


def test_norm_cdf_bitwise_on_every_branch():
    x = _cdf_inputs()
    _assert_bitwise(norm_cdf(x), _norm_cdf_whole_array(x))
    x = 16.0 * _philox_uniforms() - 8.0
    _assert_bitwise(norm_cdf(x), _norm_cdf_whole_array(x))


def _without_nan(x):
    # exp(-|NaN|) and exp(NaN) differ in the sign bit of the NaN they return.
    return x[~np.isnan(x)]


def test_expit_bitwise_on_cdf_inputs():
    x = _without_nan(_cdf_inputs())
    _assert_bitwise(expit(x), _expit_two_branch(x))
    assert np.isnan(expit(np.nan))


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_bitwise_across_block_edges(size):
    p = _philox_uniforms().reshape(-1)[:size]
    _assert_bitwise(norm_ppf(p), _norm_ppf_whole_array(p))
    # Written over its own input, each block read from a copy.
    q = p.copy()
    assert norm_ppf(q, out=q) is q
    _assert_bitwise(q, _norm_ppf_whole_array(p))
    # Far CDF values land on both sides of each block edge.
    x = np.resize(_cdf_inputs(), size)
    _assert_bitwise(norm_cdf(x), _norm_cdf_whole_array(x))
    x = _without_nan(x)
    _assert_bitwise(expit(x), _expit_two_branch(x))


def test_return_types():
    assert type(norm_cdf(0.3)) is float
    assert type(norm_cdf(np.array(0.3))) is float
    assert type(norm_ppf(0.3)) is float
    assert type(norm_ppf(np.array(0.3))) is float
    for x in (0.3, np.array(-0.3)):
        out = expit(x)
        assert type(out) is np.ndarray and out.shape == ()
    assert norm_cdf(np.zeros((2, 3))).shape == (2, 3)
    assert norm_ppf(np.full((2, 3), 0.5)).shape == (2, 3)
    assert expit(np.zeros((2, 3))).shape == (2, 3)
