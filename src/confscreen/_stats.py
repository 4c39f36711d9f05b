"""Platform-stable standard normal CDF and quantile function.

Both functions are rational approximations with hard-coded coefficients so
that results are bit-identical across platforms and BLAS builds.  The CDF
uses the Hart (1968) double-precision algorithm as popularised by West
(2005, "Better approximations to cumulative normal functions"); absolute
error is below 1e-15.  The quantile uses Acklam's rational approximation
followed by one Halley refinement against the CDF, giving absolute error
well below 1e-8 over (1e-300, 1 - 1e-16).
"""

from __future__ import annotations

import numpy as np

__all__ = ["norm_cdf", "norm_ppf", "expit", "logit"]

_SQRT_2PI = 2.5066282746310002

# Hart/West numerator and denominator coefficients (central region).
_HN = (
    3.52624965998911e-02,
    0.700383064443688,
    6.37396220353165,
    33.912866078383,
    112.079291497871,
    221.213596169931,
    220.206867912376,
)
_HD = (
    8.83883476483184e-02,
    1.75566716318264,
    16.064177579207,
    86.7807322029461,
    296.564248779674,
    637.333633378831,
    793.826512519948,
    440.413735824752,
)

# Acklam coefficients for the inverse CDF.
_AA = (
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.383577518672690e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
)
_AB = (
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
)
_AC = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e+00,
    -2.549732539343734e+00,
    4.374664141464968e+00,
    2.938163982698783e+00,
)
_AD = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e+00,
    3.754408661907416e+00,
)
_P_LOW = 0.02425


def norm_cdf(x):
    """Standard normal CDF, vectorised over ``x``."""
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

    # exp(-z^2/2) underflows just past z = 38.5; beyond that the mass is
    # below the smallest subnormal and 0 is returned.
    big = (~small) & (z < 38.5)
    zb = z[big]
    e = np.exp(-0.5 * zb * zb)
    # Mills-ratio continued fraction for the far tail; 12 levels keep the
    # relative error below 1e-12 over the whole branch.
    cf = zb + 0.65
    for k in range(12, 0, -1):
        cf = zb + k / cf
    out[big] = e / (cf * _SQRT_2PI)

    res = np.where(x > 0.0, 1.0 - out, out)
    return float(res[0]) if scalar else res


def norm_ppf(p):
    """Standard normal quantile, vectorised over ``p`` in (0, 1)."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
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

    # One Halley step against the high-precision CDF.
    err = norm_cdf(x) - p
    u = err * _SQRT_2PI * np.exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return float(x[0]) if scalar else x


def expit(x):
    """Numerically stable logistic function.

    With e = exp(-|x|) <= 1 this is 1 / (1 + e) for x >= 0 and e / (1 + e)
    otherwise, so neither branch can overflow.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)
