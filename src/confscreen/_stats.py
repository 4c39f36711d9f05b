"""Platform-stable standard normal CDF and quantile function.

Both functions are rational approximations with hard-coded coefficients so
that results are bit-identical across platforms and BLAS builds.  The CDF
uses the Hart (1968) double-precision algorithm as popularised by West
(2005, "Better approximations to cumulative normal functions"); absolute
error is below 1e-15.  The quantile uses Acklam's rational approximation
followed by one Halley refinement against the CDF, giving absolute error
well below 1e-8 over (1e-300, 1 - 1e-16).

``norm_cdf``, ``norm_ppf`` and ``expit`` evaluate their input in flat blocks
of ``BLOCK`` elements, so that each temporary fits in cache instead of being
a fresh page-faulting array the size of the input.  Within a block the
common branch runs on every element and the rare ones (the CDF beyond
|x| = 7.07, the quantile's tails) overwrite their elements by index.  The
sign blends are exact and branch-free, and hold for +-0, +-inf and NaN:
with out <= 1/2 the CDF is |[x > 0] - out|, and with e = exp(-|x|) <= 1 the
numerator of expit is max(e, [x >= 0]).  Each element goes through the same
IEEE operations in the same order as the elementwise formulas, so results
are bitwise those of the formulas, whatever the block or the input size.
``norm_ppf(p, out=p)`` writes over its own input, each block read from a copy.
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
# |x| below which the CDF uses the central rational approximation.
_Z_SMALL = 7.07106781186547
# Elements per evaluation block: the temporaries of one block stay in cache.
BLOCK = 1 << 16


def _horner(coef, z):
    """The polynomial ``coef`` (highest degree first) at ``z``."""
    out = coef[0] * z + coef[1]
    for c in coef[2:]:
        out *= z
        out += c
    return out


def _blockwise(kernel, x, out=None):
    """Run ``kernel(xb, ob)`` over flat blocks of ``BLOCK`` elements of ``x`` into ``out``; return ``out``."""
    out = np.empty(x.shape) if out is None else out
    xf, of = x.reshape(-1), out.reshape(-1)
    for lo in range(0, xf.size, BLOCK):
        xb = xf[lo : lo + BLOCK]
        # A kernel may read its block after writing ``ob``: writing over ``x``, it reads a copy.
        kernel(xb.copy() if out is x else xb, of[lo : lo + BLOCK])
    return out


def _cdf_block(x, out):
    z = np.abs(x)
    small = z < _Z_SMALL
    # Far values get the central formula at the branch edge, then their own
    # value below; clamping keeps the formula free of overflow.
    np.minimum(z, _Z_SMALL, out=z)
    np.divide(np.exp(-0.5 * z * z) * _horner(_HN, z), _horner(_HD, z), out=out)
    if not small.all():
        far = np.flatnonzero(~small)
        zb = np.abs(x[far])
        # exp(-z^2/2) underflows just past z = 38.5; beyond that (and for
        # NaN) the mass is below the smallest subnormal and 0 is returned.
        big = zb < 38.5
        zb = zb[big]
        # Mills-ratio continued fraction for the far tail; 12 levels keep the
        # relative error below 1e-12 over the whole branch.
        cf = zb + 0.65
        for k in range(12, 0, -1):
            cf = zb + k / cf
        out[far] = 0.0
        out[far[big]] = np.exp(-0.5 * zb * zb) / (cf * _SQRT_2PI)
    # out <= 1/2, so |[x > 0] - out| is out for x <= 0 and 1 - out for x > 0.
    np.abs(np.subtract(x > 0.0, out, out=out), out=out)


def _ppf_block(p, x):
    q = p - 0.5
    r = q * q
    np.divide(_horner(_AA, r) * q, _horner(_AB, r) * r + 1.0, out=x)
    tail = np.flatnonzero((p < _P_LOW) | (p > 1.0 - _P_LOW))
    if tail.size:
        pt = p[tail]
        q = np.sqrt(-2.0 * np.log(np.minimum(pt, 1.0 - pt)))
        xt = _horner(_AC, q) / (_horner(_AD, q) * q + 1.0)
        x[tail] = np.negative(xt, out=xt, where=pt > 1.0 - _P_LOW)
    # One Halley step against the high-precision CDF.
    _cdf_block(x, r)
    u = (r - p) * _SQRT_2PI * np.exp(0.5 * x * x)
    x -= u / (1.0 + 0.5 * x * u)


def norm_cdf(x):
    """Standard normal CDF, vectorised over ``x``."""
    out = _blockwise(_cdf_block, np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_ppf(p, out=None):
    """Standard normal quantile, vectorised over ``p`` in (0, 1); ``out`` may be the float array ``p`` itself."""
    p = np.asarray(p, dtype=float)
    # min and max are NaN when any p is: the comparisons then fail and raise too.
    if p.size and not (p.min() > 0.0 and p.max() < 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    x = _blockwise(_ppf_block, p, out)
    return float(x) if x.ndim == 0 else x


def _expit_block(x, out):
    e = np.exp(-np.abs(x))
    np.divide(np.maximum(e, x >= 0.0), 1.0 + e, out=out)


def expit(x):
    """Numerically stable logistic function.

    With e = exp(-|x|) <= 1 this is 1 / (1 + e) for x >= 0 and e / (1 + e)
    otherwise, so neither branch can overflow.  Both numerators are
    max(e, [x >= 0]).
    """
    return _blockwise(_expit_block, np.asarray(x, dtype=float))


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)
