"""Influence curves, sandwich standard errors, confidence intervals, Wald tests.

The influence curves for the difference and ratio scores are obtained by
the delta method applied to their representations in terms of
(theta, mu_O, mu_E).  Note that the partial in the mu_E direction is
-theta/mu_E^2 - (mu_O - theta)/(1 - mu_E)^2 for the difference score and
-psi/(mu_E (1 - mu_E)) for the ratio; both are validated against central
finite differences in the test suite.

The curves broadcast: with theta (and mu_O) a (b, 1) column and (b, n)
fitted values, they are the (b, n) curves of b targets at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stats import norm_cdf, norm_ppf
from .data import ValidationError

__all__ = [
    "InferenceResult",
    "eic_theta",
    "ic_phi",
    "ic_psi",
    "infer_scores",
    "standard_errors",
]

# |mu_O - theta| below this is a vanishing ratio-score denominator: psi and its curve are undefined.
PSI_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class InferenceResult:
    """Wald inference for one covariate's difference and ratio scores."""

    se_phi: float
    ci_phi: tuple[float, float]
    p_phi: float
    alpha: float
    se_psi: float | None = None
    ci_psi: tuple[float, float] | None = None
    p_psi: float | None = None


def eic_theta(o, e, pi_val, tau_val, theta):
    """Efficient influence curve of theta: o*pi + tau*(I(e=1) - pi) - theta."""
    e_ind = np.asarray(e, dtype=float)
    return np.asarray(o, dtype=float) * pi_val + tau_val * (e_ind - pi_val) - theta


def _check_mu_e(mu_e: float) -> None:
    if not (0.0 < mu_e < 1.0):
        raise ValidationError("mu_E must lie strictly inside (0, 1)")


def ic_phi(d_theta, d_mu_o, d_mu_e, theta, mu_o, mu_e):
    """Delta-method influence curve of the difference score."""
    _check_mu_e(mu_e)
    # A target's coefficients overflow to inf silently, as Python floats do.
    with np.errstate(over="ignore", invalid="ignore"):
        c_mu_e = theta / mu_e**2 + (mu_o - theta) / (1.0 - mu_e) ** 2
    return (
        np.asarray(d_theta, dtype=float) / (mu_e * (1.0 - mu_e))
        - np.asarray(d_mu_o, dtype=float) / (1.0 - mu_e)
        - np.asarray(d_mu_e, dtype=float) * c_mu_e
    )


def ic_psi(d_theta, d_mu_o, d_mu_e, theta, mu_o, mu_e):
    """Delta-method influence curve of the ratio score, on its natural scale.

    The partials of psi = theta (1 - mu_E) / (mu_E (mu_O - theta)) exist for
    every theta != mu_O, whatever its sign.
    """
    _check_mu_e(mu_e)
    gap = mu_o - theta
    if np.any(np.abs(gap) < PSI_DENOM_TOL):
        raise ValidationError("ratio-score denominator vanishes")
    with np.errstate(over="ignore", invalid="ignore"):  # as in ic_phi
        psi = (theta / mu_e) / (gap / (1.0 - mu_e))
        c_theta = (1.0 - mu_e) * mu_o / (mu_e * gap * gap)
        c_mu_o, c_mu_e = psi / gap, psi / (mu_e * (1.0 - mu_e))
    return (
        c_theta * np.asarray(d_theta, dtype=float)
        - c_mu_o * np.asarray(d_mu_o, dtype=float)
        - c_mu_e * np.asarray(d_mu_e, dtype=float)
    )


def standard_errors(values: np.ndarray) -> np.ndarray:
    """Influence-curve standard error of each row of the influence values ``values`` (b, n).

    se = sd(row, divisor n-1) / sqrt(n); a row of finite values whose sum of
    squares overflows is recomputed from the row scaled by its largest
    |value|.  Every row's SE equals the SE of that row alone.
    """
    n = values.shape[1]
    if n < 2:
        raise ValidationError("need at least 2 observations for Wald inference")

    def sd(v):
        # v.std(axis=1, ddof=1) without its wrapper: the same sums, the same result.
        centered = v - (np.add.reduce(v, axis=1) / n)[:, None]
        return np.sqrt(np.add.reduce(centered * centered, axis=1) / (n - 1))

    # Overflow (and inf - inf after it) is repaired below for finite rows.
    with np.errstate(over="ignore", invalid="ignore"):
        se = sd(values) / np.sqrt(n)
    big = ~np.isfinite(se) & np.isfinite(values).all(axis=1)
    if big.any():
        scale = np.abs(values[big]).max(axis=1)
        se[big] = scale * (sd(values[big] / scale[:, None]) / np.sqrt(n))
    return se


def _wald_rows(estimates: np.ndarray, se: np.ndarray, null_value: float, alpha: float):
    """Wald interval bounds and p-value of each (estimate, SE) pair; returns (ci_lo, ci_hi, p), each (b,).

    A zero SE yields a point interval and a 0/1 p-value by exact comparison
    with the null.  A NaN estimate or SE yields a NaN p-value, which no test
    level selects.
    """
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")
    z = norm_ppf(1.0 - alpha / 2.0)
    p = np.where(estimates == null_value, 1.0, 0.0)
    varies = se != 0.0
    p[varies] = 2.0 * norm_cdf(-np.abs(estimates[varies] - null_value) / se[varies])
    p[np.isnan(estimates) | np.isnan(se)] = np.nan
    return estimates - z * se, estimates + z * se, p


def infer_scores(estimate, alpha: float) -> InferenceResult:
    """Wald confidence intervals at level 1 - alpha and p-values of one dr/tmle ScoreEstimate.

    The SEs come with the estimate; this is the Wald step that ``rank``
    takes for all rows of the ranked score at once, for one row and both scores.
    """
    if estimate.se_phi is None:
        raise ValidationError(f"estimator kind {estimate.estimator_kind!r} carries no standard errors")

    def wald(score, se, null):
        (lo,), (hi,), (p,) = (a.tolist() for a in _wald_rows(np.array([score]), np.array([se]), null, alpha))
        return se, (lo, hi), p

    psi = () if estimate.se_psi is None else wald(estimate.psi_hat, estimate.se_psi, 1.0)
    return InferenceResult(*wald(estimate.phi_hat, estimate.se_phi, 0.0), alpha, *psi)
