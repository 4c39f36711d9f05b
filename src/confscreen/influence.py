"""Influence curves, sandwich standard errors, confidence intervals, Wald tests.

The influence curves for the difference and ratio scores are obtained by
the delta method applied to their representations in terms of
(theta, mu_O, mu_E).  Note that the partial in the mu_E direction is
-theta/mu_E^2 - (mu_O - theta)/(1 - mu_E)^2 for the difference score and
-psi/(mu_E (1 - mu_E)) for the ratio; both are validated against central
finite differences in the test suite.
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
    "infer_block",
    "infer_scores",
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
    return (
        np.asarray(d_theta, dtype=float) / (mu_e * (1.0 - mu_e))
        - np.asarray(d_mu_o, dtype=float) / (1.0 - mu_e)
        - np.asarray(d_mu_e, dtype=float)
        * (theta / mu_e**2 + (mu_o - theta) / (1.0 - mu_e) ** 2)
    )


def ic_psi(d_theta, d_mu_o, d_mu_e, theta, mu_o, mu_e):
    """Delta-method influence curve of the ratio score, on its natural scale.

    The partials of psi = theta (1 - mu_E) / (mu_E (mu_O - theta)) exist for
    every theta != mu_O, whatever its sign.
    """
    _check_mu_e(mu_e)
    gap = mu_o - theta
    if abs(gap) < PSI_DENOM_TOL:
        raise ValidationError("ratio-score denominator vanishes")
    psi = (theta / mu_e) / (gap / (1.0 - mu_e))
    return (
        ((1.0 - mu_e) * mu_o / (mu_e * gap * gap)) * np.asarray(d_theta, dtype=float)
        - (psi / gap) * np.asarray(d_mu_o, dtype=float)
        - (psi / (mu_e * (1.0 - mu_e))) * np.asarray(d_mu_e, dtype=float)
    )


def _wald_rows(values: np.ndarray, estimates: np.ndarray, null_value: float, alpha: float):
    """Wald inference of each row of the influence values ``values`` (b, n) for ``estimates`` (b,).

    Returns (se, ci_lo, ci_hi, p), each (b,).  se = sd(row, divisor n-1) /
    sqrt(n); a row of finite values whose sum of squares overflows is
    recomputed from the row scaled by its largest |value|.  A zero-variance
    row yields a point interval and a 0/1 p-value by exact comparison with
    the null.  Every row's result equals the result of that row alone.
    """
    n = values.shape[1]
    if n < 2:
        raise ValidationError("need at least 2 observations for Wald inference")
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")

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
    z = norm_ppf(1.0 - alpha / 2.0)
    p = np.where(estimates == null_value, 1.0, 0.0)
    varies = se != 0.0
    p[varies] = 2.0 * norm_cdf(-np.abs(estimates[varies] - null_value) / se[varies])
    return se, estimates - z * se, estimates + z * se, p


def infer_block(estimates: list, alpha: float) -> list[InferenceResult]:
    """Wald inference for each dr/tmle ScoreEstimate of a block, from its stacked influence values.

    The block's d_phi (and d_psi) values are copied into one (block, n)
    array each, so callers bound the block size.  An estimate's result
    equals its result alone (``infer_scores``).
    """
    for est in estimates:
        if "d_phi" not in est.influence_values:
            raise ValidationError(f"estimator kind {est.estimator_kind!r} carries no influence values")

    def rows(ests, key, score, null):
        values = np.stack([est.influence_values[key] for est in ests])
        wald = _wald_rows(values, np.array([getattr(est, score) for est in ests]), null, alpha)
        return [(se, (lo, hi), p) for se, lo, hi, p in zip(*(x.tolist() for x in wald))]

    phi = rows(estimates, "d_phi", "phi_hat", 0.0)
    with_psi = [i for i, est in enumerate(estimates) if est.psi_hat is not None and "d_psi" in est.influence_values]
    psi = dict(zip(with_psi, rows([estimates[i] for i in with_psi], "d_psi", "psi_hat", 1.0))) if with_psi else {}
    return [
        InferenceResult(*phi[i], alpha, *psi.get(i, (None, None, None)))
        for i in range(len(estimates))
    ]


def infer_scores(estimate, alpha: float) -> InferenceResult:
    """Wald inference for one dr/tmle ScoreEstimate from its influence values (a block of one)."""
    return infer_block([estimate], alpha)[0]
