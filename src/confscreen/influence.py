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
    "ic_mu",
    "ic_phi",
    "ic_psi",
    "wald_inference",
    "infer_scores",
]


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


def ic_mu(value, mu):
    """Influence curve of a plain mean: the centered value."""
    return np.asarray(value, dtype=float) - mu


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
    if abs(gap) < 1e-12:
        raise ValidationError("ratio-score denominator vanishes")
    psi = (theta / mu_e) / (gap / (1.0 - mu_e))
    return (
        ((1.0 - mu_e) * mu_o / (mu_e * gap * gap)) * np.asarray(d_theta, dtype=float)
        - (psi / gap) * np.asarray(d_mu_o, dtype=float)
        - (psi / (mu_e * (1.0 - mu_e))) * np.asarray(d_mu_e, dtype=float)
    )


_WALD_Z: dict[float, float] = {}


def _wald_z(alpha: float) -> float:
    """Two-sided Wald quantile norm_ppf(1 - alpha/2), computed once per alpha."""
    z = _WALD_Z.get(alpha)
    if z is None:
        z = _WALD_Z[alpha] = norm_ppf(1.0 - alpha / 2.0)
    return z


def wald_inference(
    influence_values: np.ndarray,
    estimate: float,
    null_value: float,
    alpha: float,
) -> tuple[float, tuple[float, float], float]:
    """Standard error, (1 - alpha) confidence interval, and two-sided p-value.

    se = sd(influence values, divisor n-1) / sqrt(n).  A zero-variance
    influence vector yields a point interval and a 0/1 p-value by exact
    comparison with the null.
    """
    values = np.asarray(influence_values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 observations for Wald inference")
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")
    # values.std(ddof=1) without its wrapper: the same sums, the same result.
    centered = values - np.add.reduce(values) / n
    se = float(np.sqrt(np.add.reduce(centered * centered) / (n - 1)) / np.sqrt(n))
    z = _wald_z(alpha)
    ci = (estimate - z * se, estimate + z * se)
    if se == 0.0:
        p = 1.0 if estimate == null_value else 0.0
    else:
        p = float(2.0 * norm_cdf(-abs(estimate - null_value) / se))
    return se, ci, p


def infer_scores(estimate, alpha: float, log_scale_psi: bool = False) -> InferenceResult:
    """Build Wald inference for a dr/tmle ScoreEstimate from its influence values.

    ``log_scale_psi`` switches the ratio-score interval to the log scale
    (exponentiated back); the default Wald interval is on the natural scale.
    """
    values = estimate.influence_values
    if "d_phi" not in values:
        raise ValidationError(
            f"estimator kind {estimate.estimator_kind!r} carries no influence values"
        )
    se_phi, ci_phi, p_phi = wald_inference(values["d_phi"], estimate.phi_hat, 0.0, alpha)
    se_psi = ci_psi = p_psi = None
    if estimate.psi_hat is not None and "d_psi" in values:
        if log_scale_psi and estimate.psi_hat > 0.0:
            d_log = values["d_psi"] / estimate.psi_hat
            se_l, ci_l, p_psi = wald_inference(
                d_log, float(np.log(estimate.psi_hat)), 0.0, alpha
            )
            se_psi = se_l * estimate.psi_hat
            ci_psi = (float(np.exp(ci_l[0])), float(np.exp(ci_l[1])))
        else:
            se_psi, ci_psi, p_psi = wald_inference(
                values["d_psi"], estimate.psi_hat, 1.0, alpha
            )
    return InferenceResult(
        se_phi=se_phi,
        ci_phi=ci_phi,
        p_phi=p_phi,
        alpha=alpha,
        se_psi=se_psi,
        ci_psi=ci_psi,
        p_psi=p_psi,
    )
