"""Confounding-score estimators: naive plug-in, one-step doubly robust, TMLE.

All estimators target theta = E{I(E=1) tau(C)} together with mu_O = E(O)
and mu_E = E(E); the difference score phi and ratio score psi are smooth
functions of the triple:

    phi = theta / mu_E - (mu_O - theta) / (1 - mu_E)
    psi = [theta / mu_E] / [(mu_O - theta) / (1 - mu_E)]

For a bounded outcome the whole computation runs on the rescaled [0, 1]
outcome and every reported quantity is mapped back through the recorded
affine transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import influence
from ._stats import expit, logit
from .data import Dataset, ValidationError
from .nuisance import (
    BasisConfig,
    _clip_prob,
    _constant_columns,
    _target_columns,
    fit_nuisances,
    fit_saturated,
)

__all__ = [
    "ScoreEstimate",
    "TmleState",
    "theta_naive",
    "plugin_scores_om",
    "plugin_scores_ps",
    "theta_dr",
    "tmle_theta",
    "fluctuate_pi",
    "fluctuate_q",
    "scores_from_theta",
    "score_covariate",
    "score_all",
    "score_groups",
]

PSI_DENOM_TOL = 1e-12
# Nuisance parts each estimator fits.
ESTIMATOR_PARTS = {"plugin_om": ("tau",), "plugin_ps": ("pi",), "dr": ("tau", "pi"), "tmle": ("pi", "q")}
ESTIMATOR_KINDS = tuple(ESTIMATOR_PARTS)
# Estimators whose estimates carry influence values, hence SEs, CIs and p-values.
INFERENCE_KINDS = ("dr", "tmle")


@dataclass
class ScoreEstimate:
    """Point estimates and per-observation influence values for one target."""

    covariate_id: object
    estimator_kind: str
    theta_hat: float
    mu_o_hat: float
    mu_e_hat: float
    phi_hat: float
    psi_hat: float | None
    influence_values: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def psi_defined(self) -> bool:
        return self.psi_hat is not None


@dataclass
class TmleState:
    """Mutable iteration state of the TMLE fluctuation loop."""

    pi_values: np.ndarray
    q0_values: np.ndarray
    q1_values: np.ndarray
    trace: list = field(default_factory=list)


def scores_from_theta(theta: float, mu_o: float, mu_e: float) -> tuple[float, float | None]:
    """Map (theta, mu_O, mu_E) to (phi, psi); psi is None when its denominator vanishes."""
    if not (0.0 < mu_e < 1.0):
        raise ValidationError("mu_E must lie strictly inside (0, 1)")
    exposed = theta / mu_e
    unexposed = (mu_o - theta) / (1.0 - mu_e)
    phi = exposed - unexposed
    if abs(mu_o - theta) < PSI_DENOM_TOL:
        return phi, None
    return phi, exposed / unexposed


def _mean(x: np.ndarray):
    """``np.mean`` of a 1-D array without its wrapper: the same sum, the same result."""
    return np.add.reduce(x) / x.shape[0]


def _in_sample(dataset: Dataset, fit, part: str) -> np.ndarray:
    """Nuisance ``part`` ("tau", "pi", "q0" or "q1") at the dataset's covariates.

    A NuisanceFit trained on ``dataset`` already holds these values; any
    other fit is evaluated through its ``tau_at``/``pi_at``/``q_at``.
    """
    if getattr(fit, "training_data", None) is dataset:
        stored = getattr(fit, f"{part}_fitted")
        if stored is not None:
            return stored
    c = dataset.covariates[:, fit.columns]
    if part == "tau":
        return fit.tau_at(c)
    if part == "pi":
        return fit.pi_at(c)
    return fit.q_at(int(part[1]), c)


def _naive(dataset: Dataset, fit) -> tuple[np.ndarray, float]:
    """tau_hat at the dataset's covariates and the naive plug-in theta, both on the original scale."""
    tau = dataset.to_original_scale(_in_sample(dataset, fit, "tau"))
    return tau, float(_mean(dataset.exposure_float * tau))


def theta_naive(dataset: Dataset, fit) -> float:
    """Naive plug-in: sample mean of I(E=1) tau_hat(C), on the original outcome scale."""
    return _naive(dataset, fit)[1]


def _target_id(columns: tuple[int, ...]):
    """Id of a target: the column index of a single covariate, else the column tuple."""
    return columns[0] if len(columns) == 1 else columns


def _estimate(dataset: Dataset, kind: str, fit, theta: float, mu_o: float, diagnostics: dict) -> ScoreEstimate:
    """Scores of ``fit``'s target from theta and mu_O, without influence values."""
    mu_e = dataset.exposure_mean
    phi, psi = scores_from_theta(theta, mu_o, mu_e)
    return ScoreEstimate(
        covariate_id=_target_id(fit.columns),
        estimator_kind=kind,
        theta_hat=theta,
        mu_o_hat=mu_o,
        mu_e_hat=mu_e,
        phi_hat=phi,
        psi_hat=psi,
        diagnostics=diagnostics,
    )


def plugin_scores_om(dataset: Dataset, fit) -> ScoreEstimate:
    """Plug-in scores from the outcome-regression route (arm means of tau_hat)."""
    tau, theta = _naive(dataset, fit)
    # Under the outcome-model plug-in measure, mu_O is the mean of tau over
    # the empirical covariate distribution; this keeps phi identical to the
    # within-arm mean difference.
    mu_o = float(_mean(tau))
    return _estimate(dataset, "plugin_om", fit, theta, mu_o, {"warnings": list(fit.warnings)})


def plugin_scores_ps(dataset: Dataset, fit) -> ScoreEstimate:
    """Plug-in scores from the propensity route: E{O pi_hat(C)} / mean(E) etc."""
    pi = _in_sample(dataset, fit, "pi")
    theta = float(_mean(dataset.outcome_original() * pi))
    return _estimate(dataset, "plugin_ps", fit, theta, dataset.outcome_mean, {"warnings": list(fit.warnings)})


def _finalize_efficient(
    dataset: Dataset,
    kind: str,
    fit,
    theta: float,
    pi: np.ndarray,
    tau: np.ndarray,
    diagnostics: dict,
) -> ScoreEstimate:
    """Assemble scores plus influence values from final fitted values.

    ``tau`` and ``theta`` are expected on the original outcome scale.
    """
    mu_o = dataset.outcome_mean
    mu_e = dataset.exposure_mean
    est = _estimate(dataset, kind, fit, theta, mu_o, diagnostics)
    d_theta = influence.eic_theta(dataset.outcome_original(), dataset.exposure_float, pi, tau, theta)
    # The influence curves of the plain means mu_O and mu_E are the centered
    # values, shared by every target of the dataset.
    d_mu_o = dataset.outcome_centered
    d_mu_e = dataset.exposure_centered
    d_phi = influence.ic_phi(d_theta, d_mu_o, d_mu_e, theta, mu_o, mu_e)
    est.influence_values = {
        "d_theta": d_theta,
        "d_mu_o": d_mu_o,
        "d_mu_e": d_mu_e,
        "d_phi": d_phi,
    }
    if est.psi_hat is not None:
        est.influence_values["d_psi"] = influence.ic_psi(d_theta, d_mu_o, d_mu_e, theta, mu_o, mu_e)
    else:
        diagnostics.setdefault("warnings", []).append(
            "ratio-score influence curve undefined (vanishing denominator)"
        )
    return est


def theta_dr(dataset: Dataset, fit) -> ScoreEstimate:
    """One-step doubly robust correction of the naive plug-in."""
    tau, theta_n = _naive(dataset, fit)
    pi = _in_sample(dataset, fit, "pi")
    theta = theta_n + float(_mean(dataset.outcome_original() * pi - tau * pi))
    diagnostics = {"theta_naive": theta_n, "warnings": list(fit.warnings)}
    return _finalize_efficient(dataset, "dr", fit, theta, pi, tau, diagnostics)


NEWTON_TOL = 1e-10
NEWTON_MAX_STEPS = 50


def _offset_logistic_mle(h: np.ndarray, y: np.ndarray, base: np.ndarray) -> float:
    """One-dimensional MLE of eps for expit(base + eps * h) against y.

    Newton with step-halving on the mean score; bisection fallback when a
    sign change brackets the root.  ``y`` may be fractional in [0, 1].
    """

    def score_and_mu(eps: float) -> tuple[float, np.ndarray]:
        mu = expit(base + eps * h)
        return float(_mean(h * (y - mu))), mu

    def mean_score(eps: float) -> float:
        return score_and_mu(eps)[0]

    s0, mu = score_and_mu(0.0)
    if abs(s0) < NEWTON_TOL:
        return 0.0
    eps = 0.0
    s = s0
    hh = h * h
    for _ in range(NEWTON_MAX_STEPS):
        # ``mu`` is expit(base + eps * h) at the current eps.
        info = float(_mean(hh * mu * (1.0 - mu)))
        if info <= 0.0:
            break
        step = s / info
        scale = 1.0
        for _ in range(30):
            cand = eps + scale * step
            s_cand, mu_cand = score_and_mu(cand)
            if abs(s_cand) <= abs(s):
                break
            scale *= 0.5
        eps, s, mu = cand, s_cand, mu_cand
        if abs(s) < NEWTON_TOL:
            return eps
    # Bisection fallback: expand a bracket around 0 on the score sign change.
    lo, hi = -1.0, 1.0
    for _ in range(60):
        if mean_score(lo) * s0 <= 0.0 or mean_score(hi) * s0 <= 0.0:
            break
        lo *= 2.0
        hi *= 2.0
    a, b = (lo, 0.0) if mean_score(lo) * s0 <= 0.0 else (0.0, hi)
    sa = mean_score(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        sm = mean_score(mid)
        if abs(sm) < NEWTON_TOL:
            return mid
        if sa * sm <= 0.0:
            b = mid
        else:
            a, sa = mid, sm
    return 0.5 * (a + b)


def fluctuate_pi(state: TmleState, dataset: Dataset) -> float:
    """Propensity update along the least-favorable logistic path; returns eps1.

    The path covariate is H1 = -2 pi (Q1 - Q0) - Q0 and eps1 maximizes the
    Bernoulli log-likelihood of the exposure.  When the score at eps = 0
    already vanishes (e.g. saturated fits) the state is left untouched.
    """
    h1 = -2.0 * state.pi_values * (state.q1_values - state.q0_values) - state.q0_values
    e = dataset.exposure_float
    if np.abs(h1).max() == 0.0:
        return 0.0
    score0 = float(_mean(h1 * (e - state.pi_values)))
    if abs(score0) < NEWTON_TOL:
        return 0.0
    base = logit(_clip_prob(state.pi_values))
    eps1 = _offset_logistic_mle(h1, e, base)
    state.pi_values = _clip_prob(expit(base + eps1 * h1))
    return eps1


def fluctuate_q(state: TmleState, dataset: Dataset) -> float:
    """Exposure-response update along its least-favorable path; returns eps2.

    Continuous outcome: linear path Q + eps * H2 with H2 = -pi (updated this
    iteration); eps2 has the closed-form least-squares solution.  Bounded
    outcome (``dataset.outcome_kind``): logistic path on logit(Q) with the
    Bernoulli loss.
    """
    h2 = -state.pi_values
    q_obs = np.where(dataset.arm_masks[1], state.q1_values, state.q0_values)
    o = dataset.outcome
    if dataset.outcome_kind == "bounded":
        resid_score = float(_mean(h2 * (o - q_obs)))
        if abs(resid_score) < NEWTON_TOL:
            return 0.0
        eps2 = _offset_logistic_mle(h2, o, logit(_clip_prob(q_obs)))
        for attr in ("q0_values", "q1_values"):
            q = _clip_prob(getattr(state, attr))
            setattr(state, attr, _clip_prob(expit(logit(q) + eps2 * h2)))
        return eps2
    denom = float(np.add.reduce(h2 * h2))
    if denom < 1e-14:
        return 0.0
    eps2 = float(np.add.reduce(h2 * (o - q_obs)) / denom)
    state.q0_values = state.q0_values + eps2 * h2
    state.q1_values = state.q1_values + eps2 * h2
    return eps2


def tmle_theta(
    dataset: Dataset,
    fit,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> ScoreEstimate:
    """Targeted maximum likelihood estimate of theta and the derived scores.

    Alternates the propensity and exposure-response fluctuations until both
    coefficients fall below ``tol``, then evaluates the substitution
    estimator theta = mean(pi_hat * tau_hat) over the empirical covariate
    distribution; at convergence the empirical mean of the efficient
    influence curve vanishes.
    """
    state = TmleState(
        pi_values=_in_sample(dataset, fit, "pi"),
        q0_values=_in_sample(dataset, fit, "q0"),
        q1_values=_in_sample(dataset, fit, "q1"),
    )
    converged = False
    eps1 = eps2 = 0.0
    for _ in range(max_iter):
        eps1 = fluctuate_pi(state, dataset)
        eps2 = fluctuate_q(state, dataset)
        state.trace.append((eps1, eps2))
        if max(abs(eps1), abs(eps2)) < tol:
            converged = True
            break
    tau = state.pi_values * state.q1_values + (1.0 - state.pi_values) * state.q0_values
    tau = dataset.to_original_scale(tau)
    # Substitution estimator over the empirical covariate distribution: the
    # fitted exposure law is pi_hat, so E_fit{I(E=1) tau(C)} = mean(pi * tau).
    # This is the form that zeroes the empirical influence-curve equation;
    # the observed-arm average mean(E * tau) differs by O_p(n^{-1/2}) and is
    # reported in the diagnostics.
    theta = float(_mean(state.pi_values * tau))
    diagnostics = {
        "iterations": len(state.trace),
        "final_eps1": abs(eps1),
        "final_eps2": abs(eps2),
        "trace": list(state.trace),
        "theta_observed_arm": float(_mean(dataset.exposure_float * tau)),
        "warnings": list(fit.warnings),
    }
    if not converged:
        diagnostics["warnings"].append(
            f"tmle did not converge in {max_iter} iterations "
            f"(|eps1|={abs(eps1):.3e}, |eps2|={abs(eps2):.3e})"
        )
    return _finalize_efficient(dataset, "tmle", fit, theta, state.pi_values, tau, diagnostics)


def _constant_estimate(dataset: Dataset, cov_id, kind: str) -> ScoreEstimate:
    """Degenerate estimate for a constant covariate: phi = 0, psi = 1."""
    mu_o = dataset.outcome_mean
    mu_e = dataset.exposure_mean
    est = ScoreEstimate(
        covariate_id=cov_id,
        estimator_kind=kind,
        theta_hat=mu_o * mu_e,
        mu_o_hat=mu_o,
        mu_e_hat=mu_e,
        phi_hat=0.0,
        psi_hat=1.0,
        diagnostics={"constant": True, "warnings": ["constant covariate: scores fixed at null"]},
    )
    if kind in INFERENCE_KINDS:
        names = ("d_theta", "d_mu_o", "d_mu_e", "d_phi", "d_psi")
        est.influence_values = dict.fromkeys(names, np.zeros(dataset.n))
    return est


def score_covariate(
    dataset: Dataset,
    columns,
    estimator_kind: str,
    basis: BasisConfig,
    fit=None,
) -> ScoreEstimate:
    """Estimate the confounding scores of one covariate or covariate group.

    ``fit`` holds the target's nuisance models (a NuisanceFit, a SaturatedFit
    or another learner with the same interface); without one, the target's
    polynomial parts are fitted here as a stack of one.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    cols = _target_columns(columns)
    if _constant_columns(dataset.covariates[:, cols]).all():
        return _constant_estimate(dataset, _target_id(cols), estimator_kind)
    if fit is None:
        fit = fit_nuisances(dataset, [cols], basis, parts=ESTIMATOR_PARTS[estimator_kind])[0]

    if estimator_kind == "plugin_om":
        return plugin_scores_om(dataset, fit)
    if estimator_kind == "plugin_ps":
        return plugin_scores_ps(dataset, fit)
    if estimator_kind == "dr":
        return theta_dr(dataset, fit)
    return tmle_theta(dataset, fit)


# Largest design stack fitted at once, in doubles (targets x n x basis width).
STACK_DOUBLES = 2**16


def _score_targets(
    dataset: Dataset, targets: list[tuple[int, ...]], estimator_kind: str, basis: BasisConfig
) -> list[ScoreEstimate]:
    """Score ``targets`` in order, fitting each run of consecutive same-width targets in stacks.

    A stack holds at most STACK_DOUBLES doubles of design and at least one
    target; its fits are dropped once its targets are scored.  Constant
    targets are scored without a fit.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    constant = _constant_columns(dataset.covariates)
    estimates = []
    stack: list[tuple[int, ...]] = []

    def flush():
        if stack:
            fits = fit_nuisances(dataset, stack, basis, parts=ESTIMATOR_PARTS[estimator_kind])
            for cols, fit in zip(stack, fits):
                estimates.append(score_covariate(dataset, cols, estimator_kind, basis, fit))
            stack.clear()

    for cols in targets:
        if constant[list(cols)].all():
            flush()
            estimates.append(score_covariate(dataset, cols, estimator_kind, basis))
            continue
        if stack and len(cols) != len(stack[0]):
            flush()
        stack.append(cols)
        if len(stack) >= max(1, STACK_DOUBLES // (dataset.n * basis.width(len(cols)))):
            flush()
    flush()
    return estimates


def score_all(
    dataset: Dataset,
    estimator_kind: str = "tmle",
    basis: BasisConfig | None = None,
    saturated: bool = False,
) -> list[ScoreEstimate]:
    """Score every covariate; results are returned in column order.

    ``saturated`` replaces the polynomial fits with exact per-level fits.
    """
    basis = basis or BasisConfig()
    if saturated:
        return [
            score_covariate(dataset, j, estimator_kind, basis, fit_saturated(dataset, j))
            for j in range(dataset.p)
        ]
    return _score_targets(dataset, [(j,) for j in range(dataset.p)], estimator_kind, basis)


def score_groups(
    dataset: Dataset,
    group_indices: list[tuple[str, tuple[int, ...]]],
    estimator_kind: str = "tmle",
    basis: BasisConfig | None = None,
) -> list[ScoreEstimate]:
    """Score covariate groups with additive group bases; output order follows the input groups."""
    basis = basis or BasisConfig()
    targets = [_target_columns(cols) for _, cols in group_indices]
    estimates = _score_targets(dataset, targets, estimator_kind, basis)
    for (name, _), est in zip(group_indices, estimates):
        est.covariate_id = name
    return estimates
