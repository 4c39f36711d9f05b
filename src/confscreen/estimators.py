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
from itertools import compress
from typing import NamedTuple

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
    "ThetaStack",
    "TmleState",
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

# Nuisance parts each estimator fits.
ESTIMATOR_PARTS = {"plugin_om": ("tau",), "plugin_ps": ("pi",), "dr": ("tau", "pi"), "tmle": ("pi", "q")}
ESTIMATOR_KINDS = tuple(ESTIMATOR_PARTS)
# Estimators whose estimates carry influence-curve SEs, hence CIs and p-values.
INFERENCE_KINDS = ("dr", "tmle")


@dataclass
class ScoreEstimate:
    """Point estimates of one target's scores and, for dr and tmle, their standard errors.

    ``se_phi`` and ``se_psi`` are influence-curve SEs, None for the plug-ins;
    ``psi_hat`` and ``se_psi`` are None where the ratio score's denominator
    vanishes.  ``infer_scores`` adds the Wald CIs and p-values.
    """

    covariate_id: object
    estimator_kind: str
    theta_hat: float
    phi_hat: float
    psi_hat: float | None
    se_phi: float | None = None
    se_psi: float | None = None
    diagnostics: dict = field(default_factory=dict)


class ScoredRow(NamedTuple):
    """One target's row of a scored stack: the ScoreEstimate fields after its id and kind."""

    theta_hat: float
    phi_hat: float
    psi_hat: float | None
    se_phi: float | None
    se_psi: float | None
    diagnostics: dict


class ThetaStack(NamedTuple):
    """An estimator's estimates for a stack of b targets.

    ``theta`` (b,) and ``mu_o`` ((b,), or one value for every row) are on
    the original outcome scale.  ``pi`` and ``tau`` (b, n) are the final
    propensity and outcome-regression values, which dr and tmle give for
    their influence curves; ``diagnostics`` holds one dict per target.
    """

    theta: np.ndarray
    mu_o: np.ndarray | float
    diagnostics: list
    pi: np.ndarray | None = None
    tau: np.ndarray | None = None


@dataclass
class TmleState:
    """Iteration state of the TMLE fluctuation loop for a stack of targets.

    ``trace[i]`` lists row i's (eps1, eps2) per iteration and
    ``converged[i]`` says whether its loop stopped under the tolerance.
    """

    pi_values: np.ndarray
    q0_values: np.ndarray
    q1_values: np.ndarray
    trace: list = field(default_factory=list)
    converged: np.ndarray | None = None


def scores_from_theta(theta, mu_o, mu_e: float):
    """Map (theta, mu_O, mu_E) to (phi, psi), elementwise over arrays of theta and mu_O.

    phi and psi are arrays (0-d for scalar inputs); psi is NaN where its
    denominator mu_O - theta vanishes.
    """
    if not (0.0 < mu_e < 1.0):
        raise ValidationError("mu_E must lie strictly inside (0, 1)")
    # As in Python float arithmetic, overflow gives inf silently; an undefined psi is NaN.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gap = mu_o - theta
        exposed = theta / mu_e
        unexposed = gap / (1.0 - mu_e)
        psi = np.where(np.abs(gap) < influence.PSI_DENOM_TOL, np.nan, np.divide(exposed, unexposed))
        return exposed - unexposed, psi


def _mean(x: np.ndarray):
    """``np.mean`` over the last axis without its wrapper: the same sums, the same result.

    A row of a (b, n) stack gets the same mean, bit for bit, as that row alone.
    """
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _values(dataset: Dataset, fits: list, part: str) -> np.ndarray:
    """The (b, n) stack of the ``fits``' values of nuisance ``part`` ("tau", "pi", "q0" or "q1")."""
    rows = [getattr(fit, part) for fit in fits]
    for values in rows:
        if values is None:
            raise ValidationError(f"fit has no {part} part")
        if np.shape(values) != (dataset.n,):
            raise ValidationError(
                f"fit's {part} values have shape {np.shape(values)}; the dataset has n = {dataset.n} rows"
            )
    return np.stack(rows)


def _warnings(fits: list) -> list[dict]:
    """Each fit's diagnostics before estimation: a copy of its warnings."""
    return [{"warnings": list(fit.warnings)} for fit in fits]


def _naive(dataset: Dataset, fits: list) -> tuple[np.ndarray, np.ndarray]:
    """tau_hat (b, n) at the dataset's covariates and the naive plug-in theta (b,), on the original scale."""
    tau = dataset.to_original_scale(_values(dataset, fits, "tau"))
    return tau, _mean(dataset.exposure_float * tau)


def _target_id(columns: tuple[int, ...]):
    """Id of a target: the column index of a single covariate, else the column tuple."""
    return columns[0] if len(columns) == 1 else columns


def plugin_scores_om(dataset: Dataset, fits: list) -> ThetaStack:
    """Plug-in theta of each fit from the outcome-regression route (arm means of tau_hat)."""
    tau, theta = _naive(dataset, fits)
    # Under the outcome-model plug-in measure, mu_O is the mean of tau over
    # the empirical covariate distribution; this keeps phi identical to the
    # within-arm mean difference.
    return ThetaStack(theta, _mean(tau), _warnings(fits))


def plugin_scores_ps(dataset: Dataset, fits: list) -> ThetaStack:
    """Plug-in theta of each fit from the propensity route: E{O pi_hat(C)}; mu_O is mean(O)."""
    theta = _mean(dataset.outcome_original() * _values(dataset, fits, "pi"))
    return ThetaStack(theta, dataset.outcome_mean, _warnings(fits))


def theta_dr(dataset: Dataset, fits: list) -> ThetaStack:
    """One-step doubly robust correction of each fit's naive plug-in."""
    tau, theta_n = _naive(dataset, fits)
    pi = _values(dataset, fits, "pi")
    theta = theta_n + _mean(dataset.outcome_original() * pi - tau * pi)
    diagnostics = [{"theta_naive": t, **d} for t, d in zip(theta_n.tolist(), _warnings(fits))]
    return ThetaStack(theta, dataset.outcome_mean, diagnostics, pi, tau)


NEWTON_TOL = 1e-10
NEWTON_MAX_STEPS = 50


def _score_and_mu(h: np.ndarray, y: np.ndarray, base: np.ndarray, eps: np.ndarray):
    """Mean score of each row at its eps, and mu = expit(base + eps * h)."""
    mu = expit(base + eps[:, None] * h)
    return _mean(h * (y - mu)), mu


def _offset_logistic_mle(h: np.ndarray, y: np.ndarray, base: np.ndarray) -> np.ndarray:
    """One-dimensional MLE of eps for expit(base + eps * h) against y, for each row of a stack.

    ``h`` and ``base`` are (b, n), ``y`` is (n,) and may be fractional in
    [0, 1]; returns eps (b,).  Each row runs Newton with step-halving on its
    mean score and stops once |score| < NEWTON_TOL; a row whose information
    vanishes or that runs out of NEWTON_MAX_STEPS falls back to bisection.
    Rows that stopped leave the stack, so a row's eps does not depend on it.
    """
    eps_out = np.zeros(len(h))
    s0, mu = _score_and_mu(h, y, base, eps_out)
    rows, hr, br, eps, s = np.arange(len(h)), h, base, eps_out.copy(), s0  # rows still in Newton
    done = np.abs(s0) < NEWTON_TOL
    fallback = []
    for _ in range(NEWTON_MAX_STEPS):
        # ``mu`` is expit(base + eps * h) at each row's current eps.
        info = _mean(hr * hr * mu * (1.0 - mu))
        stuck = ~done & (info <= 0.0)
        fallback += rows[stuck].tolist()
        keep = ~(done | stuck)
        if not keep.all():
            rows, hr, br, eps, s, mu, info = (a[keep] for a in (rows, hr, br, eps, s, mu, info))
        if rows.size == 0:
            break
        # Step-halving: the 30th candidate is taken whatever its score.
        step = s / info
        scale = np.ones(rows.size)
        cand = eps + scale * step
        s_cand, mu_cand = _score_and_mu(hr, y, br, cand)
        for _ in range(29):
            halve = np.flatnonzero(~(np.abs(s_cand) <= np.abs(s)))
            if halve.size == 0:
                break
            scale[halve] *= 0.5
            cand[halve] = eps[halve] + scale[halve] * step[halve]
            s_cand[halve], mu_cand[halve] = _score_and_mu(hr[halve], y, br[halve], cand[halve])
        eps, s, mu = cand, s_cand, mu_cand
        eps_out[rows] = eps
        done = np.abs(s) < NEWTON_TOL
    else:
        fallback += rows[~done].tolist()
    for i in fallback:
        eps_out[i] = _bisect_eps(h[i], y, base[i], float(s0[i]))
    return eps_out


def _bisect_eps(h: np.ndarray, y: np.ndarray, base: np.ndarray, s0: float) -> float:
    """Bisection for one row's eps: expand a bracket around 0 on the sign change of the score from ``s0``."""

    def mean_score(eps: float) -> float:
        return float(_mean(h * (y - expit(base + eps * h))))

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


def fluctuate_pi(state: TmleState, dataset: Dataset) -> np.ndarray:
    """Propensity update of every row along its least-favorable logistic path; returns eps1 (b,).

    The path covariate is H1 = -2 pi (Q1 - Q0) - Q0 and eps1 maximizes the
    Bernoulli log-likelihood of the exposure.  A row whose score at eps = 0
    already vanishes (e.g. saturated fits, or H1 = 0) is left untouched.
    """
    pi = state.pi_values
    h1 = -2.0 * pi * (state.q1_values - state.q0_values) - state.q0_values
    e = dataset.exposure_float
    eps1 = np.zeros(len(pi))
    move = ~(np.abs(_mean(h1 * (e - pi))) < NEWTON_TOL)
    if move.any():
        h1 = h1[move]
        base = logit(_clip_prob(pi[move]))
        eps1[move] = _offset_logistic_mle(h1, e, base)
        state.pi_values = pi.copy()
        state.pi_values[move] = _clip_prob(expit(base + eps1[move, None] * h1))
    return eps1


def fluctuate_q(state: TmleState, dataset: Dataset) -> np.ndarray:
    """Exposure-response update of every row along its least-favorable path; returns eps2 (b,).

    Continuous outcome: linear path Q + eps * H2 with H2 = -pi (updated this
    iteration); eps2 has the closed-form least-squares solution, and a row
    with sum(H2^2) < 1e-14 is left untouched.  Bounded outcome
    (``dataset.outcome_kind``): logistic path on logit(Q) with the Bernoulli
    loss, leaving untouched a row whose score at eps = 0 already vanishes.
    """
    h2 = -state.pi_values
    q_obs = np.where(dataset.arm_masks[1], state.q1_values, state.q0_values)
    o = dataset.outcome
    eps2 = np.zeros(len(h2))
    bounded = dataset.outcome_kind == "bounded"
    if bounded:
        move = ~(np.abs(_mean(h2 * (o - q_obs))) < NEWTON_TOL)
        if move.any():
            eps2[move] = _offset_logistic_mle(h2[move], o, logit(_clip_prob(q_obs[move])))
    else:
        denom = np.add.reduce(h2 * h2, axis=-1)
        move = ~(denom < 1e-14)
        eps2[move] = np.add.reduce(h2[move] * (o - q_obs[move]), axis=-1) / denom[move]
    if move.any():
        shift = eps2[move, None] * h2[move]
        for attr in ("q0_values", "q1_values"):
            q = getattr(state, attr).copy()
            q[move] = _clip_prob(expit(logit(_clip_prob(q[move])) + shift)) if bounded else q[move] + shift
            setattr(state, attr, q)
    return eps2


TMLE_TOL = 1e-8
TMLE_MAX_ITER = 100
_STATE_VALUES = ("pi_values", "q0_values", "q1_values")


def _target(dataset: Dataset, fits: list) -> TmleState:
    """Run the TMLE fluctuation loop on the stack of ``fits``' in-sample values.

    Every row alternates the propensity and exposure-response fluctuations
    until max(|eps1|, |eps2|) < TMLE_TOL or TMLE_MAX_ITER iterations; a row
    that stopped leaves the stack, so its targeted values, trace and
    convergence do not depend on the other rows.
    """
    state = TmleState(
        *(_values(dataset, fits, part) for part in ("pi", "q0", "q1")),
        trace=[[] for _ in fits],
        converged=np.zeros(len(fits), dtype=bool),
    )
    live = TmleState(state.pi_values, state.q0_values, state.q1_values)
    rows = np.arange(len(fits))  # stack rows still iterating
    for _ in range(TMLE_MAX_ITER):
        eps1 = fluctuate_pi(live, dataset)
        eps2 = fluctuate_q(live, dataset)
        for r, pair in zip(rows.tolist(), zip(eps1.tolist(), eps2.tolist())):
            state.trace[r].append(pair)
        for attr in _STATE_VALUES:
            getattr(state, attr)[rows] = getattr(live, attr)
        # max(|eps1|, |eps2|) as Python's max takes it: |eps1| unless |eps2| > |eps1|.
        a1, a2 = np.abs(eps1), np.abs(eps2)
        stop = np.where(a2 > a1, a2, a1) < TMLE_TOL
        state.converged[rows[stop]] = True
        if stop.all():
            break
        if stop.any():
            rows = rows[~stop]
            live = TmleState(*(getattr(live, attr)[~stop] for attr in _STATE_VALUES))
    return state


def tmle_theta(dataset: Dataset, fits: list) -> ThetaStack:
    """Targeted maximum likelihood estimate of theta for each fit, targeted as one stack.

    Targeting alternates the propensity and exposure-response fluctuations
    until both coefficients fall below TMLE_TOL; theta is then the
    substitution estimator mean(pi_hat * tau_hat) over the empirical
    covariate distribution, at which the empirical mean of the efficient
    influence curve vanishes.
    """
    state = _target(dataset, fits)
    pi = state.pi_values
    tau = dataset.to_original_scale(pi * state.q1_values + (1.0 - pi) * state.q0_values)
    # Substitution estimator over the empirical covariate distribution: the
    # fitted exposure law is pi_hat, so E_fit{I(E=1) tau(C)} = mean(pi * tau).
    # This is the form that zeroes the empirical influence-curve equation.
    theta = _mean(pi * tau)
    diagnostics = []
    for fit, trace, converged in zip(fits, state.trace, state.converged.tolist()):
        eps1, eps2 = trace[-1] if trace else (0.0, 0.0)
        warnings = list(fit.warnings)
        if not converged:
            warnings.append(
                f"tmle did not converge in {len(trace)} iterations "
                f"(|eps1|={abs(eps1):.3e}, |eps2|={abs(eps2):.3e})"
            )
        diagnostics.append(
            dict(iterations=len(trace), final_eps1=abs(eps1), final_eps2=abs(eps2), trace=trace, warnings=warnings)
        )
    return ThetaStack(theta, dataset.outcome_mean, diagnostics, pi, tau)


def _score_stack(dataset: Dataset, estimator_kind: str, fits: list) -> list[ScoredRow]:
    """Score a stack of nuisance fits: the estimator's theta, then every row's scores and SEs at once."""
    estimator = {"plugin_om": plugin_scores_om, "plugin_ps": plugin_scores_ps, "dr": theta_dr, "tmle": tmle_theta}
    out = estimator[estimator_kind](dataset, fits)
    mu_e = dataset.exposure_mean
    phi, psi = scores_from_theta(out.theta, out.mu_o, mu_e)
    # psi is undefined where its denominator vanishes; a NaN theta gives a NaN psi, not an undefined one.
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in scores_from_theta
        defined = (~(np.abs(out.mu_o - out.theta) < influence.PSI_DENOM_TOL)).tolist()
    se_phi = se_psi = [None] * len(defined)
    if out.pi is not None:
        theta = out.theta[:, None]
        d_theta = influence.eic_theta(dataset.outcome_original(), dataset.exposure_float, out.pi, out.tau, theta)
        # The influence curves of the plain means mu_O and mu_E are the centered
        # values, shared by every target of the dataset.
        d_means = (dataset.outcome_centered, dataset.exposure_centered)
        se_phi = influence.standard_errors(influence.ic_phi(d_theta, *d_means, theta, out.mu_o, mu_e)).tolist()
        d_psi = influence.ic_psi(d_theta[defined], *d_means, theta[defined], out.mu_o, mu_e)
        se_rows = iter(influence.standard_errors(d_psi).tolist())
        se_psi = [next(se_rows) if ok else None for ok in defined]
        for diagnostics in compress(out.diagnostics, [not ok for ok in defined]):
            diagnostics["warnings"].append("ratio-score influence curve undefined (vanishing denominator)")
    psi = [value if ok else None for value, ok in zip(psi.tolist(), defined)]
    return [ScoredRow(*row) for row in zip(out.theta.tolist(), phi.tolist(), psi, se_phi, se_psi, out.diagnostics)]


def _constant_row(dataset: Dataset, estimator_kind: str) -> ScoredRow:
    """Row of a constant covariate: the null scores phi = 0 and psi = 1 and, for dr/tmle, SEs of 0."""
    se = 0.0 if estimator_kind in INFERENCE_KINDS else None
    diagnostics = {"constant": True, "warnings": ["constant covariate: scores fixed at null"]}
    return ScoredRow(dataset.outcome_mean * dataset.exposure_mean, 0.0, 1.0, se, se, diagnostics)


def score_covariate(
    dataset: Dataset,
    columns,
    estimator_kind: str,
    basis: BasisConfig,
    fit=None,
) -> ScoreEstimate:
    """Estimate the confounding scores of one covariate or covariate group, with SEs for dr and tmle.

    ``fit`` is the target's row of a scored stack (a ScoredRow, which is
    only turned into the estimate), or its nuisance values at the dataset's
    rows (a NuisanceFit from fit_nuisances, fit_saturated or any other
    learner), scored here as a stack of one; without one, the target's
    polynomial parts are fitted here.  A constant target gets the null
    scores whatever its fit.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    cols = _target_columns(columns)
    if not isinstance(fit, ScoredRow):
        if _constant_columns(dataset.covariates[:, cols]).all():
            fit = _constant_row(dataset, estimator_kind)
        else:
            if fit is None:
                fit = fit_nuisances(dataset, [cols], basis, parts=ESTIMATOR_PARTS[estimator_kind])[0]
            fit = _score_stack(dataset, estimator_kind, [fit])[0]
    return ScoreEstimate(_target_id(cols), estimator_kind, *fit)


# Largest design stack fitted at once, in doubles (targets x n x basis width).
STACK_DOUBLES = 2**16


def _score_targets(
    dataset: Dataset, targets: list[tuple[int, ...]], estimator_kind: str, basis: BasisConfig
) -> list[ScoreEstimate]:
    """Score ``targets`` in order, fitting and scoring each run of consecutive same-width targets in stacks.

    A stack holds at most STACK_DOUBLES doubles of design and at least one
    target, and is dropped once its targets are scored; each target's row
    of it goes to ``score_covariate``.  Constant targets are scored without
    a fit.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    constant = _constant_columns(dataset.covariates)
    estimates = []
    stack: list[tuple[int, ...]] = []

    def flush():
        if stack:
            fits = fit_nuisances(dataset, stack, basis, parts=ESTIMATOR_PARTS[estimator_kind])
            for cols, row in zip(stack, _score_stack(dataset, estimator_kind, fits)):
                estimates.append(score_covariate(dataset, cols, estimator_kind, basis, row))
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
