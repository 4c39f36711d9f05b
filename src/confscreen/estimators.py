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
from itertools import compress, groupby
from typing import NamedTuple

import numpy as np

from . import influence
from ._stats import expit, logit
from .data import Dataset, ValidationError
from .nuisance import (
    BasisConfig,
    NuisanceStack,
    _clip_prob,
    _target_columns,
    fit_nuisances,
    fit_saturated,
)

__all__ = [
    "ScoreEstimate",
    "ThetaStack",
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


def scores_from_theta(theta, mu_o, mu_e: float):
    """Map (theta, mu_O, mu_E) to (phi, psi), elementwise over arrays of theta and mu_O.

    phi and psi are arrays (0-d for scalar inputs); psi is NaN where its
    denominator mu_O - theta vanishes.
    """
    influence._check_mu_e(mu_e)
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


def _values(dataset: Dataset, fits, part: str) -> np.ndarray:
    """The (b, n) values, read-only, of nuisance ``part`` ("tau", "pi", "q0" or "q1") of a stack of b targets.

    A NuisanceStack gives its own array; the values of a list of NuisanceFits are checked for shape and stacked.
    """
    stacked = isinstance(fits, NuisanceStack)
    rows = [getattr(fits, part)] if stacked else [getattr(fit, part) for fit in fits]
    for values in rows:
        if values is None:
            raise ValidationError(f"fit has no {part} part")
        if not stacked and np.shape(values) != (dataset.n,):
            raise ValidationError(
                f"fit's {part} values have shape {np.shape(values)}; the dataset has n = {dataset.n} rows"
            )
    stack = rows[0].view() if stacked else np.stack(rows)
    stack.flags.writeable = False
    if not np.isfinite(stack).all():
        raise ValidationError(f"fit's {part} values are not all finite")
    return stack


def _warnings(fits) -> list[dict]:
    """Each target's diagnostics before estimation: a copy of the stack's row warnings, or of each fit's."""
    rows = fits.warnings if isinstance(fits, NuisanceStack) else [fit.warnings for fit in fits]
    return [{"warnings": list(warnings)} for warnings in rows]


def _naive(dataset: Dataset, fits) -> tuple[np.ndarray, np.ndarray]:
    """tau_hat (b, n) at the dataset's covariates and the naive plug-in theta (b,), on the original scale."""
    tau = dataset.to_original_scale(_values(dataset, fits, "tau"))
    return tau, _mean(dataset.exposure_float * tau)


def _target_id(columns: tuple[int, ...]):
    """Id of a target: the column index of a single covariate, else the column tuple."""
    return columns[0] if len(columns) == 1 else columns


def plugin_scores_om(dataset: Dataset, fits) -> ThetaStack:
    """Plug-in theta of each fit from the outcome-regression route (arm means of tau_hat)."""
    tau, theta = _naive(dataset, fits)
    # Under the outcome-model plug-in measure, mu_O is the mean of tau over
    # the empirical covariate distribution; this keeps phi identical to the
    # within-arm mean difference.
    return ThetaStack(theta, _mean(tau), _warnings(fits))


def plugin_scores_ps(dataset: Dataset, fits) -> ThetaStack:
    """Plug-in theta of each fit from the propensity route: E{O pi_hat(C)}; mu_O is mean(O)."""
    theta = _mean(dataset.outcome_original() * _values(dataset, fits, "pi"))
    return ThetaStack(theta, dataset.outcome_mean, _warnings(fits))


def theta_dr(dataset: Dataset, fits) -> ThetaStack:
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


def _offset_logistic_mle(h: np.ndarray, y: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-dimensional MLE of eps for expit(base + eps * h) against y, for each row of a stack.

    ``h`` and ``base`` are (b, n), ``y`` is (n,) and may be fractional in
    [0, 1]; returns eps (b,) and mu = expit(base + eps * h) (b, n) at it.
    Each row runs Newton with step-halving on its mean score and stops once
    |score| < NEWTON_TOL; a row whose information vanishes or that runs out
    of NEWTON_MAX_STEPS falls back to bisection.  A row that stopped leaves
    the stack before the next step, with the mu its last step computed (a
    bisected row's mu is computed once, at its bisected eps), so nothing of
    a row depends on the others.
    """
    eps_out = np.zeros(len(h))
    mu_out = expit(base)  # bitwise expit(base + 0 * h) for finite h
    s0 = _mean(h * (y - mu_out))
    rows, hr, br, eps, s, mu = np.arange(len(h)), h, base, eps_out, s0, mu_out  # rows still in Newton
    fallback = []
    for _ in range(NEWTON_MAX_STEPS):
        # ``mu`` is expit(base + eps * h) at each row's current eps.
        done = np.abs(s) < NEWTON_TOL
        if done.any():
            eps_out[rows[done]], mu_out[rows[done]] = eps[done], mu[done]
            if done.all():
                break
            rows, hr, br, eps, s, mu = (a[~done] for a in (rows, hr, br, eps, s, mu))
        info = _mean(hr * hr * mu * (1.0 - mu))
        stuck = info <= 0.0
        if stuck.any():
            fallback += rows[stuck].tolist()
            if stuck.all():
                break
            rows, hr, br, eps, s, mu, info = (a[~stuck] for a in (rows, hr, br, eps, s, mu, info))
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
    else:
        done = np.abs(s) < NEWTON_TOL
        eps_out[rows[done]], mu_out[rows[done]] = eps[done], mu[done]
        fallback += rows[~done].tolist()
    for i in fallback:
        eps_out[i] = _bisect_eps(h[i], y, base[i], float(s0[i]))
        mu_out[i] = expit(base[i] + eps_out[i] * h[i])
    return eps_out, mu_out


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


def _with_rows(a: np.ndarray, rows, values: np.ndarray) -> np.ndarray:
    """``a`` with its ``rows`` (a mask, or slice(None) for all of them) set to ``values``; ``a`` is not written to."""
    if isinstance(rows, slice):
        return values
    a = a.copy()
    a[rows] = values
    return a


def fluctuate_pi(pi: np.ndarray, q0: np.ndarray, q1: np.ndarray, dataset: Dataset):
    """Propensity update of every row along its least-favorable logistic path; returns (eps1 (b,), pi (b, n)).

    The path covariate is H1 = -2 pi (Q1 - Q0) - Q0 and eps1 maximizes the
    Bernoulli log-likelihood of the exposure; the updated pi is the clipped
    mu that _offset_logistic_mle returns at eps1.  A row whose score at
    eps = 0 already vanishes (e.g. saturated fits, or H1 = 0) keeps its
    values.  No argument is written to.
    """
    h1 = -2.0 * pi * (q1 - q0) - q0
    e = dataset.exposure_float
    eps1 = np.zeros(len(pi))
    move = ~(np.abs(_mean(h1 * (e - pi))) < NEWTON_TOL)
    if move.any():
        move = slice(None) if move.all() else move
        eps1[move], mu = _offset_logistic_mle(h1[move], e, logit(_clip_prob(pi[move])))
        pi = _with_rows(pi, move, _clip_prob(mu))
    return eps1, pi


def fluctuate_q(pi: np.ndarray, q0: np.ndarray, q1: np.ndarray, dataset: Dataset):
    """Exposure-response update of every row along its least-favorable path; returns (eps2 (b,), q0, q1 (b, n)).

    Continuous outcome: linear path Q + eps * H2 with H2 = -pi (updated this
    iteration); eps2 has the closed-form least-squares solution, and a row
    with sum(H2^2) < 1e-14 keeps its values.  Bounded outcome
    (``dataset.outcome_kind``): logistic path on logit(Q) with the Bernoulli
    loss, and a row whose score at eps = 0 already vanishes keeps its values.
    No argument is written to.
    """
    h2 = -pi
    q_obs = np.where(dataset.arm_masks[1], q1, q0)
    o = dataset.outcome
    eps2 = np.zeros(len(h2))
    bounded = dataset.outcome_kind == "bounded"
    if bounded:
        move = ~(np.abs(_mean(h2 * (o - q_obs))) < NEWTON_TOL)
    else:
        denom = np.add.reduce(h2 * h2, axis=-1)
        move = ~(denom < 1e-14)
    if not move.any():
        return eps2, q0, q1
    move = slice(None) if move.all() else move
    if bounded:
        eps2[move] = _offset_logistic_mle(h2[move], o, logit(_clip_prob(q_obs[move])))[0]
    else:
        eps2[move] = np.add.reduce(h2[move] * (o - q_obs[move]), axis=-1) / denom[move]
    shift = eps2[move, None] * h2[move]
    q0, q1 = (
        _with_rows(q, move, _clip_prob(expit(logit(_clip_prob(q[move])) + shift)) if bounded else q[move] + shift)
        for q in (q0, q1)
    )
    return eps2, q0, q1


TMLE_TOL = 1e-8
TMLE_MAX_ITER = 100


def _target(dataset: Dataset, fits):
    """Run the TMLE fluctuation loop on the stack of ``fits``' in-sample values.

    Every row alternates the propensity and exposure-response fluctuations
    until max(|eps1|, |eps2|) < TMLE_TOL or TMLE_MAX_ITER iterations; a row
    that stopped leaves the stack, so nothing of it depends on the other
    rows.  Returns the targeted (pi, q0, q1) (b, n), and each row's
    iteration count (b,), last (|eps1|, |eps2|) (2, b) and convergence (b,).
    """
    live = [_values(dataset, fits, part) for part in ("pi", "q0", "q1")]
    values = [v.copy() for v in live]
    iterations = np.zeros(len(fits), dtype=int)
    final_eps = np.zeros((2, len(fits)))
    converged = np.zeros(len(fits), dtype=bool)
    rows = np.arange(len(fits))  # stack rows still iterating
    for it in range(1, TMLE_MAX_ITER + 1):
        eps1, live[0] = fluctuate_pi(*live, dataset)
        eps2, live[1], live[2] = fluctuate_q(*live, dataset)
        # max(|eps1|, |eps2|) as Python's max takes it: |eps1| unless |eps2| > |eps1|.
        a1, a2 = np.abs(eps1), np.abs(eps2)
        stop = np.where(a2 > a1, a2, a1) < TMLE_TOL
        leave = stop | (it == TMLE_MAX_ITER)
        if leave.any():
            done = rows[leave]
            for full, part in zip(values, live):
                full[done] = part[leave]
            iterations[done] = it
            final_eps[:, done] = a1[leave], a2[leave]
            converged[done] = stop[leave]
            if leave.all():
                break
            rows, *live = [a[~leave] for a in (rows, *live)]
    return values, iterations, final_eps, converged


def tmle_theta(dataset: Dataset, fits) -> ThetaStack:
    """Targeted maximum likelihood estimate of theta for each fit, targeted as one stack.

    Targeting alternates the propensity and exposure-response fluctuations
    until both coefficients fall below TMLE_TOL; theta is then the
    substitution estimator mean(pi_hat * tau_hat) over the empirical
    covariate distribution, at which the empirical mean of the efficient
    influence curve vanishes.
    """
    (pi, q0, q1), iterations, final_eps, converged = _target(dataset, fits)
    tau = dataset.to_original_scale(pi * q1 + (1.0 - pi) * q0)
    # Substitution estimator over the empirical covariate distribution: the
    # fitted exposure law is pi_hat, so E_fit{I(E=1) tau(C)} = mean(pi * tau).
    # This is the form that zeroes the empirical influence-curve equation.
    theta = _mean(pi * tau)
    diagnostics = []
    for d, n_iter, eps1, eps2, ok in zip(_warnings(fits), iterations.tolist(), *final_eps.tolist(), converged.tolist()):
        if not ok:
            d["warnings"].append(f"tmle did not converge in {n_iter} iterations (|eps1|={eps1:.3e}, |eps2|={eps2:.3e})")
        diagnostics.append(dict(iterations=n_iter, final_eps1=eps1, final_eps2=eps2, **d))
    return ThetaStack(theta, dataset.outcome_mean, diagnostics, pi, tau)


def _score_stack(dataset: Dataset, estimator_kind: str, fits) -> list[ScoredRow]:
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


def score_covariate(dataset: Dataset, columns, estimator_kind: str, basis: BasisConfig, fit=None) -> ScoreEstimate:
    """Estimate the confounding scores of one covariate or covariate group, with SEs for dr and tmle.

    ``fit`` is the target's row of a scored stack (a ScoredRow, made from a
    NuisanceStack's arrays, which is only turned into the estimate), or its
    nuisance values at the dataset's rows: a NuisanceFit, the one-target API,
    from ``fit_nuisances(...)[i]``, fit_saturated or any other learner, scored
    here as a stack of one.  Without one, the target is fitted here.  A
    constant target gets the null scores whatever its fit.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    cols = _target_columns(columns)
    if not isinstance(fit, ScoredRow):
        if dataset.constant_columns[list(cols)].all():
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

    The constant targets of a run are found at once and get the null scores
    without a fit.  The others are fitted in stacks of at most STACK_DOUBLES
    doubles of design and at least one target, whose (b, n) arrays go to the
    estimator as they are; a stack is dropped once its targets are scored.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    estimates, parts = [], ESTIMATOR_PARTS[estimator_kind]
    for width, run in groupby(targets, key=len):
        run = list(run)
        constant = dataset.constant_columns[np.array(run, dtype=np.intp).reshape(len(run), width)].all(axis=1)
        rows = [_constant_row(dataset, estimator_kind) if c else None for c in constant.tolist()]
        fitted = np.flatnonzero(~constant).tolist()
        size = max(1, STACK_DOUBLES // (dataset.n * basis.width(width)))
        for start in range(0, len(fitted), size):
            stack = fitted[start : start + size]
            fits = fit_nuisances(dataset, [run[i] for i in stack], basis, parts)
            for i, row in zip(stack, _score_stack(dataset, estimator_kind, fits)):
                rows[i] = row
            del fits  # dropped before the next stack is fitted
        # Per target still: perfbench's span map reads these calls' estimates (ROADMAP item 1).
        estimates += [score_covariate(dataset, cols, estimator_kind, basis, row) for cols, row in zip(run, rows)]
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
        return [score_covariate(dataset, j, estimator_kind, basis, fit_saturated(dataset, j)) for j in range(dataset.p)]
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
