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


@dataclass
class TmleState:
    """Iteration state of the TMLE fluctuation loop for a stack of targets.

    Row i of the (b, n) fitted values belongs to ``fits[i]``; ``trace[i]``
    lists that row's (eps1, eps2) per iteration and ``converged[i]`` says
    whether its loop stopped under the tolerance.
    """

    pi_values: np.ndarray
    q0_values: np.ndarray
    q1_values: np.ndarray
    fits: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    converged: np.ndarray | None = None

    def row(self, i: int) -> TmleState:
        """Target i's state as a stack of one, on views of this stack's rows."""
        r = slice(i, i + 1)
        return TmleState(
            self.pi_values[r], self.q0_values[r], self.q1_values[r], self.fits[r], self.trace[r], self.converged[r]
        )


def scores_from_theta(theta: float, mu_o: float, mu_e: float) -> tuple[float, float | None]:
    """Map (theta, mu_O, mu_E) to (phi, psi); psi is None when its denominator vanishes."""
    if not (0.0 < mu_e < 1.0):
        raise ValidationError("mu_E must lie strictly inside (0, 1)")
    exposed = theta / mu_e
    unexposed = (mu_o - theta) / (1.0 - mu_e)
    phi = exposed - unexposed
    if abs(mu_o - theta) < influence.PSI_DENOM_TOL:
        return phi, None
    return phi, exposed / unexposed


def _mean(x: np.ndarray):
    """``np.mean`` over the last axis without its wrapper: the same sums, the same result.

    A row of a (b, n) stack gets the same mean, bit for bit, as that row alone.
    """
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _values(dataset: Dataset, fit, part: str) -> np.ndarray:
    """``fit``'s values of nuisance ``part`` ("tau", "pi", "q0" or "q1") at the dataset's rows."""
    values = getattr(fit, part)
    if values is None:
        raise ValidationError(f"fit has no {part} part")
    shape = np.shape(values)
    if shape != (dataset.n,):
        raise ValidationError(f"fit's {part} values have shape {shape}; the dataset has n = {dataset.n} rows")
    return values


def _naive(dataset: Dataset, fit) -> tuple[np.ndarray, float]:
    """tau_hat at the dataset's covariates and the naive plug-in theta, both on the original scale."""
    tau = dataset.to_original_scale(_values(dataset, fit, "tau"))
    return tau, float(_mean(dataset.exposure_float * tau))


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
    pi = _values(dataset, fit, "pi")
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
    pi = _values(dataset, fit, "pi")
    theta = theta_n + float(_mean(dataset.outcome_original() * pi - tau * pi))
    diagnostics = {"theta_naive": theta_n, "warnings": list(fit.warnings)}
    return _finalize_efficient(dataset, "dr", fit, theta, pi, tau, diagnostics)


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
        *(np.stack([_values(dataset, fit, part) for fit in fits]) for part in ("pi", "q0", "q1")),
        fits=list(fits),
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


def tmle_theta(dataset: Dataset, fit) -> ScoreEstimate:
    """Targeted maximum likelihood estimate of theta and the derived scores.

    ``fit`` is the target's nuisance fit, targeted here as a stack of one,
    or its already targeted TmleState (a ``TmleState.row`` of a targeted
    stack).  Targeting alternates the propensity and exposure-response
    fluctuations until both coefficients fall below TMLE_TOL; theta is then
    the substitution estimator mean(pi_hat * tau_hat) over the empirical
    covariate distribution, at which the empirical mean of the efficient
    influence curve vanishes.
    """
    state = fit if isinstance(fit, TmleState) else _target(dataset, [fit])
    pi, q0, q1 = state.pi_values[0], state.q0_values[0], state.q1_values[0]
    trace = state.trace[0]
    eps1, eps2 = trace[-1] if trace else (0.0, 0.0)
    tau = dataset.to_original_scale(pi * q1 + (1.0 - pi) * q0)
    # Substitution estimator over the empirical covariate distribution: the
    # fitted exposure law is pi_hat, so E_fit{I(E=1) tau(C)} = mean(pi * tau).
    # This is the form that zeroes the empirical influence-curve equation.
    theta = float(_mean(pi * tau))
    diagnostics = {
        "iterations": len(trace),
        "final_eps1": abs(eps1),
        "final_eps2": abs(eps2),
        "trace": list(trace),
        "warnings": list(state.fits[0].warnings),
    }
    if not state.converged[0]:
        diagnostics["warnings"].append(
            f"tmle did not converge in {len(trace)} iterations "
            f"(|eps1|={abs(eps1):.3e}, |eps2|={abs(eps2):.3e})"
        )
    return _finalize_efficient(dataset, "tmle", state.fits[0], theta, pi, tau, diagnostics)


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

    ``fit`` holds the target's nuisance values at the dataset's rows (a
    NuisanceFit from fit_nuisances, fit_saturated or any other learner) or,
    for tmle, its targeted TmleState; without one, the target's polynomial
    parts are fitted here as a stack of one.
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
    target; for tmle its fits are then targeted as one stack.  The stack is
    dropped once its targets are scored.  Constant targets are scored
    without a fit.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    constant = _constant_columns(dataset.covariates)
    estimates = []
    stack: list[tuple[int, ...]] = []

    def flush():
        if stack:
            fits = fit_nuisances(dataset, stack, basis, parts=ESTIMATOR_PARTS[estimator_kind])
            if estimator_kind == "tmle":
                targeted = _target(dataset, fits)
                fits = [targeted.row(i) for i in range(len(fits))]
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
