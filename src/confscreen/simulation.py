"""Synthetic designs, ground-truth oracles, and selection-quality evaluation.

Reproducibility: all draws come from the Philox-4x64-10 counter-based
generator.  Replicate ``r`` of seed ``s`` uses the substream with key ``s``
and counter offset ``r * 2**128``, so replicates are order-independent.
Gaussian variates are produced by applying the rational-approximation
normal quantile to Philox uniforms, which keeps streams platform-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import _fork
from ._stats import expit, norm_ppf
from .data import Dataset, ValidationError
from .estimators import INFERENCE_KINDS, SLICE_MIN_DOUBLES, score_all
from .influence import _wald_rows
from .nuisance import BasisConfig, _target_columns
from .ranking import _order, _rank_scores

__all__ = [
    "SimScenario",
    "SimulatedData",
    "SimResult",
    "OracleValue",
    "substream",
    "generate",
    "uniform_closed_form_phi",
    "oracle_phi",
    "evaluate_selection",
    "roc_curve",
    "roc_auc",
    "run_replicates",
]

LABEL_CONFOUNDER = "confounder"
LABEL_PRECISION = "precision"
LABEL_INSTRUMENT = "instrument"
LABEL_SPURIOUS = "spurious"


@dataclass(frozen=True)
class SimScenario:
    """Parameters of one synthetic design."""

    kind: str
    n: int = 500
    p: int = 30
    rho: float = 0.0
    theta: float = 0.0
    seed: int = 0
    replicates: int = 1
    # uniform_closed_form only: exposure / outcome coefficients and intercept.
    alphas: tuple[float, ...] | None = None
    betas: tuple[float, ...] | None = None
    beta0: float = 0.0

    def __post_init__(self):
        if self.kind not in _DESIGNS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.n < 2 or self.p < 1 or self.replicates < 1:
            raise ValidationError("n >= 2, p >= 1, replicates >= 1 required")
        if not (0.0 <= self.rho < 1.0):
            raise ValidationError("rho must lie in [0, 1)")
        if not (0 <= self.seed < 2**128):
            raise ValidationError(f"seed must lie in [0, 2^128), got {self.seed}")
        if self.kind != "uniform_closed_form":
            if self.p < 15:
                raise ValidationError(f"{self.kind} designs need p >= 15")
            if self.alphas is not None or self.betas is not None or self.beta0 != 0.0:
                name = "alphas" if self.alphas is not None else "betas" if self.betas is not None else "beta0"
                raise ValidationError(f"scenario field {name!r} acts only in uniform_closed_form designs")
            return
        if self.alphas is None or self.betas is None:
            raise ValidationError("uniform design needs alphas and betas")
        alphas = np.asarray(self.alphas, dtype=float)
        if alphas.size != self.p or len(self.betas) != self.p:
            raise ValidationError("alphas and betas must have length p")
        if np.any(alphas < 0.0) or not 0.0 < alphas.sum() <= 1.0 + 1e-12:
            raise ValidationError("uniform design needs 'alphas' >= 0 with a sum in (0, 1]")


@dataclass(frozen=True)
class SimulatedData:
    dataset: Dataset
    labels: tuple[str, ...]


@dataclass(frozen=True)
class OracleValue:
    value: float
    mc_se: float


def substream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Counter-derived Philox substream for one replicate."""
    bitgen = np.random.Philox(key=int(seed), counter=int(replicate) * (1 << 128))
    return np.random.Generator(bitgen)


def _uniforms(gen: np.random.Generator, size) -> np.ndarray:
    u = gen.random(size)
    np.maximum(u, 1e-300, out=u)
    return np.minimum(u, 1.0 - 1e-16, out=u)


def _normals(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normals of shape ``size``, written over the array of their own uniforms."""
    u = _uniforms(gen, size)
    return norm_ppf(u, out=u)


def design_coefficients(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Exposure (alpha) and outcome (beta) coefficient vectors of the
    correlated-Gaussian designs: confounders 1-5, precision 6-10,
    instruments 11-15, remainder spurious."""
    alphas = np.zeros(p)
    betas = np.zeros(p)
    alphas[0:5] = 1.0
    alphas[10:15] = 1.0
    betas[0:10] = 0.6
    return alphas, betas


def _labels(alphas, betas) -> tuple[str, ...]:
    """Each covariate's role from its exposure (alpha) and outcome (beta) coefficients.

    Confounder where alpha > 0 and beta != 0, instrument where only alpha > 0,
    precision where only beta != 0, otherwise spurious.
    """
    roles = {
        (True, True): LABEL_CONFOUNDER,
        (True, False): LABEL_INSTRUMENT,
        (False, True): LABEL_PRECISION,
        (False, False): LABEL_SPURIOUS,
    }
    return tuple(roles[bool(a > 0.0), bool(b != 0.0)] for a, b in zip(alphas, betas))


def _ar1_covariates(gen: np.random.Generator, n: int, p: int, rho: float) -> np.ndarray:
    """(n, p) standard-normal columns, AR(1) with lag-one correlation ``rho``, drawn in place."""
    c = _normals(gen, (n, p))
    if rho != 0.0:
        scale = np.sqrt(1.0 - rho * rho)
        for j in range(1, p):
            c[:, j] = rho * c[:, j - 1] + scale * c[:, j]
    return c


def _draw_gaussian(scenario: SimScenario, gen: np.random.Generator):
    """Correlated-Gaussian design with linear outcome and logistic exposure.

    It is also the ``high_dim`` design, whose extra columns are spurious.
    """
    n, p = scenario.n, scenario.p
    c = _ar1_covariates(gen, n, p, scenario.rho)
    alphas, betas = design_coefficients(p)
    e = _uniforms(gen, n) < expit(c @ alphas)
    return scenario.theta * e + c @ betas + _normals(gen, n), e, c, alphas, betas


def _mis_f(j: int, c: np.ndarray) -> np.ndarray:
    """Per-covariate exposure-model term of the misspecified design (0-based j)."""
    if 0 <= j < 5:
        return 3.0 * np.sin(3.0 * c)
    if 10 <= j < 15:
        return c**3 - c + 3.0
    return np.zeros_like(c)


def _mis_g(j: int, c: np.ndarray) -> np.ndarray:
    """Per-covariate outcome-model term of the misspecified design (0-based j)."""
    if 0 <= j < 5:
        return 1.8 * np.sin(3.0 * c)
    if 5 <= j < 10:
        return 1.8 * np.cos(4.0 * c)
    return np.zeros_like(c)


def _draw_misspecified(scenario: SimScenario, gen: np.random.Generator):
    """Nonlinear design: sinusoidal/cubic terms in both models, C ~ N(0, I)."""
    n, p = scenario.n, scenario.p
    c = _normals(gen, (n, p))
    logits = np.full(n, -15.0)
    g_sum = np.zeros(n)
    for j in range(15):
        logits += _mis_f(j, c[:, j])
        g_sum += _mis_g(j, c[:, j])
    e = _uniforms(gen, n) < expit(logits)
    return scenario.theta * e + g_sum + _normals(gen, n), e, c, *design_coefficients(p)


def _draw_uniform(scenario: SimScenario, gen: np.random.Generator):
    """Uniform-covariate design with a linear-probability exposure model."""
    n, p = scenario.n, scenario.p
    alphas = np.asarray(scenario.alphas, dtype=float)
    betas = np.asarray(scenario.betas, dtype=float)
    c = _uniforms(gen, (n, p))
    e = _uniforms(gen, n) < c @ alphas
    return scenario.beta0 + scenario.theta * e + c @ betas + _normals(gen, n), e, c, alphas, betas


@cache
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 64-node Gauss-Hermite quadrature, computed on first use."""
    return np.polynomial.hermite.hermgauss(64)


def _gh_expit_mean(mean: np.ndarray, sd: float) -> np.ndarray:
    """E expit(mean + sd * Z) for Z ~ N(0,1), by 64-node Gauss-Hermite."""
    if sd == 0.0:
        return expit(mean)
    nodes, weights = _gauss_hermite()
    shifted = mean[:, None] + np.sqrt(2.0) * sd * nodes[None, :]
    return (expit(shifted) @ weights) / np.sqrt(np.pi)


def _oracle_gaussian(scenario: SimScenario, cols, gen: np.random.Generator):
    p = scenario.p
    sigma = scenario.rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))  # AR(1), unit diagonal
    alphas, betas = design_coefficients(p)
    cols = list(cols)
    sigma_gg = sigma[np.ix_(cols, cols)]
    sigma_g_all = sigma[cols, :]
    a = np.linalg.solve(sigma_gg, sigma_g_all @ alphas)  # E[L | C_G] weights
    b = np.linalg.solve(sigma_gg, sigma_g_all @ betas)  # outcome projection weights
    s = np.sqrt(max(alphas @ sigma @ alphas - (sigma_g_all @ alphas) @ a, 0.0))  # SD of L given C_G
    chol = np.linalg.cholesky(sigma_gg)

    def draw(m):
        cg = _normals(gen, (m, len(cols))) @ chol.T
        l_mean = cg @ a
        l = l_mean + s * _normals(gen, m)
        e = _uniforms(gen, m) < expit(l)
        tau = cg @ b
        if scenario.theta != 0.0:
            tau = tau + scenario.theta * _gh_expit_mean(l_mean, s)
        return tau, e

    return draw


def _oracle_uniform(scenario: SimScenario, cols, gen: np.random.Generator):
    alphas = np.asarray(scenario.alphas, dtype=float)
    betas = np.asarray(scenario.betas, dtype=float)
    p = scenario.p
    cols = list(cols)
    rest_alpha_mean = np.delete(alphas, cols).sum() / 2.0
    rest_beta_mean = np.delete(betas, cols).sum() / 2.0

    def draw(m):
        c = _uniforms(gen, (m, p))
        e = _uniforms(gen, m) < c @ alphas
        cg = c[:, cols]
        tau = (
            scenario.beta0
            + cg @ betas[cols]
            + scenario.theta * (cg @ alphas[cols] + rest_alpha_mean)
            + rest_beta_mean
        )
        return tau, e

    return draw


_MIS_INNER = 4096  # draws of the other exposure terms that P(E = 1 | C_j) averages over


def _oracle_misspecified(scenario: SimScenario, cols, gen: np.random.Generator):
    if len(cols) != 1:
        raise ValidationError("misspecified oracle supports single covariates only")
    j = cols[0]

    # Mean outcome contribution of the other covariates (independent normals).
    nodes, weights = _gauss_hermite()
    z = np.sqrt(2.0) * nodes
    w = weights / np.sqrt(np.pi)
    g_rest = sum(float(_mis_g(k, z) @ w) for k in range(15) if k != j)

    if scenario.theta != 0.0:
        # Empirical distribution of the exposure-model terms excluding j,
        # drawn before any Monte Carlo draw.
        r_inner = np.full(_MIS_INNER, -15.0)
        zi = _normals(gen, (_MIS_INNER, 15))
        for k in range(15):
            if k != j:
                r_inner += _mis_f(k, zi[:, k])
        # P(E = 1 | C_j) where the exposure term of j vanishes: the same for every draw.
        p_free = expit(r_inner).mean()

    def draw(m):
        c = _normals(gen, (m, 15))
        logits = np.full(m, -15.0)
        for k in range(15):
            logits += _mis_f(k, c[:, k])
        e = _uniforms(gen, m) < expit(logits)
        cj = c[:, j] if j < 15 else _normals(gen, m)
        tau = _mis_g(j, cj) + g_rest
        if scenario.theta != 0.0:
            fj = _mis_f(j, cj)
            p_e = p_free
            if fj.any():
                p_e = np.empty(m)
                block = 8192  # bounds the m-by-inner expit buffer
                for lo in range(0, m, block):
                    p_e[lo : lo + block] = expit(fj[lo : lo + block, None] + r_inner[None, :]).mean(axis=1)
            tau = tau + scenario.theta * p_e
        return tau, e

    return draw


# kind -> (draw, oracle, chunk).  draw(scenario, gen) returns one replicate drawn
# from ``gen`` as (outcome, exposure as bool, covariates) and the alphas and betas
# its labels come from.  oracle(scenario, cols, gen) returns draw(m) -> (tau, e),
# m draws of the exposure and of tau, the outcome mean given the target's columns;
# oracle_phi takes its arm means ``chunk`` draws at a time.
_DESIGNS = {
    "low_dim": (_draw_gaussian, _oracle_gaussian, 1_000_000),
    "high_dim": (_draw_gaussian, _oracle_gaussian, 1_000_000),
    "misspecified": (_draw_misspecified, _oracle_misspecified, 200_000),
    "uniform_closed_form": (_draw_uniform, _oracle_uniform, 1_000_000),
}


def generate(scenario: SimScenario, replicate: int = 0) -> SimulatedData:
    """Replicate ``replicate`` of the scenario's design, drawn from its own substream."""
    draw, _, _ = _DESIGNS[scenario.kind]
    y, e, c, alphas, betas = draw(scenario, substream(scenario.seed, replicate))
    names = tuple(f"c{j + 1}" for j in range(scenario.p))
    dataset = Dataset(outcome=y, exposure=e.astype(np.int64), covariates=c, column_names=names)
    return SimulatedData(dataset=dataset, labels=_labels(alphas, betas))


def uniform_closed_form_phi(scenario: SimScenario, j: int) -> float:
    """Analytic difference score of the uniform design: alpha_j (beta_j + theta alpha_j) / (3 A (2 - A)).

    A is the total exposure weight, so the marginal exposure rate is A / 2;
    at A = 1 the score is (alpha_j / 3)(beta_j + theta alpha_j).
    """
    total = math.fsum(scenario.alphas)
    alpha = scenario.alphas[j]
    return (alpha / (3.0 * total * (2.0 - total))) * (scenario.betas[j] + scenario.theta * alpha)


def _monte_carlo(draw, mc_size: int, chunk: int) -> OracleValue:
    """Arm means of tau over ``mc_size`` draws, made ``chunk`` at a time by ``draw(m)`` -> (tau, e),
    and the delta-method Monte Carlo SE of their difference, from streaming sums."""
    s = np.zeros(6)  # n1, sum1, sumsq1, n0, sum0, sumsq0
    for start in range(0, mc_size, chunk):
        tau, e = draw(min(chunk, mc_size - start))
        w1 = e.astype(float)
        s += [x for w in (w1, 1.0 - w1) for x in (w.sum(), (w * tau).sum(), (w * tau * tau).sum())]
    n1, s1, ss1, n0, s0, ss0 = s
    if n1 == 0 or n0 == 0:
        raise ValidationError("oracle Monte Carlo produced an empty exposure arm")
    m1, m0 = s1 / n1, s0 / n0
    p1, p0 = n1 / mc_size, n0 / mc_size
    v1 = (ss1 - 2.0 * m1 * s1 + m1 * m1 * n1) / mc_size
    v0 = (ss0 - 2.0 * m0 * s0 + m0 * m0 * n0) / mc_size
    var_d = v1 / p1**2 + v0 / p0**2
    return OracleValue(value=float(m1 - m0), mc_se=float(np.sqrt(max(var_d, 0.0) / mc_size)))


def oracle_phi(scenario: SimScenario, target, mc_size: int = 10_000_000, oracle_seed: int = 777) -> OracleValue:
    """Ground-truth difference score from the known data-generating law.

    Independent of the estimator path: tau is evaluated from the generating
    equations (conditional laws integrated by 64-node Gauss-Hermite
    quadrature where a Gaussian residual predictor appears), and the arm
    means are taken over a fresh Monte-Carlo sample of ``mc_size`` draws
    from the substream of ``oracle_seed``.
    """
    cols = _target_columns(target)
    if any(not 0 <= j < scenario.p for j in cols):
        raise ValidationError("oracle target out of range")
    _, oracle, chunk = _DESIGNS[scenario.kind]
    return _monte_carlo(oracle(scenario, cols, substream(oracle_seed, 0)), int(mc_size), chunk)


def evaluate_selection(selected, labels) -> tuple[float, float]:
    """Sensitivity and specificity of a selected index set against truth labels.

    Only the confounder label counts as positive; precision and
    instrumental variables are negatives.
    """
    labels = list(labels)
    selected = set(int(j) for j in selected)
    for j in sorted(selected):
        if not 0 <= j < len(labels):
            raise ValidationError(f"selected index {j} is out of range for {len(labels)} labels")
    confounders = {j for j, lab in enumerate(labels) if lab == LABEL_CONFOUNDER}
    others = set(range(len(labels))) - confounders
    sens = len(selected & confounders) / len(confounders) if confounders else 1.0
    spec = len(others - selected) / len(others) if others else 1.0
    return sens, spec


def roc_curve(distances, labels) -> np.ndarray:
    """ROC points (sensitivity, 1 - specificity) sweeping top-K for K = 0..p.

    Covariates are ranked as ``rank`` ranks them: by descending distance,
    ties broken by ascending index.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.shape != (len(labels),):
        raise ValidationError(f"{distances.size} distances but {len(labels)} labels")
    return _roc_along(_order(distances), labels)


def _roc_along(order, labels) -> np.ndarray:
    """ROC points of the ranking that lists the covariate indices ``order`` first to last.

    Counts cumulate along the ranking; the rates are those of ``evaluate_selection``.
    """
    positive = np.array([lab == LABEL_CONFOUNDER for lab in labels], dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    tp = np.cumsum(positive[np.asarray(order)])
    fp = np.arange(1, tp.size + 1) - tp
    sens = tp / n_pos if n_pos else np.ones(tp.size)
    fpr = 1.0 - (n_neg - fp) / n_neg if n_neg else np.zeros(tp.size)
    return np.vstack([[0.0, 0.0], np.column_stack([sens, fpr])])


def roc_auc(points: np.ndarray) -> float:
    points = np.asarray(points, dtype=float)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(points[:, 0], points[:, 1]))


@dataclass
class SimResult:
    """Per-replicate selection metrics and their aggregates."""

    scenario: SimScenario
    estimator_kind: str
    sensitivity: np.ndarray
    specificity: np.ndarray
    phi_hats: np.ndarray  # (replicates, p)
    se_hats: np.ndarray  # (replicates, p)
    coverage: np.ndarray | None  # (replicates, p) indicator, or None
    roc_mean: np.ndarray  # (p + 1, 2)
    oracle_values: np.ndarray | None = None
    aggregates: dict = field(default_factory=dict)


def run_replicates(
    scenario: SimScenario,
    estimator_kind: str = "tmle",
    basis: BasisConfig | None = None,
    score_kind: str = "difference",
    rule: tuple = ("alpha_test", 0.10),
    alpha: float = 0.10,
    oracle_values=None,
) -> SimResult:
    """Run the scenario's replicates and collect selection metrics.

    Each replicate is ranked, selected by ``rule`` and swept for the ROC
    by the ranking step of ``ranking.rank`` with ``rule`` and ``alpha``,
    with no ``RankRow`` built.
    ``oracle_values`` (length-p array) enables per-covariate CI coverage
    indicators, which need an estimator with inference (dr or tmle); pass
    None to skip coverage.  The replicates are handed out one at a time
    among this process and forked children, as a screen's stacks are
    (_fork.map_split); a replicate depends on no other and the ROC points
    are summed in replicate order, so the result is that of one process.
    """
    basis = basis or BasisConfig()
    reps, p = scenario.replicates, scenario.p
    oracle = None if oracle_values is None else np.asarray(oracle_values, dtype=float)
    if oracle is not None and estimator_kind not in INFERENCE_KINDS:
        raise ValidationError(f"oracle coverage needs a dr or tmle estimator; {estimator_kind!r} gives no CI")
    if oracle is not None and oracle.shape != (p,):
        raise ValidationError(f"{oracle.size} oracle values for {p} covariates")

    def replicate(r):
        """Replicate r's (sensitivity, specificity), phi, se_phi and coverage rows (None without them), ROC and labels."""
        sim = generate(scenario, r)
        estimates = score_all(sim.dataset, estimator_kind, basis)
        order, selected, wald, _ = _rank_scores(estimates, score_kind, rule, alpha)
        rates = evaluate_selection(np.flatnonzero(selected).tolist(), sim.labels)
        phi = np.array([est.phi_hat for est in estimates])
        se = cover = None
        if estimator_kind in INFERENCE_KINDS:
            se = np.array([est.se_phi for est in estimates])
            if oracle is not None:
                # A difference score's Wald step is already the one of phi.
                lo, hi, _ = wald if score_kind == "difference" else _wald_rows(phi, se, 0.0, alpha)
                cover = (lo <= oracle) & (oracle <= hi)
        return rates, phi, se, cover, _roc_along(order, sim.labels), sim.labels

    work = scenario.n * p * basis.width(1)
    rows = _fork.map_split(replicate, list(range(reps)), [work] * reps, SLICE_MIN_DOUBLES)
    rates, phis, ses, hits, rocs, labels = zip(*rows)
    sens = np.array([sens for sens, _ in rates])
    spec = np.array([spec for _, spec in rates])
    phis = np.array(phis)
    ses = np.array(ses) if estimator_kind in INFERENCE_KINDS else np.full((reps, p), np.nan)
    cover = None if oracle is None else np.array(hits, dtype=float)
    roc_sum = np.zeros((p + 1, 2))
    for roc in rocs:  # in replicate order, as one process adds them
        roc_sum += roc

    roc_mean = roc_sum / reps
    aggregates = {
        "mean_sensitivity": float(sens.mean()),
        "mean_specificity": float(spec.mean()),
        "se_sensitivity": float(sens.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        "se_specificity": float(spec.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        "mean_phi": phis.mean(axis=0).tolist(),
        "mc_se_phi": (phis.std(axis=0, ddof=1) / np.sqrt(reps)).tolist() if reps > 1 else [0.0] * p,
        "labels": list(labels[-1]),
    }
    if cover is not None:
        aggregates["coverage"] = cover.mean(axis=0).tolist()
    return SimResult(
        scenario=scenario,
        estimator_kind=estimator_kind,
        sensitivity=sens,
        specificity=spec,
        phi_hats=phis,
        se_hats=ses,
        coverage=cover,
        roc_mean=roc_mean,
        oracle_values=oracle,
        aggregates=aggregates,
    )
