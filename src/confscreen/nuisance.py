"""Per-covariate (or per-group) nuisance models.

Three functions are fitted on a shared polynomial basis of the standardized
covariate(s): the outcome regression tau(c) = E(O | C=c), the propensity
pi(c) = Pr(E=1 | C=c), and the per-arm adjusted exposure-response model
Q(e, c) = E(O | E=e, C=c).  Estimator code depends only on the evaluable
interface (`tau_at`, `pi_at`, `q_at`, `compose_tau_at`), so other learners
can replace the polynomial fits without touching downstream code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._stats import expit, logit
from .data import Dataset, ValidationError

__all__ = [
    "BasisConfig",
    "NuisanceFit",
    "SaturatedFit",
    "fit_nuisances",
    "fit_saturated",
]

PROB_CLIP = 1e-6
MAX_SATURATED_LEVELS = 64


@dataclass(frozen=True)
class BasisConfig:
    """Raw-power polynomial basis of the standardized covariate(s).

    Groups use the union of per-member power bases (additive); setting
    ``interactions`` adds pairwise products of the standardized members.
    """

    degree: int = 3
    include_intercept: bool = True
    interactions: bool = False

    def __post_init__(self):
        if not (1 <= self.degree <= 12):
            raise ValidationError("basis degree must lie in 1..12")


def _design_matrix(z: np.ndarray, basis: BasisConfig) -> np.ndarray:
    """Basis expansion of standardized columns ``z`` with shape (n, m)."""
    n, m = z.shape
    cols = []
    if basis.include_intercept:
        cols.append(np.ones(n))
    for j in range(m):
        zj = z[:, j]
        power = zj.copy()
        for _ in range(basis.degree):
            cols.append(power)
            power = power * zj
    if basis.interactions:
        for a in range(m):
            for b in range(a + 1, m):
                cols.append(z[:, a] * z[:, b])
    return np.column_stack(cols)


def _solve_lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least squares via column-pivoted QR with a ridge fallback.

    Returns (coefficients, used_ridge).  On rank deficiency the system is
    re-solved with penalty 1e-8 * trace(X'X) / n_basis.
    """
    n, p = X.shape
    q, r, perm = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(n, p) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank == p:
        beta_perm = scipy.linalg.solve_triangular(r, q.T @ y)
        beta = np.empty(p)
        beta[perm] = beta_perm
        return beta, False
    xtx = X.T @ X
    lam = 1e-8 * np.trace(xtx) / p
    beta = np.linalg.solve(xtx + lam * np.eye(p), X.T @ y)
    return beta, True


def _fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> tuple[np.ndarray, bool]:
    """Binomial (or quasi-binomial for fractional y) IRLS fit.

    Convergence: log-likelihood improvement below ``tol``.  Diverging
    coefficients (perfect or quasi-separation) trigger a ridge-penalized
    refit; returns (coefficients, used_ridge).
    """
    p_dim = X.shape[1]

    def run(ridge: float) -> tuple[np.ndarray, float, bool]:
        ridge_eye = ridge * np.eye(p_dim)
        beta = np.zeros(p_dim)
        eta = X @ beta
        mu = expit(eta)
        ll = _bernoulli_loglik(y, mu) - 0.5 * ridge * beta @ beta
        ok = True
        for _ in range(max_iter):
            w = np.maximum(mu * (1.0 - mu), 1e-10)
            grad = X.T @ (y - mu) - ridge * beta
            hess = (X.T * w) @ X + ridge_eye
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                ok = False
                break
            # Step-halving keeps the likelihood monotone.
            scale = 1.0
            for _ in range(30):
                cand = beta + scale * step
                mu_c = expit(X @ cand)
                ll_c = _bernoulli_loglik(y, mu_c) - 0.5 * ridge * cand @ cand
                if ll_c >= ll - 1e-14:
                    break
                scale *= 0.5
            beta, mu = cand, mu_c
            # On the standardized basis, coefficients past ~15 mean the fit is
            # climbing a separation ray rather than approaching an interior MLE.
            if not np.isfinite(beta).all() or np.abs(beta).max() > 15.0:
                ok = False
                break
            if ll_c - ll < tol:
                ll = ll_c
                break
            ll = ll_c
        return beta, ll, ok and np.isfinite(beta).all()

    beta, _, ok = run(0.0)
    if ok:
        return beta, False
    beta, _, _ = run(1e-6 * X.shape[0])
    return beta, True


def _bernoulli_loglik(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.minimum(np.maximum(mu, 1e-12), 1.0 - 1e-12)
    return float(np.add.reduce(y * np.log(mu) + (1.0 - y) * np.log1p(-mu)))


def _clip_prob(p: np.ndarray) -> np.ndarray:
    """Clip probabilities to [PROB_CLIP, 1 - PROB_CLIP] (``np.clip`` without its wrapper)."""
    return np.minimum(np.maximum(p, PROB_CLIP), 1.0 - PROB_CLIP)


@dataclass
class NuisanceFit:
    """Fitted polynomial nuisance models for one covariate or group.

    ``*_fitted`` hold each fitted part's values at ``training_data``'s covariates.
    """

    columns: tuple[int, ...]
    basis: BasisConfig
    centers: np.ndarray
    scales: np.ndarray
    outcome_kind: str = "continuous"
    tau_coeffs: np.ndarray | None = None
    pi_coeffs: np.ndarray | None = None
    q0_coeffs: np.ndarray | None = None
    q1_coeffs: np.ndarray | None = None
    tau_fitted: np.ndarray | None = None
    pi_fitted: np.ndarray | None = None
    q0_fitted: np.ndarray | None = None
    q1_fitted: np.ndarray | None = None
    training_data: Dataset | None = field(default=None, repr=False, compare=False)
    warnings: list[str] = field(default_factory=list)

    def _standardized(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        safe = np.where(self.scales == 0.0, 1.0, self.scales)
        z = (c - self.centers) / safe
        # Constant members stay unstandardized by convention (sd recorded 0).
        if np.any(self.scales == 0.0):
            z[:, self.scales == 0.0] = c[:, self.scales == 0.0]
        return z

    def design(self, c: np.ndarray) -> np.ndarray:
        return _design_matrix(self._standardized(c), self.basis)

    def tau_at(self, c: np.ndarray) -> np.ndarray:
        if self.tau_coeffs is None:
            return self.compose_tau_at(c)
        return self.design(c) @ self.tau_coeffs

    def pi_at(self, c: np.ndarray) -> np.ndarray:
        if self.pi_coeffs is None:
            raise ValidationError("fit has no propensity part")
        return _clip_prob(expit(self.design(c) @ self.pi_coeffs))

    def q_at(self, e: int, c: np.ndarray) -> np.ndarray:
        coeffs = self.q1_coeffs if e == 1 else self.q0_coeffs
        if coeffs is None:
            raise ValidationError("fit has no exposure-response part")
        return self._q_values(self.design(c) @ coeffs)

    def _q_values(self, linear: np.ndarray) -> np.ndarray:
        if self.outcome_kind == "bounded":
            return _clip_prob(expit(linear))
        return linear

    def compose_tau_at(self, c: np.ndarray) -> np.ndarray:
        pi = self.pi_at(c)
        return pi * self.q_at(1, c) + (1.0 - pi) * self.q_at(0, c)


def _constant_columns(c: np.ndarray) -> np.ndarray:
    """Which columns of ``c`` hold one value in every row.

    Decided by exact equality: the sample sd of a constant column can be a
    rounding-level nonzero (a column of 1.1 at n=500 gives 2.2e-16).
    """
    return (c == c[0]).all(axis=0)


def _prepare(dataset: Dataset, columns, basis: BasisConfig) -> NuisanceFit:
    if isinstance(columns, (int, np.integer)):
        columns = (int(columns),)
    columns = tuple(int(j) for j in columns)
    c = dataset.covariates[:, columns]
    centers = c.mean(axis=0)
    scales = np.where(_constant_columns(c), 0.0, c.std(axis=0, ddof=1))
    return NuisanceFit(
        columns=columns,
        basis=basis,
        centers=centers,
        scales=scales,
        outcome_kind=dataset.outcome_kind,
        training_data=dataset,
    )


def fit_nuisances(dataset: Dataset, columns, basis: BasisConfig, parts=("tau", "pi", "q")) -> NuisanceFit:
    """Fit the requested parts ("tau", "pi", "q") and their in-sample values from one design matrix.

    q holds the per-arm outcome regressions (logistic for a bounded outcome).
    """
    fit = _prepare(dataset, columns, basis)
    X = fit.design(dataset.covariates[:, fit.columns])
    if "tau" in parts:
        fit.tau_coeffs, ridged = _solve_lstsq(X, dataset.outcome)
        fit.tau_fitted = X @ fit.tau_coeffs
        if ridged:
            fit.warnings.append("tau: rank-deficient design, ridge fallback used")
    if "pi" in parts:
        fit.pi_coeffs, ridged = _fit_logistic(X, dataset.exposure_float)
        fit.pi_fitted = _clip_prob(expit(X @ fit.pi_coeffs))
        if ridged:
            fit.warnings.append("pi: separation detected, ridge fallback used")
    if "q" in parts:
        n_basis = X.shape[1]
        solver = _fit_logistic if dataset.outcome_kind == "bounded" else _solve_lstsq
        for arm, mask in enumerate(dataset.arm_masks):
            count = int(mask.sum())
            if count < n_basis + 1:
                raise ValidationError(
                    f"exposure arm {arm} has {count} observations; "
                    f"need at least {n_basis + 1} for the requested basis"
                )
            coeffs, ridged = solver(X[mask], dataset.outcome[mask])
            fitted = fit._q_values(X @ coeffs)
            if arm == 0:
                fit.q0_coeffs, fit.q0_fitted = coeffs, fitted
            else:
                fit.q1_coeffs, fit.q1_fitted = coeffs, fitted
            if ridged:
                fit.warnings.append(f"q{arm}: degenerate fit, ridge fallback used")
    return fit


@dataclass
class SaturatedFit:
    """Per-level empirical conditional means for a discrete covariate.

    Serves as an exact nonparametric oracle: tau, pi, and Q are plain
    within-level averages, and the composition identity holds exactly.
    An arm with no observations at some level falls back to that level's
    arm-free mean.
    """

    columns: tuple[int, ...]
    levels: np.ndarray
    tau_levels: np.ndarray
    pi_levels: np.ndarray
    q0_levels: np.ndarray
    q1_levels: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def _level_index(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float).reshape(-1)
        idx = np.searchsorted(self.levels, c)
        idx = np.clip(idx, 0, len(self.levels) - 1)
        if not np.allclose(self.levels[idx], c, rtol=0.0, atol=0.0):
            raise ValidationError("saturated fit evaluated at an unseen level")
        return idx

    def tau_at(self, c):
        return self.tau_levels[self._level_index(c)]

    def pi_at(self, c):
        return self.pi_levels[self._level_index(c)]

    def q_at(self, e, c):
        table = self.q1_levels if e == 1 else self.q0_levels
        return table[self._level_index(c)]

    def compose_tau_at(self, c):
        pi = self.pi_at(c)
        return pi * self.q_at(1, c) + (1.0 - pi) * self.q_at(0, c)


def fit_saturated(dataset: Dataset, j: int) -> SaturatedFit:
    """Exact empirical fit for a covariate with at most 64 distinct values."""
    c = dataset.covariates[:, j]
    levels = np.unique(c)
    if levels.size > MAX_SATURATED_LEVELS:
        raise ValidationError(
            f"covariate has {levels.size} levels; saturated fit supports at most "
            f"{MAX_SATURATED_LEVELS}"
        )
    tau = np.empty(levels.size)
    pi = np.empty(levels.size)
    q0 = np.empty(levels.size)
    q1 = np.empty(levels.size)
    for k, level in enumerate(levels):
        mask = c == level
        o = dataset.outcome[mask]
        e = dataset.exposure[mask]
        tau[k] = o.mean()
        pi[k] = e.mean()
        q0[k] = o[e == 0].mean() if np.any(e == 0) else tau[k]
        q1[k] = o[e == 1].mean() if np.any(e == 1) else tau[k]
    return SaturatedFit(
        columns=(int(j),),
        levels=levels,
        tau_levels=tau,
        pi_levels=pi,
        q0_levels=q0,
        q1_levels=q1,
    )
