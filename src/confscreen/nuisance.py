"""Per-covariate (or per-group) nuisance models, fitted for many targets at once.

Three functions are fitted on a shared polynomial basis of the standardized
covariate(s): the outcome regression tau(c) = E(O | C=c), the propensity
pi(c) = Pr(E=1 | C=c), and the per-arm adjusted exposure-response model
Q(e, c) = E(O | E=e, C=c).  Targets of the same width are fitted as one
stack of design matrices of shape (targets, n, basis width): least squares
by a Householder QR of each augmented design, logistic models by IRLS with a
per-target stopping rule.  A target's fit does not depend on which stack it
is fitted in.

Every estimator reads the nuisance models only at the dataset's own rows, so
a fit is its values there: a NuisanceFit holds tau, pi, Q(0, c) and Q(1, c)
at the n observations.  Any learner can supply them, from in-sample or
cross-fitted predictions, without touching the estimator code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._stats import expit
from .data import Dataset, ValidationError

__all__ = [
    "BasisConfig",
    "NuisanceFit",
    "fit_nuisances",
    "fit_saturated",
]

PROB_CLIP = 1e-6
MAX_SATURATED_LEVELS = 64
# Rows of one Householder QR: a taller design is first reduced block by block,
# which keeps each LAPACK call's work copy of the matrix small.
QR_BLOCK_ROWS = 4096
# IRLS stops a row once its log-likelihood gains less than IRLS_TOL, or after IRLS_MAX_ITER steps.
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 50


@dataclass(frozen=True)
class BasisConfig:
    """Raw-power polynomial basis of the standardized covariate(s), with an intercept.

    Groups use the union of per-member power bases (additive).
    """

    degree: int = 3

    def __post_init__(self):
        if not (1 <= self.degree <= 12):
            raise ValidationError("basis degree must lie in 1..12")

    def width(self, members: int) -> int:
        """Number of basis columns for a target of ``members`` covariates."""
        return 1 + members * self.degree


def _design_matrix(z: np.ndarray, basis: BasisConfig) -> np.ndarray:
    """Basis expansion of standardized columns ``z`` of shape (..., n, m) into (..., n, width)."""
    m = z.shape[-1]
    X = np.empty((*z.shape[:-1], basis.width(m)))
    X[..., 0] = 1.0
    col = 1
    for j in range(m):
        zj = z[..., j]
        power = zj
        X[..., col] = power
        for k in range(1, basis.degree):
            power = power * zj
            X[..., col + k] = power
        col += basis.degree
    return X


def _standardize(c: np.ndarray, centers: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(c - centers) / scales; members with scale 0 (constant) keep their raw values."""
    constant = scales == 0.0
    return np.where(constant, c, (c - centers) / np.where(constant, 1.0, scales))


def _predict(X: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """X @ coeffs for designs (..., n, d) and coefficients (..., d)."""
    return np.matmul(X, coeffs[..., None])[..., 0]


def _solve_lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of every design of the stack ``X`` (b, n, d) on ``y`` (n,) or (b, n).

    The coefficients come from the triangle of a Householder QR of the
    augmented [X | y] (by row blocks for a tall design, see _r_factor).  A design is rank-deficient when some
    |diag R| <= max(n, d) * eps * max|diag R|; those rows are re-solved from
    the normal equations with penalty 1e-8 * trace(X'X) / d.  Returns
    (coefficients (b, d), used_ridge (b,)).  The stack is made C-contiguous
    first: BLAS takes another path for another memory layout, and a row's
    result must not depend on the stack it is in.
    """
    X = np.ascontiguousarray(X)
    b, n, d = X.shape
    y = np.broadcast_to(y, (b, n))
    r = _r_factor(np.concatenate([X, y[..., None]], axis=-1))
    ridged = np.ones(b, dtype=bool)
    if r.shape[-2] >= d:
        diag = np.abs(np.diagonal(r[:, :d, :d], axis1=-2, axis2=-1))
        tol = max(n, d) * np.finfo(float).eps * diag.max(axis=-1, keepdims=True)
        ridged = ~(diag > tol).all(axis=-1)
    beta = np.empty((b, d))
    full = ~ridged
    if full.any():
        beta[full] = np.linalg.solve(r[full, :d, :d], r[full, :d, d:])[..., 0]
    if ridged.any():
        Xr = X[ridged]
        Xt = np.swapaxes(Xr, -1, -2)
        xtx = Xt @ Xr
        lam = 1e-8 * np.trace(xtx, axis1=-2, axis2=-1) / d
        rhs = _predict(Xt, y[ridged])
        beta[ridged] = np.linalg.solve(xtx + lam[:, None, None] * np.eye(d), rhs[..., None])[..., 0]
    return beta, ridged


def _r_factor(A: np.ndarray) -> np.ndarray:
    """R factor of the QR of each matrix of the stack ``A`` (b, n, k), up to the signs of its rows.

    Above 2 * QR_BLOCK_ROWS rows, the R factors of whole row blocks replace
    those rows: stacked, they have the same R factor as the rows they
    replace.  The blocks depend on n alone, so a row's result does not depend
    on its stack.
    """
    b, n, k = A.shape
    if n > 2 * QR_BLOCK_ROWS:
        full = n - n % QR_BLOCK_ROWS
        blocks = np.linalg.qr(A[:, :full].reshape(-1, QR_BLOCK_ROWS, k), mode="r")
        A = np.concatenate([blocks.reshape(b, -1, k), A[:, full:]], axis=1)
    return np.linalg.qr(A, mode="r")


def _fit_logistic(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binomial (or quasi-binomial for fractional y) IRLS fit of each design of the stack ``X`` (b, n, d).

    Convergence: log-likelihood improvement below IRLS_TOL.  Rows whose
    coefficients diverge (perfect or quasi-separation) or whose Hessian is
    singular are refitted with a ridge penalty; returns
    (coefficients (b, d), used_ridge (b,)).
    """
    X = np.ascontiguousarray(X)
    y = np.broadcast_to(y, X.shape[:-1])
    beta, ok = _irls(X, y, 0.0)
    ridged = ~ok
    if ridged.any():
        beta[ridged] = _irls(X[ridged], y[ridged], 1e-6 * X.shape[-2])[0]
    return beta, ridged


def _irls(X, y, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Penalized IRLS on every row of the stack, each row under its own stopping rules.

    Returns (coefficients (b, d), ok (b,)); a row is not ok when its Hessian
    is singular or its coefficients leave the finite range or pass 15.  Row
    subsets are indexed only once some rows have stopped.
    """
    b, n, d = X.shape
    beta = np.zeros((b, d))
    ok = np.ones(b, dtype=bool)
    rows = np.arange(b)  # stack rows still iterating
    Xr, yr, beta_r = X, y, beta.copy()
    mu = expit(_predict(Xr, beta_r))
    ll = _penalized_loglik(yr, mu, beta_r, ridge)
    ridge_eye = ridge * np.eye(d)
    for _ in range(IRLS_MAX_ITER):
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        grad = _predict(np.swapaxes(Xr, -1, -2), yr - mu) - ridge * beta_r
        hess = np.swapaxes(Xr * w[..., None], -1, -2) @ Xr + ridge_eye
        step, solved = _solve_rows(hess, grad)
        ok[rows[~solved]] = False
        # Step-halving keeps each row's likelihood monotone; the 30th
        # candidate is taken whatever its likelihood.
        scale = np.ones(rows.size)
        cand = beta_r + step
        mu_c = expit(_predict(Xr, cand))
        ll_c = _penalized_loglik(yr, mu_c, cand, ridge)
        for _ in range(29):
            halve = solved & ~(ll_c >= ll - 1e-14)
            if not halve.any():
                break
            h = slice(None) if halve.all() else np.flatnonzero(halve)
            scale[h] *= 0.5
            cand[h] = beta_r[h] + scale[h, None] * step[h]
            mu_c[h] = expit(_predict(Xr[h], cand[h]))
            ll_c[h] = _penalized_loglik(yr[h], mu_c[h], cand[h], ridge)
        # A row whose Hessian was singular keeps its coefficients.
        cand[~solved] = beta_r[~solved]
        # On the standardized basis, coefficients past ~15 mean the fit is
        # climbing a separation ray rather than approaching an interior MLE.
        diverged = solved & (~np.isfinite(cand).all(axis=-1) | (np.abs(cand).max(axis=-1) > 15.0))
        ok[rows[diverged]] = False
        going = solved & ~diverged
        converged = np.zeros(rows.size, dtype=bool)
        converged[going] = ll_c[going] - ll[going] < IRLS_TOL
        stop = ~solved | diverged | converged
        beta_r, mu, ll = cand, mu_c, ll_c
        if stop.any():
            beta[rows[stop]] = beta_r[stop]
            keep = ~stop
            rows, Xr, yr, beta_r, mu, ll = rows[keep], Xr[keep], yr[keep], beta_r[keep], mu[keep], ll[keep]
            if rows.size == 0:
                break
    beta[rows] = beta_r
    return beta, ok & np.isfinite(beta).all(axis=-1)


def _solve_rows(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each system of the stack; returns (solutions, solved), a singular row giving zeros."""
    try:
        return np.linalg.solve(a, rhs[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(rhs)
    solved = np.ones(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            out[i] = np.linalg.solve(a[i : i + 1], rhs[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            solved[i] = False
    return out, solved


def _penalized_loglik(y: np.ndarray, mu: np.ndarray, beta: np.ndarray, ridge: float) -> np.ndarray:
    """Per-row Bernoulli log-likelihood of ``mu`` against ``y`` minus the ridge penalty of ``beta``."""
    mu = np.minimum(np.maximum(mu, 1e-12), 1.0 - 1e-12)
    loglik = np.add.reduce(y * np.log(mu) + (1.0 - y) * np.log1p(-mu), axis=-1)
    return loglik - np.add.reduce(0.5 * ridge * beta * beta, axis=-1)


def _clip_prob(p: np.ndarray) -> np.ndarray:
    """Clip probabilities to [PROB_CLIP, 1 - PROB_CLIP] (``np.clip`` without its wrapper)."""
    return np.minimum(np.maximum(p, PROB_CLIP), 1.0 - PROB_CLIP)


@dataclass
class NuisanceFit:
    """Nuisance values of one covariate or group at the dataset's rows.

    ``tau``, ``pi``, ``q0`` and ``q1`` are (n,) arrays of the outcome
    regression, the propensity and the per-arm exposure-response models at
    each observation, or None for a part not fitted.
    """

    columns: tuple[int, ...]
    tau: np.ndarray | None = None
    pi: np.ndarray | None = None
    q0: np.ndarray | None = None
    q1: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)


def _constant_columns(c: np.ndarray) -> np.ndarray:
    """Which columns of ``c`` (rows on axis 0) hold one value in every row.

    Decided by exact equality: the sample sd of a constant column can be a
    rounding-level nonzero (a column of 1.1 at n=500 gives 2.2e-16).
    """
    return (c == c[0]).all(axis=0)


def _target_columns(target) -> tuple[int, ...]:
    """The column tuple of a target given as a column index or a sequence of them."""
    if isinstance(target, (int, np.integer)):
        return (int(target),)
    return tuple(int(j) for j in target)


def _store(fits: list[NuisanceFit], part: str, values, ridged, warning: str) -> None:
    """Give each fit its row of ``values`` for ``part``, and ``warning`` where ridged."""
    for fit, row, flag in zip(fits, values, ridged):
        setattr(fit, part, row)
        if flag:
            fit.warnings.append(warning)


def _designs(dataset: Dataset, columns: list[tuple[int, ...]], basis: BasisConfig) -> np.ndarray:
    """Design stack (targets, n, basis width) of the standardized columns of each target."""
    c = dataset.covariates.T[np.array(columns)]  # (targets, members, n)
    centers = c.mean(axis=-1)
    scales = np.where(_constant_columns(np.moveaxis(c, -1, 0)), 0.0, c.std(axis=-1, ddof=1))
    z = _standardize(c, centers[..., None], scales[..., None])
    return _design_matrix(np.swapaxes(z, -1, -2), basis)


def fit_nuisances(
    dataset: Dataset, targets, basis: BasisConfig, parts=("tau", "pi", "q")
) -> list[NuisanceFit]:
    """Fit the requested parts ("tau", "pi", "q") of every target from one stack of design matrices.

    ``targets`` lists column indices or column tuples, all with the same
    number of columns.  Returns one NuisanceFit per target, in order, with its
    in-sample fitted values (rows of the stack's arrays).  q holds the per-arm
    outcome regressions (logistic for a bounded outcome).
    """
    columns = [_target_columns(t) for t in targets]
    if len({len(cols) for cols in columns}) != 1:
        raise ValidationError("the targets of one stack must have the same number of columns")
    X = _designs(dataset, columns, basis)
    fits = [NuisanceFit(columns=cols) for cols in columns]
    if "tau" in parts:
        coeffs, ridged = _solve_lstsq(X, dataset.outcome)
        _store(fits, "tau", _predict(X, coeffs), ridged, "tau: rank-deficient design, ridge fallback used")
    if "pi" in parts:
        coeffs, ridged = _fit_logistic(X, dataset.exposure_float)
        fitted = _clip_prob(expit(_predict(X, coeffs)))
        _store(fits, "pi", fitted, ridged, "pi: separation detected, ridge fallback used")
    if "q" in parts:
        n_basis = X.shape[-1]
        bounded = dataset.outcome_kind == "bounded"
        solver = _fit_logistic if bounded else _solve_lstsq
        for arm, mask in enumerate(dataset.arm_masks):
            count = int(mask.sum())
            if count < n_basis + 1:
                raise ValidationError(
                    f"exposure arm {arm} has {count} observations; "
                    f"need at least {n_basis + 1} for the requested basis"
                )
            coeffs, ridged = solver(X[:, mask], dataset.outcome[mask])
            fitted = _predict(X, coeffs)
            if bounded:
                fitted = _clip_prob(expit(fitted))
            _store(fits, f"q{arm}", fitted, ridged, f"q{arm}: degenerate fit, ridge fallback used")
    return fits


def fit_saturated(dataset: Dataset, j: int) -> NuisanceFit:
    """Exact empirical fit for a covariate with at most 64 distinct values: per-level means.

    Serves as an exact nonparametric oracle: tau, pi, and Q are plain
    within-level averages, and the composition identity holds exactly.
    An arm with no observations at some level falls back to that level's
    arm-free mean.
    """
    levels, index = np.unique(dataset.covariates[:, j], return_inverse=True)
    if levels.size > MAX_SATURATED_LEVELS:
        raise ValidationError(
            f"covariate has {levels.size} levels; saturated fit supports at most "
            f"{MAX_SATURATED_LEVELS}"
        )
    tau = np.empty(levels.size)
    pi = np.empty(levels.size)
    q0 = np.empty(levels.size)
    q1 = np.empty(levels.size)
    for k in range(levels.size):
        mask = index == k
        o = dataset.outcome[mask]
        e = dataset.exposure[mask]
        tau[k] = o.mean()
        pi[k] = e.mean()
        q0[k] = o[e == 0].mean() if np.any(e == 0) else tau[k]
        q1[k] = o[e == 1].mean() if np.any(e == 1) else tau[k]
    return NuisanceFit(columns=(int(j),), tau=tau[index], pi=pi[index], q0=q0[index], q1=q1[index])
