"""Per-covariate (or per-group) nuisance models, fitted for many targets at once.

Three functions are fitted on a shared polynomial basis of the standardized
covariate(s): the outcome regression tau(c) = E(O | C=c), the propensity
pi(c) = Pr(E=1 | C=c), and the per-arm adjusted exposure-response model
Q(e, c) = E(O | E=e, C=c).  Targets of the same width are fitted as one
feature-major stack of designs (targets, basis width, n): each basis column
is a contiguous row of observations, so per-observation products run along
contiguous memory and a design's transpose is column-major for LAPACK.
Least squares is a Householder QR of each augmented design, logistic models
IRLS with a per-target stopping rule.  A design of more than 2 * ROW_BLOCK
observations is built, QR-reduced and summed into the IRLS terms
X diag(w) X' and X r by blocks of ROW_BLOCK observations, which stay in
cache: a shorter design gives the bits of whole-array expressions, a taller
one matches them to rounding.  The blocks depend on n alone, so a target's
fit does not depend on which stack it is fitted in.

Every estimator reads the nuisance models only at the dataset's own rows, so
a fit is its values there: tau, pi, Q(0, c) and Q(1, c) at the n
observations.  fit_nuisances returns a NuisanceStack of the solvers' (targets,
n) arrays, which go to the estimators as they are.  A NuisanceFit holds one
target's: ``fit_nuisances(...)[i]``, or any learner's in-sample or
cross-fitted predictions, scored without touching the estimator code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._stats import expit
from .data import Dataset, ValidationError

__all__ = [
    "BasisConfig",
    "NuisanceFit",
    "NuisanceStack",
    "fit_nuisances",
    "fit_saturated",
]

PROB_CLIP = 1e-6
MAX_SATURATED_LEVELS = 64
# Observations of one block of a tall design.  A 19 x 2048 block and its weighted copy
# (about 0.6 MB) stay in a 2 MB L2 cache; 4096-observation blocks were slower.
ROW_BLOCK = 2048
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


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``n`` observations: all of them up to 2 * ROW_BLOCK, else blocks of ROW_BLOCK."""
    if n <= 2 * ROW_BLOCK:
        return [slice(None)]
    return [slice(start, start + ROW_BLOCK) for start in range(0, n, ROW_BLOCK)]


def _design_matrix(z: np.ndarray, basis: BasisConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Basis expansion of standardized members ``z`` (..., m, n) into (..., width, n), or into ``out``."""
    m, n = z.shape[-2:]
    X = np.empty((*z.shape[:-2], basis.width(m), n)) if out is None else out
    X[..., 0, :] = 1.0
    col = 1
    for j in range(m):
        zj = z[..., j, :]
        power = zj
        X[..., col, :] = power
        for k in range(1, basis.degree):
            power = power * zj
            X[..., col + k, :] = power
        col += basis.degree
    return X


def _standardize(c: np.ndarray, centers: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(c - centers) / scales; members with scale 0 (constant) keep their raw values."""
    constant = scales == 0.0
    return np.where(constant, c, (c - centers) / np.where(constant, 1.0, scales))


def _predict(X: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """coeffs @ X for designs (..., d, n) and coefficients (..., d)."""
    return np.matmul(coeffs[..., None, :], X)[..., 0, :]


def _solve_lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of every design of the stack ``X`` (b, d, n) on ``y`` (n,) or (b, n).

    The coefficients come from the triangle of a Householder QR of the
    augmented [X' | y], which _r_factor builds one row block at a time, so
    no full-size augmented copy of the stack is made.  A design is
    rank-deficient when some |diag R| <= max(n, d) * eps * max|diag R|;
    those rows are re-solved from the normal equations with penalty
    1e-8 * trace(X X') / d.  Returns (coefficients (b, d), used_ridge (b,)).
    The stack is made C-contiguous first: BLAS takes another path for
    another memory layout, and a row's result must not depend on the stack
    it is in.
    """
    X = np.ascontiguousarray(X)
    b, d, n = X.shape
    y = np.broadcast_to(y, (b, n))
    r = _r_factor(X, y)
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
        xtx = Xr @ np.swapaxes(Xr, -1, -2)
        lam = 1e-8 * np.trace(xtx, axis1=-2, axis2=-1) / d
        beta[ridged] = np.linalg.solve(xtx + lam[:, None, None] * np.eye(d), Xr @ y[ridged, :, None])[..., 0]
    return beta, ridged


def _r_factor(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R factor, up to row signs, of the QR of each augmented [X' | y] of the stack ``X`` (b, d, n), ``y`` (b, n).

    Each row block (_row_blocks) is reduced from its own [X' | y], the
    column-major transposed view of [X; y] over its observations.  Above
    2 * ROW_BLOCK observations the blocks' R factors, stacked, have the same
    R factor as the whole: no augmented copy of the whole stack is made, and
    each LAPACK call's work copy stays small.
    """
    blocks = [
        np.linalg.qr(np.swapaxes(np.concatenate([X[..., rows], y[:, None, rows]], axis=1), -1, -2), mode="r")
        for rows in _row_blocks(X.shape[-1])
    ]
    return blocks[0] if len(blocks) == 1 else np.linalg.qr(np.concatenate(blocks, axis=1), mode="r")


def _fit_logistic(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binomial (or quasi-binomial for fractional y) IRLS fit of each design of the stack ``X`` (b, d, n) on ``y`` (n,).

    Convergence: log-likelihood improvement below IRLS_TOL.  Rows whose
    coefficients diverge (perfect or quasi-separation) or whose Hessian is
    singular are refitted with a ridge penalty; returns
    (coefficients (b, d), used_ridge (b,)).
    """
    X = np.ascontiguousarray(X)
    beta, ok = _irls(X, y, 0.0)
    ridged = ~ok
    if ridged.any():
        beta[ridged] = _irls(X[ridged], y, 1e-6 * X.shape[-1])[0]
    return beta, ridged


def _irls(X, y, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Penalized IRLS of ``y`` (n,) on every design of the stack ``X``, each row under its own stopping rules.

    Returns (coefficients (b, d), ok (b,)); a row is not ok when its Hessian
    is singular or its coefficients leave the finite range or pass 15.  Row
    subsets are indexed only once some rows have stopped.
    """
    b, d, n = X.shape
    beta = np.zeros((b, d))
    ok = np.ones(b, dtype=bool)
    rows = np.arange(b)  # stack rows still iterating
    Xr, beta_r = X, beta.copy()
    mu = expit(_predict(Xr, beta_r))
    ll = _penalized_loglik(y, mu, beta_r, ridge)
    ridge_eye = ridge * np.eye(d)
    for _ in range(IRLS_MAX_ITER):
        w = np.maximum(mu * (1.0 - mu), 1e-10)
        hess, grad = _newton_terms(Xr, w, y - mu)
        step, solved = _solve_rows(hess + ridge_eye, grad - ridge * beta_r)
        ok[rows[~solved]] = False
        # Step-halving keeps each row's likelihood monotone up to the rounding of
        # its sum (8 ulps of |ll|); the 30th candidate is taken whatever its likelihood.
        scale = np.ones(rows.size)
        cand = beta_r + step
        mu_c = expit(_predict(Xr, cand))
        ll_c = _penalized_loglik(y, mu_c, cand, ridge)
        for _ in range(29):
            halve = solved & ~(ll_c >= ll - 8 * np.spacing(np.abs(ll)))
            if not halve.any():
                break
            h = slice(None) if halve.all() else np.flatnonzero(halve)
            scale[h] *= 0.5
            cand[h] = beta_r[h] + scale[h, None] * step[h]
            mu_c[h] = expit(_predict(Xr[h], cand[h]))
            ll_c[h] = _penalized_loglik(y, mu_c[h], cand[h], ridge)
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
            rows, Xr, beta_r, mu, ll = rows[keep], Xr[keep], beta_r[keep], mu[keep], ll[keep]
            if rows.size == 0:
                break
    beta[rows] = beta_r
    return beta, ok & np.isfinite(beta).all(axis=-1)


def _newton_terms(X: np.ndarray, w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X diag(w) X' (b, d, d) and X r (b, d) of each design of the stack ``X`` (b, d, n), by _row_blocks."""
    hess = grad = None
    for rows in _row_blocks(X.shape[-1]):
        Xb = X[..., rows]
        h = (Xb * w[:, None, rows]) @ np.swapaxes(Xb, -1, -2)
        g = (Xb @ r[:, rows, None])[..., 0]
        hess, grad = (h, g) if hess is None else (hess + h, grad + g)
    return hess, grad


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


@dataclass
class NuisanceStack:
    """Nuisance values of a stack of targets at the dataset's rows, as fit_nuisances returns them.

    ``tau``, ``pi``, ``q0`` and ``q1`` are (targets, n) arrays, or None for a
    part not fitted, and ``warnings`` holds each row's ridge warnings.
    ``stack[i]``, and so iteration, gives target i's NuisanceFit: its rows.
    """

    columns: list[tuple[int, ...]]
    warnings: list[list[str]]
    tau: np.ndarray | None = None
    pi: np.ndarray | None = None
    q0: np.ndarray | None = None
    q1: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, i: int) -> NuisanceFit:
        parts = {part: getattr(self, part) for part in ("tau", "pi", "q0", "q1")}
        rows = {part: None if values is None else values[i] for part, values in parts.items()}
        return NuisanceFit(self.columns[i], **rows, warnings=list(self.warnings[i]))


def _target_columns(target) -> tuple[int, ...]:
    """The column tuple of a target given as a column index or a sequence of them."""
    if isinstance(target, (int, np.integer)):
        return (int(target),)
    return tuple(map(int, target))


def _designs(dataset: Dataset, columns: list[tuple[int, ...]], basis: BasisConfig) -> np.ndarray:
    """Design stack (targets, basis width, n) of each target's standardized columns, built by _row_blocks."""
    columns = np.array(columns)
    c = dataset.covariates.T[columns]  # (targets, members, n)
    centers = c.mean(axis=-1)[..., None]
    dev = c - centers  # c.std(axis=-1, ddof=1) is this reduction, after a second mean
    sd = np.sqrt(np.add.reduce(dev * dev, axis=-1) / (dataset.n - 1))
    scales = np.where(dataset.constant_columns[columns], 0.0, sd)[..., None]
    X = np.empty((len(columns), basis.width(c.shape[1]), dataset.n))
    for rows in _row_blocks(dataset.n):
        _design_matrix(_standardize(c[..., rows], centers, scales), basis, out=X[..., rows])
    return X


def fit_nuisances(dataset: Dataset, targets, basis: BasisConfig, parts=("tau", "pi", "q")) -> NuisanceStack:
    """Fit the requested parts ("tau", "pi", "q") of every target from one stack of design matrices.

    ``targets`` lists column indices or column tuples, all with the same
    number of columns.  Returns the NuisanceStack of the targets' in-sample
    fitted values, one row per target in order; ``[i]`` gives target i's
    NuisanceFit.  q holds the per-arm outcome regressions (logistic for a
    bounded outcome).
    """
    columns = [_target_columns(t) for t in targets]
    if len({len(cols) for cols in columns}) != 1:
        raise ValidationError("the targets of one stack must have the same number of columns")
    X = _designs(dataset, columns, basis)
    values, ridge = {}, []  # ridge: (ridged (targets,), warning) of each part fitted
    if "tau" in parts:
        coeffs, ridged = _solve_lstsq(X, dataset.outcome)
        values["tau"] = _predict(X, coeffs)
        ridge.append((ridged, "tau: rank-deficient design, ridge fallback used"))
    if "pi" in parts:
        coeffs, ridged = _fit_logistic(X, dataset.exposure_float)
        values["pi"] = _clip_prob(expit(_predict(X, coeffs)))
        ridge.append((ridged, "pi: separation detected, ridge fallback used"))
    if "q" in parts:
        n_basis = X.shape[1]
        bounded = dataset.outcome_kind == "bounded"
        solver = _fit_logistic if bounded else _solve_lstsq
        for arm, mask in enumerate(dataset.arm_masks):
            count = int(mask.sum())
            if count < n_basis + 1:
                raise ValidationError(
                    f"exposure arm {arm} has {count} observations; "
                    f"need at least {n_basis + 1} for the requested basis"
                )
            coeffs, ridged = solver(X[..., mask], dataset.outcome[mask])
            fitted = _predict(X, coeffs)
            if bounded:
                fitted = _clip_prob(expit(fitted))
            values[f"q{arm}"] = fitted
            ridge.append((ridged, f"q{arm}: degenerate fit, ridge fallback used"))
    warnings = [[] for _ in columns]
    for ridged, warning in ridge:
        for i in np.flatnonzero(ridged).tolist():
            warnings[i].append(warning)
    return NuisanceStack(columns, warnings, **values)


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
