"""Polynomial nuisance fits: exact recovery, score equations, saturated oracle."""

import tracemalloc

import numpy as np
import pytest

from confscreen import (
    BasisConfig,
    Dataset,
    ValidationError,
    fit_nuisances,
    fit_saturated,
)
from confscreen import nuisance
from confscreen._stats import expit, logit
from confscreen.nuisance import (
    PROB_CLIP,
    ROW_BLOCK,
    _design_matrix,
    _designs,
    _fit_logistic,
    _irls,
    _newton_terms,
    _penalized_loglik,
    _solve_lstsq,
)


def _dataset(y, e, c, **kw):
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    return Dataset(
        outcome=np.asarray(y, dtype=float),
        exposure=np.asarray(e),
        covariates=c,
        column_names=tuple(f"c{j}" for j in range(c.shape[1])),
        **kw,
    )


SIX = _dataset(
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 1, 0],
    [1, 1, 1, 0, 0, 1],
)


def test_basis_degree_bounds():
    with pytest.raises(ValidationError):
        BasisConfig(degree=0)
    with pytest.raises(ValidationError):
        BasisConfig(degree=13)
    assert BasisConfig(degree=12).degree == 12


def test_design_matrix_shape_and_powers():
    # Two members (rows) at three observations (columns).
    z = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    X = _design_matrix(z, BasisConfig(degree=2))
    # intercept + 2 powers per member, one row each
    assert X.shape == (5, 3)
    np.testing.assert_allclose(X[:, 0], [1.0, 1.0, 1.0, 2.0, 4.0])
    np.testing.assert_allclose(X[:, 2], [1.0, 5.0, 25.0, 6.0, 36.0])


def test_lstsq_exact_polynomial_recovery():
    rng = np.random.default_rng(1)
    x = rng.normal(size=200)
    y = 2.0 - x + 0.5 * x**3
    ds = _dataset(y, np.tile([0, 1], 100), x)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=3), parts=("tau",))[0]
    np.testing.assert_allclose(fit.tau, y, atol=1e-8)


def test_lstsq_residual_orthogonality():
    rng = np.random.default_rng(2)
    x = rng.normal(size=500)
    y = np.sin(x) + rng.normal(size=500)
    ds = _dataset(y, np.tile([0, 1], 250), x)
    (X,) = _designs(ds, [(0,)], BasisConfig(degree=3))
    (beta,), _ = _solve_lstsq(X[None], y)
    resid = y - beta @ X
    assert np.max(np.abs(X @ resid)) < 1e-8 * len(y)


def test_lstsq_rank_deficient_ridge_fallback():
    X = np.stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
    (beta,), (ridged,) = _solve_lstsq(X[None], np.arange(10.0))
    assert ridged
    np.testing.assert_allclose(beta @ X, np.arange(10.0), atol=1e-4)


def test_logistic_null_model_limit():
    rng = np.random.default_rng(3)
    n = 20000
    x = rng.normal(size=n)
    e = (rng.random(n) < 0.3).astype(int)
    ds = _dataset(rng.normal(size=n), e, x)
    (beta,), _ = _fit_logistic(_designs(ds, [(0,)], BasisConfig(degree=1)), ds.exposure_float)
    assert abs(beta[1]) < 0.05
    assert beta[0] == pytest.approx(logit(np.array([e.mean()]))[0], abs=0.05)


def test_logistic_slope_recovery():
    rng = np.random.default_rng(4)
    n = 20000
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    ds = _dataset(rng.normal(size=n), e, x)
    (beta,), _ = _fit_logistic(_designs(ds, [(0,)], BasisConfig(degree=1)), ds.exposure_float)
    # Coefficient is on the standardized scale; map back through the sd.
    slope = beta[1] / x.std(ddof=1)
    assert slope == pytest.approx(1.0, abs=0.1)


def test_logistic_score_equation():
    rng = np.random.default_rng(5)
    n = 2000
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(0.5 * x)).astype(int)
    ds = _dataset(rng.normal(size=n), e, x)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=3), parts=("pi",))[0]
    (X,) = _designs(ds, [(0,)], BasisConfig(degree=3))
    score = X @ (e - fit.pi)
    assert np.max(np.abs(score)) < 1e-6 * n


def test_logistic_separation_ridge_fallback():
    x = np.concatenate([np.full(20, -1.0), np.full(20, 1.0)])
    e = (x > 0).astype(int)
    ds = _dataset(np.zeros(40), e, x)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=1), parts=("pi",))[0]
    assert any("ridge" in w for w in fit.warnings)
    (beta,), (ridged,) = _fit_logistic(_designs(ds, [(0,)], BasisConfig(degree=1)), ds.exposure_float)
    assert ridged and np.all(np.isfinite(beta))


def _two_term_loglik(y, mu, beta, ridge):
    mu = np.minimum(np.maximum(mu, 1e-12), 1.0 - 1e-12)
    loglik = np.add.reduce(y * np.log(mu) + (1.0 - y) * np.log1p(-mu), axis=-1)
    return loglik - np.add.reduce(0.5 * ridge * beta * beta, axis=-1)


def test_penalized_loglik_of_a_0_1_response_is_bitwise_the_two_term_formula():
    rng = np.random.default_rng(21)
    y = (rng.random(500) < 0.4).astype(float)
    mu = rng.random((32, 500))
    # At, past and just inside the clip bounds, on both classes of y.
    edges = [0.0, 1e-13, 1e-12, np.nextafter(1e-12, 1.0), 1.0 - 1e-12, np.nextafter(1.0 - 1e-12, 0.0), 1.0 - 1e-13, 1.0]
    mu[:, : len(edges)] = edges
    y[: len(edges)] = [0.0, 1.0] * (len(edges) // 2)
    mu[:, len(edges) : 2 * len(edges)] = edges
    y[len(edges) : 2 * len(edges)] = [1.0, 0.0] * (len(edges) // 2)
    beta = rng.normal(size=(32, 4))
    for ridge in (0.0, 0.3):
        want = _two_term_loglik(y, mu, beta, ridge)
        got = _penalized_loglik(y, mu, beta, ridge, np.flatnonzero(y == 0.0))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # A stack subset, as the step-halving passes it.
        got = _penalized_loglik(y, mu[5], beta[5], ridge, np.flatnonzero(y == 0.0))
        assert got.view(np.int64) == want[5].view(np.int64)


def test_irls_spares_the_second_log_only_for_a_0_1_response(monkeypatch):
    rng = np.random.default_rng(22)
    n = 300
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    ds = _dataset(rng.random(n), e, x, outcome_kind="bounded")
    X = _designs(ds, [(0,)], BasisConfig(degree=2))
    seen = []

    def spy(y, mu, beta, ridge, zeros=None):
        seen.append(None if zeros is None else zeros.tolist())
        return _penalized_loglik(y, mu, beta, ridge, zeros)

    monkeypatch.setattr(nuisance, "_penalized_loglik", spy)
    _irls(X, ds.exposure_float, 0.0)
    assert seen and all(z == np.flatnonzero(e == 0).tolist() for z in seen)
    seen.clear()
    # A fractional response keeps the two-term formula.
    _irls(X, ds.outcome, 0.0)
    assert seen and all(z is None for z in seen)


def test_pi_values_clipped_open_interval():
    x = np.concatenate([np.full(20, -1.0), np.full(20, 1.0)])
    e = (x > 0).astype(int)
    ds = _dataset(np.zeros(40), e, x)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=1), parts=("pi",))[0]
    assert np.all(fit.pi >= PROB_CLIP) and np.all(fit.pi <= 1.0 - PROB_CLIP)


def test_q_exact_linear_truth():
    rng = np.random.default_rng(6)
    n = 200
    x = rng.normal(size=n)
    e = np.tile([0, 1], n // 2)
    theta = 2.0
    y = theta * e + 1.5 * x
    ds = _dataset(y, e, x)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=1), parts=("q",))[0]
    np.testing.assert_allclose(fit.q1 - fit.q0, theta, atol=1e-10)


def test_q_bounded_constant():
    ds = _dataset([0.5] * 10, np.tile([0, 1], 5), np.arange(10.0), outcome_kind="bounded")
    fit = fit_nuisances(ds, [0], BasisConfig(degree=1), parts=("q",))[0]
    np.testing.assert_allclose(fit.q0, 0.5, atol=1e-6)
    np.testing.assert_allclose(fit.q1, 0.5, atol=1e-6)


def test_fit_nuisances_standardization_moments():
    x = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    ds = _dataset([0.0, 1.0, 0.5, 2.0, 1.0], [1, 0, 1, 0, 1], x)
    z = _designs(ds, [(0,)], BasisConfig(degree=1))[0][1]
    assert z.mean() == pytest.approx(0.0, abs=1e-12)
    assert z.std(ddof=1) == pytest.approx(1.0, abs=1e-12)


def test_fit_nuisances_constant_column_passthrough():
    # A constant member keeps its raw values in the design, also when its
    # sample sd is rounding-level nonzero (a column of 1.1 at n=500).
    rng = np.random.default_rng(3)
    for n, value in ((5, 7.0), (500, 1.1)):
        c = np.column_stack([rng.normal(size=n), np.full(n, value)])
        ds = _dataset(rng.normal(size=n), np.tile([0, 1], n)[:n], c)
        X = _designs(ds, [(0, 1)], BasisConfig(degree=1))[0]
        np.testing.assert_array_equal(X[2], np.full(n, value))


def test_designs_standardize_every_member_but_a_constant_one():
    # In one stack, a target with a constant member (-0.0 and 0.0 here) keeps
    # that member's raw bits, and every other member is (c - mean) / sd bitwise.
    rng = np.random.default_rng(12)
    n = 40
    zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    c = np.column_stack([rng.normal(size=n), zeros, rng.normal(size=n)])
    ds = _dataset(rng.normal(size=n), np.tile([0, 1], n // 2), c)
    X = _designs(ds, [(0, 2), (1, 0)], BasisConfig(degree=1))
    varying = c.T[[0, 2]]
    z = (varying - varying.mean(axis=-1, keepdims=True)) / varying.std(axis=-1, ddof=1, keepdims=True)
    assert np.array_equal(X[0, 1:], z)
    assert np.array_equal(X[1, 2], z[0])
    assert np.array_equal(np.signbit(X[1, 1]), np.signbit(zeros)) and not X[1, 1].any()


def test_q_small_arm_error_names_arm_and_count():
    ds = _dataset([0.0, 1.0, 2.0, 3.0], [1, 0, 0, 0], np.arange(4.0))
    with pytest.raises(ValidationError, match="arm 0 has 3"):
        fit_nuisances(ds, [0], BasisConfig(degree=3), parts=("q",))


def test_saturated_six_rows():
    fit = fit_saturated(SIX, 0)
    # Both levels hold tau = pi = 0.5.
    np.testing.assert_array_equal(fit.tau, np.full(6, 0.5))
    np.testing.assert_array_equal(fit.pi, np.full(6, 0.5))


def test_saturated_composition_identity():
    rng = np.random.default_rng(7)
    c = rng.integers(0, 4, size=100).astype(float)
    e = rng.integers(0, 2, size=100)
    e[:2] = [0, 1]
    y = rng.normal(size=100)
    ds = _dataset(y, e, c)
    fit = fit_saturated(ds, 0)
    np.testing.assert_allclose(fit.pi * fit.q1 + (1.0 - fit.pi) * fit.q0, fit.tau, atol=1e-12)


def test_saturated_single_level():
    ds = _dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1], np.zeros(4))
    fit = fit_saturated(ds, 0)
    np.testing.assert_array_equal(fit.tau, np.full(4, 2.5))
    np.testing.assert_array_equal(fit.pi, np.full(4, 0.5))


def test_saturated_too_many_levels():
    ds = _dataset(np.zeros(130), np.tile([0, 1], 65), np.arange(130.0))
    with pytest.raises(ValidationError, match="^covariate 'c0' has 130 levels"):
        fit_saturated(ds, 0)


def test_refit_order_invariance():
    rng = np.random.default_rng(8)
    n = 300
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    y = e + x + rng.normal(size=n)
    ds = _dataset(y, e, x)
    perm = rng.permutation(n)
    ds_perm = _dataset(y[perm], e[perm], x[perm])
    f1 = fit_nuisances(ds, [0], BasisConfig(degree=3))[0]
    f2 = fit_nuisances(ds_perm, [0], BasisConfig(degree=3))[0]
    for part in ("tau", "pi", "q0", "q1"):
        np.testing.assert_allclose(getattr(f1, part)[perm], getattr(f2, part), atol=1e-10)


def test_group_basis_additive():
    rng = np.random.default_rng(9)
    n = 400
    c = rng.normal(size=(n, 2))
    y = c[:, 0] + 2.0 * c[:, 1] ** 2
    ds = _dataset(y, np.tile([0, 1], n // 2), c)
    fit = fit_nuisances(ds, [(0, 1)], BasisConfig(degree=2), parts=("tau",))[0]
    np.testing.assert_allclose(fit.tau, y, atol=1e-8)


def _mixed_dataset(outcome_kind="continuous", n=120):
    """An ordinary, a binary and a separating covariate (which predicts the exposure exactly)."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    binary = (rng.random(n) < 0.4).astype(float)
    separating = np.where(e == 1, 1.0, -1.0) + 0.1 * rng.normal(size=n)
    y = x + 0.5 * e + rng.normal(size=n)
    if outcome_kind == "bounded":
        y = expit(y)
    return _dataset(y, e, np.column_stack([x, binary, separating]), outcome_kind=outcome_kind)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_solvers_give_each_row_its_stack_of_one_result(degree):
    # 2 * ROW_BLOCK + 123 rows take the row-blocked kernels.
    for n in (120, 2 * ROW_BLOCK + 123):
        ds = _mixed_dataset(n=n)
        order = [0, 1, 2, 0, 2, 1]
        designs = [_designs(ds, [(j,)], BasisConfig(degree=degree))[0] for j in order]
        # A zero column makes the design rank-deficient and its Hessian exactly singular.
        zero = designs[0].copy()
        zero[-1] = 0.0
        X = np.stack([*designs, zero])
        for solver, y in ((_solve_lstsq, ds.outcome), (_fit_logistic, ds.exposure_float)):
            coeffs, ridged = solver(X, y)
            for i in range(len(X)):
                one, one_ridged = solver(X[i : i + 1], y)
                assert np.array_equal(coeffs[i], one[0]) and ridged[i] == one_ridged[0]
            assert np.all(np.isfinite(coeffs))
            if solver is _solve_lstsq:
                # The binary column's powers repeat from degree 2 on.
                assert ridged.tolist() == [*(degree >= 2 and j == 1 for j in order), True]
            else:
                # The separating column's fit diverges.  From degree 2 on the binary
                # column's Hessian is exactly singular, and whether LU meets an exact
                # zero pivot on it follows rounding, so its flag is not pinned.
                pinned = [i for i, j in enumerate(order) if j != 1 or degree == 1]
                assert [ridged[i] for i in pinned] == [order[i] == 2 for i in pinned] and ridged[-1]


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
def test_stacked_fits_equal_fits_of_one(outcome_kind):
    ds = _mixed_dataset(outcome_kind)
    basis = BasisConfig(degree=2)
    stacked = fit_nuisances(ds, [2, 0, 1, 0], basis)
    for fit in stacked:
        one = fit_nuisances(ds, [fit.columns], basis)[0]
        for part in ("tau", "pi", "q0", "q1"):
            assert np.array_equal(getattr(fit, part), getattr(one, part))
        assert fit.warnings == one.warnings
    assert stacked[1].warnings == []


def test_stack_targets_must_share_a_width():
    with pytest.raises(ValidationError, match="same number of columns"):
        fit_nuisances(_mixed_dataset(), [0, (1, 2)], BasisConfig(degree=1))


def test_tall_least_squares_by_row_blocks_match_one_qr():
    rng = np.random.default_rng(11)
    n = 2 * ROW_BLOCK + 123
    X = np.stack([np.vstack([np.ones(n), rng.normal(size=(n, 3)).T]) for _ in range(2)])
    y = np.array([1.0, -2.0, 0.5, 3.0]) @ X[0] + rng.normal(size=n)
    coeffs, ridged = _solve_lstsq(X, y)
    assert not ridged.any()
    for i in range(2):
        one, _ = _solve_lstsq(X[i : i + 1], y)
        assert np.array_equal(coeffs[i], one[0])
        r = np.linalg.qr(np.column_stack([X[i].T, y]), mode="r")
        np.testing.assert_allclose(coeffs[i], np.linalg.solve(r[:4, :4], r[:4, 4]), rtol=1e-12)


def test_tall_least_squares_makes_no_full_size_copy():
    # The augmented [X' | y] is built one row block at a time, never for the whole stack.
    rng = np.random.default_rng(13)
    X = rng.normal(size=(1, 19, 50_000))
    y = rng.normal(size=50_000)
    tracemalloc.start()
    try:
        _solve_lstsq(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * X.nbytes


@pytest.mark.parametrize("n", [2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 2 * ROW_BLOCK + 123, 7 * ROW_BLOCK - 5])
def test_newton_terms_by_row_blocks_match_whole_arrays(n):
    ds = _mixed_dataset(n=n)
    X = _designs(ds, [(0,), (1,), (2,)], BasisConfig(degree=3))
    rng = np.random.default_rng(12)
    mu = expit(rng.normal(size=(len(X), n)))
    w, r = mu * (1.0 - mu), ds.exposure_float - mu
    hess, grad = _newton_terms(X, w, r)

    def whole(X, w, r):
        return (X * w[:, None]) @ np.swapaxes(X, -1, -2), np.matmul(X, r[..., None])[..., 0]

    oracle_hess, oracle_grad = whole(X, w, r)
    if n <= 2 * ROW_BLOCK:
        assert np.array_equal(hess, oracle_hess) and np.array_equal(grad, oracle_grad)
    else:
        # Another summation order: each entry within 1e-13 of the sum of its terms' magnitudes.
        abs_hess, abs_grad = whole(np.abs(X), w, np.abs(r))
        assert np.all(np.abs(hess - oracle_hess) <= 1e-13 * abs_hess)
        assert np.all(np.abs(grad - oracle_grad) <= 1e-13 * abs_grad)


def test_designs_by_row_blocks_equal_one_design_matrix():
    ds = _mixed_dataset(n=2 * ROW_BLOCK + 123)
    basis = BasisConfig(degree=4)
    columns = [(0, 1), (2, 0), (1, 2)]
    c = ds.covariates.T[np.array(columns)]
    z = (c - c.mean(axis=-1, keepdims=True)) / c.std(axis=-1, ddof=1, keepdims=True)
    assert np.array_equal(_designs(ds, columns, basis), _design_matrix(z, basis))
