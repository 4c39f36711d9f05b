"""Score estimators: worked examples, fluctuation algebra, equivalences."""

import numpy as np
import pytest

from confscreen import (
    BasisConfig,
    Dataset,
    NuisanceFit,
    ValidationError,
    eic_theta,
    fit_nuisances,
    fit_saturated,
    fluctuate_pi,
    fluctuate_q,
    plugin_scores_om,
    plugin_scores_ps,
    score_all,
    score_covariate,
    score_groups,
    scores_from_theta,
    theta_dr,
    tmle_theta,
)
from confscreen import estimators
from confscreen._stats import expit, logit
from confscreen.estimators import STACK_DOUBLES


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


# Worked 6-row example: {(O,E,C)} with tau = pi = 0.5 at both levels.
SIX = _dataset([1, 0, 1, 0, 1, 0], [1, 1, 0, 0, 1, 0], [1, 1, 1, 0, 0, 1])


def _random_continuous(seed, n=400):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    y = 0.8 * x + rng.normal(size=n)
    return _dataset(y, e, x)


def test_scores_from_theta_null_point():
    phi, psi = scores_from_theta(0.25, 0.5, 0.5)
    assert phi == 0.0 and psi == 1.0


def test_scores_from_theta_general():
    phi, psi = scores_from_theta(0.3, 0.5, 0.4)
    assert phi == pytest.approx(0.3 / 0.4 - 0.2 / 0.6)
    assert psi == pytest.approx((0.3 / 0.4) / (0.2 / 0.6))


def test_scores_from_theta_psi_undefined():
    phi, psi = scores_from_theta(0.5, 0.5, 0.5)
    assert np.isnan(psi)
    assert phi == pytest.approx(1.0)


def test_scores_from_theta_mu_e_domain():
    with pytest.raises(ValidationError):
        scores_from_theta(0.1, 0.5, 1.0)


def test_theta_naive_six_rows():
    fit = fit_saturated(SIX, 0)
    assert theta_dr(SIX, [fit]).diagnostics[0]["theta_naive"] == pytest.approx(0.25, abs=1e-15)


def test_all_estimators_on_worked_example():
    for kind in ("plugin_om", "plugin_ps", "dr", "tmle"):
        est = score_covariate(SIX, 0, kind, BasisConfig(degree=1), fit=fit_saturated(SIX, 0))
        assert est.theta_hat == pytest.approx(0.25, abs=1e-12)
        assert est.phi_hat == pytest.approx(0.0, abs=1e-12)
        assert est.psi_hat == pytest.approx(1.0, abs=1e-12)


def test_dr_correction_zero_on_saturated():
    fit = fit_saturated(SIX, 0)
    out = theta_dr(SIX, [fit])
    assert out.theta[0] == pytest.approx(out.diagnostics[0]["theta_naive"], abs=1e-14)


def test_tmle_converges_at_zero_on_saturated():
    fit = fit_saturated(SIX, 0)
    diagnostics = tmle_theta(SIX, [fit]).diagnostics[0]
    assert diagnostics["iterations"] == 1
    assert diagnostics["final_eps1"] < 1e-12 and diagnostics["final_eps2"] < 1e-12


def _read_only(*arrays):
    """Read-only copies of ``arrays``: a fluctuation step that writes to an argument raises."""
    copies = [np.array(a, dtype=float) for a in arrays]
    for a in copies:
        a.setflags(write=False)
    return copies


def test_fluctuate_pi_zero_score_leaves_state():
    fit = fit_saturated(SIX, 0)
    pi, q0, q1 = _read_only(fit.pi[None], fit.q0[None], fit.q1[None])
    eps1, pi_new = fluctuate_pi(pi, q0, q1, SIX)
    assert eps1 == 0.0
    np.testing.assert_array_equal(pi_new, fit.pi[None])


def test_fluctuate_q_closed_form_example():
    # Q = 0, O = 1, pi = 0.5 -> H2 = -0.5, eps2 = -2, updated Q = 1.
    n = 8
    ds = _dataset(np.ones(n), np.tile([0, 1], n // 2), np.arange(float(n)))
    pi, q0, q1 = _read_only(np.full((1, n), 0.5), np.zeros((1, n)), np.zeros((1, n)))
    eps2, q0_new, q1_new = fluctuate_q(pi, q0, q1, ds)
    assert eps2 == pytest.approx(-2.0, abs=1e-12)
    np.testing.assert_allclose(q0_new, 1.0, atol=1e-12)
    np.testing.assert_allclose(q1_new, 1.0, atol=1e-12)


def test_fluctuate_q_bounded_dataset_takes_logistic_path():
    # As in tmle_theta, the outcome kind comes from the dataset: Q moves along
    # logit(Q) + eps * H2, not along the linear path Q + eps * H2.
    rng = np.random.default_rng(23)
    n = 200
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    ds = _dataset(rng.random(n) ** 2, e, x, outcome_kind="bounded")
    pi, q0, q1 = _read_only(expit(0.8 * x)[None], expit(0.5 - x)[None], expit(1.0 + x)[None])
    eps2, q0_new, q1_new = fluctuate_q(pi, q0, q1, ds)
    assert abs(eps2) > 1e-3
    np.testing.assert_allclose(q0_new, expit(logit(q0) - eps2 * pi), rtol=1e-12)
    np.testing.assert_allclose(q1_new, expit(logit(q1) - eps2 * pi), rtol=1e-12)


def test_fluctuate_pi_moves_pi_and_writes_no_argument():
    rng = np.random.default_rng(29)
    n = 200
    x = rng.normal(size=n)
    ds = _dataset(x + rng.normal(size=n), (rng.random(n) < expit(x)).astype(int), x)
    pi, q0, q1 = _read_only(expit(0.3 * x)[None], (0.2 * x)[None], (1.0 + x)[None])
    eps1, pi_new = fluctuate_pi(pi, q0, q1, ds)
    assert abs(eps1) > 1e-3 and not np.array_equal(pi_new, pi)


def test_tmle_eic_mean_zero_continuous():
    ds = _random_continuous(11)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=3), parts=("pi", "q"))[0]
    out = tmle_theta(ds, [fit])
    d_theta = eic_theta(ds.outcome_original(), ds.exposure, out.pi, out.tau, out.theta[:, None])
    assert abs(d_theta.mean()) < 1e-8


def test_tmle_convergence_diagnostics():
    ds = _random_continuous(12)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=2), parts=("pi", "q"))[0]
    d = tmle_theta(ds, [fit]).diagnostics[0]
    assert d["iterations"] >= 1 and "trace" not in d
    assert max(d["final_eps1"], d["final_eps2"]) < 1e-8


def test_plugin_om_phi_is_within_arm_tau_difference():
    ds = _random_continuous(13)
    fit = fit_saturated(
        _dataset(ds.outcome, ds.exposure, np.round(ds.covariates[:, 0])), 0
    )
    ds_round = _dataset(ds.outcome, ds.exposure, np.round(ds.covariates[:, 0]))
    est = score_covariate(ds_round, 0, "plugin_om", BasisConfig(degree=1), fit)
    tau = fit.tau
    e = ds_round.exposure
    direct = tau[e == 1].mean() - tau[e == 0].mean()
    assert est.phi_hat == pytest.approx(direct, abs=1e-12)


def test_fit_without_a_needed_part_raises():
    ds = _random_continuous(27)
    basis = BasisConfig(degree=2)
    cases = (
        (theta_dr, ("pi",)),
        (plugin_scores_om, ("pi",)),
        (plugin_scores_ps, ("tau",)),
        (tmle_theta, ("pi",)),
        (tmle_theta, ("q",)),
    )
    for estimator, parts in cases:
        fit = fit_nuisances(ds, [0], basis, parts=parts)[0]
        with pytest.raises(ValidationError, match=r"fit has no [\w-]+ part"):
            estimator(ds, [fit])


# Each estimator with each nuisance part it reads.
_PARTS_READ = (
    (plugin_scores_om, "tau"),
    (plugin_scores_ps, "pi"),
    (theta_dr, "tau"),
    (theta_dr, "pi"),
    (tmle_theta, "pi"),
    (tmle_theta, "q0"),
    (tmle_theta, "q1"),
)


@pytest.mark.parametrize("shape", ["1", "n-1", "n,1"])
def test_fit_values_of_another_shape_raise(shape):
    ds = _random_continuous(28, n=50)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=2), parts=("tau", "pi", "q"))[0]
    values = {part: getattr(fit, part) for part in ("tau", "pi", "q0", "q1")}
    for estimator, part in _PARTS_READ:
        wrong = {"1": values[part][:1], "n-1": values[part][:-1], "n,1": values[part][:, None]}[shape]
        broken = NuisanceFit((0,), **{**values, part: wrong}, warnings=[])
        message = f"fit's {part} values have shape {wrong.shape}; the dataset has n = 50 rows"
        with pytest.raises(ValidationError) as info:
            estimator(ds, [broken])
        assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_values_not_finite_raise(bad):
    ds = _random_continuous(28, n=50)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=2), parts=("tau", "pi", "q"))[0]
    values = {part: getattr(fit, part) for part in ("tau", "pi", "q0", "q1")}
    for estimator, part in _PARTS_READ:
        broken = NuisanceFit((0,), **{**values, part: np.where(np.arange(50) == 7, bad, values[part])})
        with pytest.raises(ValidationError) as info:
            estimator(ds, [broken])
        assert str(info.value) == f"fit's {part} values are not all finite"
        if part == "pi":
            # Through the public API: a NaN propensity no longer scores phi NaN with p-value 0.
            with pytest.raises(ValidationError, match="fit's pi values are not all finite"):
                score_covariate(ds, 0, "dr", BasisConfig(degree=2), broken)


def test_plugin_ps_uses_observed_outcome_mean():
    ds = _random_continuous(14)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=2), parts=("pi",))[0]
    assert plugin_scores_ps(ds, [fit]).mu_o == pytest.approx(float(ds.outcome.mean()), abs=1e-14)


def test_phi_self_consistency_invariant():
    ds = _random_continuous(15)
    basis = BasisConfig(degree=2)
    fit = fit_nuisances(ds, [0], basis)[0]
    mu_e = ds.exposure_mean
    for kind, estimator in zip(KINDS, (plugin_scores_om, plugin_scores_ps, theta_dr, tmle_theta)):
        est = score_covariate(ds, 0, kind, basis, fit)
        out = estimator(ds, [fit])
        mu_o = np.ravel(out.mu_o)[0]
        recomputed = out.theta[0] / mu_e - (mu_o - out.theta[0]) / (1.0 - mu_e)
        assert est.phi_hat == pytest.approx(recomputed, abs=1e-12)


def test_constant_covariate_scores_null():
    rng = np.random.default_rng(16)
    # A column of 1.1 at n=500 has a rounding-level sample sd (about 2e-16), not 0.
    for n, value in ((50, 3.0), (500, 1.1)):
        ds = _dataset(rng.normal(size=n), np.tile([0, 1], n // 2), np.full(n, value))
        for kind in ("plugin_om", "plugin_ps", "dr", "tmle"):
            est = score_covariate(ds, 0, kind, BasisConfig(degree=3))
            assert est.phi_hat == 0.0 and est.psi_hat == 1.0
            assert est.diagnostics.get("constant")


def test_bounded_outcome_back_transform():
    rng = np.random.default_rng(17)
    n = 600
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    raw = 10.0 + 5.0 * expit(x + rng.normal(size=n))  # original scale in [10, 15]
    scaled = (raw - raw.min()) / (raw.max() - raw.min())
    ds = _dataset(
        scaled,
        e,
        x,
        outcome_kind="bounded",
        outcome_scale=float(raw.max() - raw.min()),
        outcome_offset=float(raw.min()),
    )
    basis = BasisConfig(degree=2)
    est = score_covariate(ds, 0, "tmle", basis)
    mu_e = ds.exposure_mean
    # theta on the original scale must be bounded by the outcome range.
    assert raw.min() * mu_e - 1e-9 <= est.theta_hat <= raw.max() * mu_e + 1e-9
    fits = fit_nuisances(ds, [0], basis, parts=("pi", "q"))
    assert tmle_theta(ds, fits).mu_o == pytest.approx(raw.mean(), abs=1e-9)
    # Substitution range guarantee on the rescaled outcome: |phi| <= range.
    assert abs(est.phi_hat) <= (raw.max() - raw.min()) + 1e-9


def test_theta_naive_bounded_outcome_on_original_scale():
    # One naive plug-in for all three readers, mapped back like every reported quantity.
    rng = np.random.default_rng(24)
    n = 300
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    y = np.clip(expit(x) + 0.1 * rng.normal(size=n), 0.0, 1.0)
    ds = _dataset(y, e, x, outcome_kind="bounded", outcome_scale=10.0, outcome_offset=2.0)
    fit = fit_nuisances(ds, [0], BasisConfig(degree=2), parts=("tau", "pi"))[0]
    naive = theta_dr(ds, [fit]).diagnostics[0]["theta_naive"]
    assert naive == float(np.mean(e * (10.0 * fit.tau + 2.0)))
    assert naive == plugin_scores_om(ds, [fit]).theta[0]


def test_bounded_phi_within_unit_interval_on_unit_outcome():
    rng = np.random.default_rng(18)
    n = 400
    x = rng.normal(size=n)
    e = (rng.random(n) < expit(x)).astype(int)
    y = np.clip(expit(x) + 0.1 * rng.normal(size=n), 0.0, 1.0)
    ds = _dataset(y, e, x, outcome_kind="bounded")
    est = score_covariate(ds, 0, "tmle", BasisConfig(degree=2))
    assert -1.0 - 1e-12 <= est.phi_hat <= 1.0 + 1e-12


def test_score_all_column_order_and_determinism():
    rng = np.random.default_rng(19)
    n = 200
    c = rng.normal(size=(n, 4))
    e = (rng.random(n) < expit(c[:, 0])).astype(int)
    y = c[:, 0] + rng.normal(size=n)
    ds = Dataset(outcome=y, exposure=e, covariates=c, column_names=("a", "b", "x", "z"))
    one = score_all(ds, "tmle", BasisConfig(degree=2))
    two = score_all(ds, "tmle", BasisConfig(degree=2))
    assert [est.covariate_id for est in one] == [0, 1, 2, 3]
    for u, v in zip(one, two):
        assert u.phi_hat == v.phi_hat and u.theta_hat == v.theta_hat


def test_row_permutation_invariance():
    ds = _random_continuous(20)
    rng = np.random.default_rng(21)
    perm = rng.permutation(ds.n)
    ds_perm = _dataset(ds.outcome[perm], ds.exposure[perm], ds.covariates[perm, 0])
    for kind in ("plugin_om", "dr", "tmle"):
        a = score_covariate(ds, 0, kind, BasisConfig(degree=2))
        b = score_covariate(ds_perm, 0, kind, BasisConfig(degree=2))
        assert a.theta_hat == pytest.approx(b.theta_hat, abs=1e-10)
        assert a.phi_hat == pytest.approx(b.phi_hat, abs=1e-10)


def test_unknown_estimator_kind():
    with pytest.raises(ValidationError, match="estimator"):
        score_covariate(SIX, 0, "banana", BasisConfig(degree=1))


def test_group_scoring_matches_singleton():
    ds = _random_continuous(22)
    single = score_covariate(ds, 0, "tmle", BasisConfig(degree=2))
    group = score_covariate(ds, (0,), "tmle", BasisConfig(degree=2))
    assert group.theta_hat == pytest.approx(single.theta_hat, abs=1e-12)


KINDS = ("plugin_om", "plugin_ps", "dr", "tmle")


def _assert_same_estimate(a, b):
    """Bitwise equality of two estimates, their SEs included."""
    for name in ("covariate_id", "estimator_kind", "theta_hat", "phi_hat", "psi_hat", "se_phi", "se_psi"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.diagnostics.get("warnings") == b.diagnostics.get("warnings")


def _layout_dataset(layout, n, seed=26):
    """Columns "x" (normal), "b" (binary) and "c" (constant) in the given order."""
    rng = np.random.default_rng(seed)
    makers = {
        "x": lambda: rng.normal(size=n),
        "b": lambda: (rng.random(n) < 0.5).astype(float),
        "c": lambda: np.full(n, 2.5),
    }
    c = np.column_stack([makers[kind]() for kind in layout])
    e = (rng.random(n) < expit(0.5 * c.sum(axis=1) / len(layout))).astype(int)
    y = c.sum(axis=1) / len(layout) + 0.5 * e + rng.normal(size=n)
    return _dataset(y, e, c)


def test_score_all_equals_score_covariate_across_stack_edges(monkeypatch):
    basis = BasisConfig(degree=3)
    n = 4000
    per_stack = STACK_DOUBLES // (n * basis.width(1))
    assert per_stack >= 2
    layouts = {
        "one column": (["x"], [1]),
        "one past a stack": (["x"] * per_stack + ["b"], [per_stack, 1]),
        "constants on stack edges": (
            ["c"] + ["x"] * per_stack + ["c"] + ["b"] + ["x"] * per_stack + ["c"],
            [per_stack, per_stack, 1],
        ),
    }
    fit_stack = estimators.fit_nuisances
    sizes = []

    def recorded(dataset, targets, *args, **kwargs):
        sizes.append(len(targets))
        return fit_stack(dataset, targets, *args, **kwargs)

    for layout, stack_sizes in layouts.values():
        ds = _layout_dataset(layout, n)
        for kind in KINDS:
            sizes.clear()
            monkeypatch.setattr(estimators, "fit_nuisances", recorded)
            screen = score_all(ds, kind, basis)
            monkeypatch.setattr(estimators, "fit_nuisances", fit_stack)
            assert sizes == stack_sizes
            assert [est.covariate_id for est in screen] == list(range(ds.p))
            for j, est in enumerate(screen):
                _assert_same_estimate(est, score_covariate(ds, j, kind, basis))


def test_score_groups_of_mixed_widths_keep_input_order():
    ds = _layout_dataset(["x", "x", "b", "x", "c", "x", "x", "x"], 300)
    groups = [("a", (0,)), ("bc", (1, 2)), ("d", (3,)), ("e", (4,)), ("fg", (5, 6)), ("h", (7,))]
    basis = BasisConfig(degree=2)
    for kind in KINDS:
        estimates = score_groups(ds, groups, kind, basis)
        assert [est.covariate_id for est in estimates] == [name for name, _ in groups]
        for est, (name, cols) in zip(estimates, groups):
            alone = score_covariate(ds, cols, kind, basis)
            alone.covariate_id = name
            _assert_same_estimate(est, alone)


def _one_row_newton(h, y, base):
    """The Newton solve of one row, one scalar step at a time: the reference for the stacked solver."""

    def score_and_mu(eps):
        mu = expit(base + eps * h)
        return float(np.add.reduce(h * (y - mu)) / h.shape[0]), mu

    s0, mu = score_and_mu(0.0)
    if abs(s0) < estimators.NEWTON_TOL:
        return 0.0, False
    eps, s, hh = 0.0, s0, h * h
    for _ in range(estimators.NEWTON_MAX_STEPS):
        info = float(np.add.reduce(hh * mu * (1.0 - mu)) / h.shape[0])
        if info <= 0.0:
            break
        step, scale = s / info, 1.0
        for _ in range(30):
            cand = eps + scale * step
            s_cand, mu_cand = score_and_mu(cand)
            if abs(s_cand) <= abs(s):
                break
            scale *= 0.5
        eps, s, mu = cand, s_cand, mu_cand
        if abs(s) < estimators.NEWTON_TOL:
            return eps, False
    return estimators._bisect_eps(h, y, base, s0), True


@pytest.mark.parametrize("newton_steps", [estimators.NEWTON_MAX_STEPS, 2])
def test_offset_logistic_mle_rows_equal_one_row_newton(monkeypatch, newton_steps):
    monkeypatch.setattr(estimators, "NEWTON_MAX_STEPS", newton_steps)
    rng = np.random.default_rng(41)
    n = 300
    y = np.where(rng.random(n) < 0.5, rng.random(n), (rng.random(n) < 0.4).astype(float))
    h = rng.normal(size=(6, n)) * np.array([[1.0], [0.1], [6.0], [1.0], [2.0], [0.0]])
    base = rng.normal(size=(6, n))
    base[3] = 50.0  # expit(base) rounds to 1: no information at eps = 0, so bisection
    expected = [_one_row_newton(h[i], y, base[i]) for i in range(len(h))]
    assert expected[3][1] and expected[5] == (0.0, False)
    if newton_steps == 2:
        assert sum(bisected for _, bisected in expected) >= 2
    eps, mu = estimators._offset_logistic_mle(h, y, base)
    assert eps.tolist() == [value for value, _ in expected]
    assert np.array_equal(mu, expit(base + eps[:, None] * h))
    for i in range(len(h)):
        assert estimators._offset_logistic_mle(h[i : i + 1], y, base[i : i + 1])[0] == eps[i]


def _mixed_dataset(outcome_kind, n=240, seed=43):
    """Normal columns around a binary one (column 2), which a saturated fit can take."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, 5))
    c[:, 2] = rng.random(n) < 0.5
    e = (rng.random(n) < expit(0.8 * c[:, 0] - 0.5 * c[:, 2] + 0.3 * c[:, 3] ** 2)).astype(int)
    y = c[:, 0] + 0.5 * c[:, 2] + np.sin(2.0 * c[:, 1]) + 0.7 * e + rng.normal(size=n)
    if outcome_kind == "bounded":
        y = expit(y)
    return _dataset(y, e, c, outcome_kind=outcome_kind)


def _assert_same_targeting(a, b):
    """Bitwise equality of two tmle estimates, their diagnostics included."""
    _assert_same_estimate(a, b)
    assert repr(a.diagnostics) == repr(b.diagnostics)


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
def test_fluctuations_of_mixed_stacks_equal_rows_alone(outcome_kind):
    # Moving rows beside still ones, so each step takes its rows by a mask: the
    # saturated row's pi score already vanishes, and the plugged row's pi of
    # 1e-9 gives sum(H2^2) < 1e-14, so a continuous Q keeps its values.
    ds = _mixed_dataset(outcome_kind)
    fits = list(fit_nuisances(ds, [0, 1, 3], BasisConfig(degree=3), parts=("pi", "q")))
    tiny = NuisanceFit((4,), pi=np.full(ds.n, 1e-9), q0=fits[0].q0, q1=fits[0].q1)
    fits[1:1] = [fit_saturated(ds, 2), tiny]
    stack = _read_only(*(estimators._values(ds, fits, part) for part in ("pi", "q0", "q1")))
    for fluctuate, still_row, parts in ((fluctuate_pi, 1, [0]), (fluctuate_q, 2, [1, 2])):
        eps, *out = fluctuate(*stack, ds)
        moved = eps != 0.0
        assert moved.any() and not moved[still_row]
        for i in range(len(fits)):
            eps_i, *out_i = fluctuate(*(a[i : i + 1] for a in stack), ds)
            assert eps_i.tobytes() == eps[i : i + 1].tobytes()
            for new, alone, part in zip(out, out_i, parts):
                assert new[i].tobytes() == alone[0].tobytes()
                if not moved[i]:
                    assert new[i].tobytes() == stack[part][i].tobytes()


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
@pytest.mark.parametrize("max_iter, newton_steps", [(100, estimators.NEWTON_MAX_STEPS), (2, estimators.NEWTON_MAX_STEPS), (100, 1)])
def test_targeted_stack_rows_equal_targets_alone(monkeypatch, outcome_kind, max_iter, newton_steps):
    monkeypatch.setattr(estimators, "TMLE_MAX_ITER", max_iter)
    monkeypatch.setattr(estimators, "NEWTON_MAX_STEPS", newton_steps)
    bisect = estimators._bisect_eps
    bisected = []

    def recorded(*args):
        bisected.append(1)
        return bisect(*args)

    monkeypatch.setattr(estimators, "_bisect_eps", recorded)
    ds = _mixed_dataset(outcome_kind)
    fits = list(fit_nuisances(ds, list(range(ds.p)), BasisConfig(degree=3), parts=("pi", "q")))
    fits[2] = fit_saturated(ds, 2)
    _, iterations, final_eps, converged = estimators._target(ds, fits)
    basis = BasisConfig(degree=3)
    for i, (fit, row) in enumerate(zip(fits, estimators._score_stack(ds, "tmle", fits))):
        alone = score_covariate(ds, i, "tmle", basis, fit)
        _assert_same_targeting(score_covariate(ds, i, "tmle", basis, row), alone)
    # The saturated row already solves both score equations.
    assert iterations[2] == 1 and final_eps[:, 2].max() < 1e-12
    if max_iter == 2:
        assert not converged.all() and converged[2]
    else:
        assert converged.all() and len(set(iterations.tolist())) > 1
    if newton_steps == 1:
        assert bisected


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
def test_nonconverged_tmle_rows_carry_their_last_eps(monkeypatch, outcome_kind):
    monkeypatch.setattr(estimators, "TMLE_MAX_ITER", 2)
    nonconverged = 0
    for est in score_all(_mixed_dataset(outcome_kind), "tmle", BasisConfig(degree=3)):
        d = est.diagnostics
        late = [w for w in d["warnings"] if w.startswith("tmle did not converge")]
        if max(d["final_eps1"], d["final_eps2"]) < estimators.TMLE_TOL:
            assert not late
            continue
        nonconverged += 1
        assert d["iterations"] == 2
        assert late == [
            f"tmle did not converge in 2 iterations (|eps1|={d['final_eps1']:.3e}, |eps2|={d['final_eps2']:.3e})"
        ]
    assert nonconverged


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
def test_score_all_tmle_equals_score_covariate_with_diagnostics(outcome_kind):
    ds = _mixed_dataset(outcome_kind)
    basis = BasisConfig(degree=3)
    for j, est in enumerate(score_all(ds, "tmle", basis)):
        _assert_same_targeting(est, score_covariate(ds, j, "tmle", basis))


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
def test_fit_built_from_values_scores_like_the_fitted_one(outcome_kind):
    # Another learner plugs in through its values at the data's rows.
    ds = _mixed_dataset(outcome_kind)
    basis = BasisConfig(degree=3)
    for j in range(ds.p):
        fit = fit_nuisances(ds, [j], basis)[0]
        values = {part: getattr(fit, part).copy() for part in ("tau", "pi", "q0", "q1")}
        plugged = NuisanceFit((j,), **values, warnings=list(fit.warnings))
        for kind in KINDS:
            _assert_same_targeting(
                score_covariate(ds, j, kind, basis, plugged), score_covariate(ds, j, kind, basis, fit)
            )


@pytest.mark.parametrize("outcome_kind", ["continuous", "bounded"])
def test_list_of_fits_estimates_like_the_fitted_stack(outcome_kind):
    # A fitted stack reaches the estimators as its (b, n) arrays, another
    # learner's fits as a list of NuisanceFits; both give the same bits.
    rng = np.random.default_rng(44)
    n = 300
    c = np.column_stack([np.full(n, 2.5), rng.random(n) < 0.5, rng.normal(size=(n, 2))])
    e = (rng.random(n) < expit(0.6 * c[:, 2] - 0.4 * c[:, 1])).astype(int)
    y = c[:, 1] + np.sin(c[:, 3]) + 0.5 * e + rng.normal(size=n)
    ds = _dataset(expit(y) if outcome_kind == "bounded" else y, e, c, outcome_kind=outcome_kind)
    stack = fit_nuisances(ds, list(range(ds.p)), BasisConfig(degree=3))
    assert "tau: rank-deficient design, ridge fallback used" in stack.warnings[1]
    fits = [
        NuisanceFit(fit.columns, **{part: getattr(fit, part).copy() for part in ("tau", "pi", "q0", "q1")},
                    warnings=list(fit.warnings))
        for fit in stack
    ]
    for estimator in (plugin_scores_om, plugin_scores_ps, theta_dr, tmle_theta):
        from_list, from_stack = estimator(ds, fits), estimator(ds, stack)
        for name in ("theta", "mu_o", "pi", "tau"):
            a, b = getattr(from_list, name), getattr(from_stack, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        assert repr(from_list.diagnostics) == repr(from_stack.diagnostics)
