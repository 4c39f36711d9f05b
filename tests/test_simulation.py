"""Synthetic designs, substream reproducibility, oracles, selection metrics."""

import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from confscreen import (
    BasisConfig,
    SimScenario,
    ValidationError,
    evaluate_selection,
    generate,
    infer_scores,
    oracle_phi,
    roc_auc,
    roc_curve,
    run_replicates,
    score_all,
    score_covariate,
    substream,
    uniform_closed_form_phi,
)
from confscreen import estimators, simulation
from confscreen._stats import BLOCK, expit, norm_ppf

UNIFORM = SimScenario(
    kind="uniform_closed_form",
    n=100,
    p=3,
    theta=1.0,
    seed=5,
    alphas=(0.3, 0.3, 0.4),
    betas=(1.0, 0.5, 0.0),
)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        SimScenario(kind="nope", n=100, p=3)
    with pytest.raises(ValidationError):
        SimScenario(kind="low_dim", n=100, p=3)  # needs p >= 15
    with pytest.raises(ValidationError):
        SimScenario(kind="uniform_closed_form", n=100, p=2, alphas=(0.9, 0.9), betas=(0, 0))
    with pytest.raises(ValidationError):
        SimScenario(kind="low_dim", n=100, p=15, rho=1.0)
    # Fields that only the uniform design reads are rejected elsewhere, by name.
    for kind, fields in (
        ("low_dim", {"alphas": (0.1,) * 15}),
        ("high_dim", {"betas": (0.0,) * 15}),
        ("misspecified", {"beta0": 5.0}),
    ):
        (name,) = fields
        with pytest.raises(ValidationError, match=repr(name)):
            SimScenario(kind=kind, n=100, p=15, **fields)
    with pytest.raises(ValidationError, match="'alphas'"):
        SimScenario(kind="uniform_closed_form", n=100, p=2, alphas=(0.0, 0.0), betas=(1.0, 0.0))


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_scenario_seed_outside_philox_keys(seed):
    with pytest.raises(ValidationError, match=r"seed must lie in \[0, 2\^128\)"):
        SimScenario(kind="low_dim", n=100, p=15, seed=seed)


def test_scenario_seed_range_ends_are_keys():
    for seed in (0, 2**128 - 1):
        assert generate(SimScenario(kind="low_dim", n=50, p=15, seed=seed), 0).dataset.n == 50


def test_substream_reproducible_and_independent_of_order():
    a = substream(7, 3).random(5)
    b = substream(7, 3).random(5)
    np.testing.assert_array_equal(a, b)
    # Drawing replicate 0 first must not change replicate 3's stream.
    _ = substream(7, 0).random(1000)
    c = substream(7, 3).random(5)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(substream(7, 4).random(5), a)


def test_generate_reproducible():
    sc = SimScenario(kind="low_dim", n=50, p=15, seed=1)
    d1 = generate(sc, 0)
    d2 = generate(sc, 0)
    np.testing.assert_array_equal(d1.dataset.outcome, d2.dataset.outcome)
    np.testing.assert_array_equal(d1.dataset.covariates, d2.dataset.covariates)


def test_low_dim_shapes_and_labels():
    sc = SimScenario(kind="low_dim", n=80, p=20, seed=2)
    sim = generate(sc, 0)
    assert sim.dataset.n == 80 and sim.dataset.p == 20
    assert sim.labels[:5] == ("confounder",) * 5
    assert sim.labels[5:10] == ("precision",) * 5
    assert sim.labels[10:15] == ("instrument",) * 5
    assert sim.labels[15:] == ("spurious",) * 5


def test_ar1_correlation():
    sc = SimScenario(kind="low_dim", n=50000, p=15, rho=0.5, seed=3)
    c = generate(sc, 0).dataset.covariates
    r = np.corrcoef(c[:, 0], c[:, 1])[0, 1]
    r2 = np.corrcoef(c[:, 0], c[:, 2])[0, 1]
    assert r == pytest.approx(0.5, abs=0.02)
    assert r2 == pytest.approx(0.25, abs=0.02)
    assert c[:, 5].std(ddof=1) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("rho", [0.5, 0.0])
def test_ar1_in_place_equals_two_array_recursion(rho):
    n, p = 300, 12
    z = simulation._normals(substream(9, 1), (n, p))
    c = z.copy()
    if rho != 0.0:
        for j in range(1, p):
            c[:, j] = rho * c[:, j - 1] + np.sqrt(1.0 - rho * rho) * z[:, j]
    assert simulation._ar1_covariates(substream(9, 1), n, p, rho).tobytes() == c.tobytes()


def test_normals_in_place_equal_quantiles_of_their_uniforms():
    shape = (300, 500)
    assert shape[0] * shape[1] > 2 * BLOCK  # several quantile blocks
    z = simulation._normals(substream(9, 2), shape)
    u = norm_ppf(simulation._uniforms(substream(9, 2), shape))
    assert z.tobytes() == u.tobytes()


def test_generate_holds_one_covariate_matrix():
    # The Gaussian draw overwrites its own uniforms: no second (n, p) array.
    scenario = SimScenario(kind="high_dim", n=500, p=1000, seed=3)
    tracemalloc.start()
    try:
        c = generate(scenario, 1).dataset.covariates
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * c.nbytes


def test_import_leaves_the_quadrature_table_uncomputed():
    # The Gauss-Hermite table, and numpy.polynomial with it, load on an oracle's first use.
    code = (
        "import sys, numpy; before = 'numpy.polynomial' in sys.modules; import confscreen.cli; "
        "sys.exit(('numpy.polynomial' in sys.modules) != before)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(simulation.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_misspecified_design_moments():
    sc = SimScenario(kind="misspecified", n=20000, p=15, theta=0.0, seed=4)
    sim = generate(sc, 0)
    # Exposure-model intercept -15 is offset by the mean of the cubic terms.
    assert 0.3 < sim.dataset.exposure.mean() < 0.7


def test_uniform_design_ranges_and_labels():
    sim = generate(UNIFORM, 0)
    c = sim.dataset.covariates
    assert c.min() >= 0.0 and c.max() <= 1.0
    assert sim.labels == ("confounder", "confounder", "instrument")


def test_uniform_closed_form_values():
    assert uniform_closed_form_phi(UNIFORM, 0) == pytest.approx(0.13)
    assert uniform_closed_form_phi(UNIFORM, 1) == pytest.approx(0.08)
    assert uniform_closed_form_phi(UNIFORM, 2) == pytest.approx(0.4 / 3 * 0.4)


def test_oracle_uniform_matches_closed_form():
    # UNIFORM's weights total 1; these total 0.6, so the exposure rate is 0.3.
    partial = replace(UNIFORM, theta=0.7, alphas=(0.1, 0.2, 0.3), betas=(0.4, -0.3, 0.5))
    for scenario in (UNIFORM, partial):
        for target in (0, 1, 2, (0, 2)):
            mc = oracle_phi(scenario, target, mc_size=400_000, oracle_seed=9)
            closed = sum(uniform_closed_form_phi(scenario, j) for j in np.atleast_1d(target))
            assert abs(mc.value - closed) < 4.0 * mc.mc_se + 1e-4, (scenario.alphas, target)


def test_oracle_gaussian_spurious_is_zero():
    sc = SimScenario(kind="low_dim", n=100, p=20, rho=0.0, theta=0.0, seed=5)
    mc = oracle_phi(sc, 17, mc_size=10_000)
    assert mc.value == pytest.approx(0.0, abs=1e-12)


def test_oracle_gaussian_precision_variable():
    # Precision variable with rho = 0: tau_j = 0.6 c_j but E independent of c_j,
    # so the arm means coincide and phi = 0.
    sc = SimScenario(kind="low_dim", n=100, p=15, rho=0.0, theta=0.0, seed=6)
    mc = oracle_phi(sc, 6, mc_size=400_000)
    assert abs(mc.value) < 4.0 * mc.mc_se + 1e-3


def _normal_grid(sd):
    """Nodes sd * z and weights of a dense-grid integral against the N(0, 1) density of z."""
    z, h = np.linspace(-10.0, 10.0, 2001, retstep=True)
    return sd * z, np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) * h


def _gaussian_design(p, rho):
    sigma = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return sigma, *simulation.design_coefficients(p)


@pytest.mark.parametrize("target", [0, (2, 12)])
def test_oracle_gaussian_correlated_matches_an_integral(target):
    # At theta = 0, tau = b . C_G and E[tau | L] = k L with L = alpha . C ~ N(0, s^2),
    # k = (b . Sigma_G alpha) / s^2, so phi = 2 k E[L (2 expit(L) - 1)].
    sc = SimScenario(kind="low_dim", n=100, p=15, rho=0.5, theta=0.0)
    sigma, alphas, betas = _gaussian_design(15, 0.5)
    cols = list(np.atleast_1d(target))
    b = np.linalg.solve(sigma[np.ix_(cols, cols)], sigma[cols] @ betas)
    var_l = alphas @ sigma @ alphas
    nodes, weights = _normal_grid(np.sqrt(var_l))
    exact = 2.0 * (b @ sigma[cols] @ alphas) / var_l * ((nodes * (2.0 * expit(nodes) - 1.0)) @ weights)
    mc = oracle_phi(sc, target, mc_size=2_000_000)
    assert abs(mc.value - exact) < 4.0 * mc.mc_se


def test_gh_expit_mean_matches_an_integral():
    # The residual SD of L given each single column, in both Gaussian designs;
    # the conditional means span four SDs of E[L | C_j] each way.
    errors = {}
    for rho in (0.0, 0.5):
        sigma, alphas, _ = _gaussian_design(15, rho)
        var_l = alphas @ sigma @ alphas
        for j in range(15):
            explained = (sigma[j] @ alphas) ** 2
            sd = np.sqrt(var_l - explained)
            means = np.linspace(-4.0, 4.0, 81) * max(np.sqrt(explained), 1.0)
            nodes, weights = _normal_grid(sd)
            exact = expit(means[:, None] + nodes[None, :]) @ weights
            errors[rho, j] = np.abs(simulation._gh_expit_mean(means, sd) - exact).max()
    assert max(errors.values()) < 3e-5, errors  # 2.9e-5 at rho = 0.5, j = 7 (sd 4.70)
    assert max(errors[0.0, j] for j in range(15)) < 3e-7  # sd 3.0 and 3.16
    means = np.linspace(-8.0, 8.0, 33)
    assert simulation._gh_expit_mean(means, 0.0).tobytes() == expit(means).tobytes()


def test_oracle_misspecified_matches_a_generated_sample():
    # At theta = 0, tau_j(c) = g_j(c) plus the other covariates' constant mean,
    # so phi_j is the exposed-minus-unexposed difference of g_j(C_j) means,
    # taken here on a generated sample independent of the oracle's draws.
    sc = SimScenario(kind="misspecified", n=200_000, p=20, theta=0.0, seed=11)
    ds = generate(sc, 0).dataset
    exposed = ds.exposure == 1
    phi = {}
    for j in (0, 6, 11, 17):
        g = simulation._mis_g(j, ds.covariates[:, j])
        diff = g[exposed].mean() - g[~exposed].mean()
        se = np.sqrt(g[exposed].var(ddof=1) / exposed.sum() + g[~exposed].var(ddof=1) / (~exposed).sum())
        mc = oracle_phi(sc, j, mc_size=400_000)
        assert abs(mc.value - diff) <= 4.0 * np.hypot(mc.mc_se, se) + 1e-12, j
        phi[j] = mc.value
    assert phi[0] > 0.5  # a confounder: both models use C_0
    assert phi[11] == pytest.approx(0.0, abs=1e-12) and phi[17] == pytest.approx(0.0, abs=1e-12)


def test_oracle_misspecified_inner_sample():
    # At theta != 0, tau_j adds theta * P(E = 1 | C_j), averaged over an inner
    # sample of the other exposure terms: constant for a spurious covariate,
    # increasing in the exposure term of an instrument.
    sc = SimScenario(kind="misspecified", n=100, p=20, theta=1.0, seed=11)
    assert oracle_phi(sc, 17, mc_size=20_000).value == pytest.approx(0.0, abs=1e-12)
    mc = oracle_phi(sc, 11, mc_size=20_000)
    assert mc.value - 4.0 * mc.mc_se > 0.0
    # A precision covariate has no exposure term, so theta adds a constant to
    # tau_j and leaves its score as at theta = 0.
    moved = oracle_phi(sc, 7, mc_size=20_000)
    still = oracle_phi(SimScenario(kind="misspecified", n=100, p=20, theta=0.0, seed=11), 7, mc_size=20_000)
    assert abs(moved.value - still.value) < 4.0 * np.hypot(moved.mc_se, still.mc_se)


def test_oracle_target_out_of_range():
    with pytest.raises(ValidationError):
        oracle_phi(UNIFORM, 5, mc_size=100)


def test_oracle_group_uniform():
    mc = oracle_phi(UNIFORM, (0, 1), mc_size=400_000, oracle_seed=10)
    # Additive design: the two-member group score is the sum of member scores.
    closed = uniform_closed_form_phi(UNIFORM, 0) + uniform_closed_form_phi(UNIFORM, 1)
    assert abs(mc.value - closed) < 4.0 * mc.mc_se + 1e-3


def test_evaluate_selection():
    labels = ["confounder", "confounder", "precision", "spurious"]
    sens, spec = evaluate_selection([0, 2], labels)
    assert sens == 0.5 and spec == 0.5
    sens, spec = evaluate_selection([0, 1], labels)
    assert sens == 1.0 and spec == 1.0


def test_evaluate_selection_index_out_of_range():
    labels = ["confounder", "confounder", "precision", "spurious"]
    for bad in (7, -1):
        with pytest.raises(ValidationError, match=f"selected index {bad} is out of range for 4 labels"):
            evaluate_selection([0, bad], labels)


@pytest.mark.parametrize("size", [2, 5])
def test_roc_curve_needs_one_distance_per_label(size):
    labels = ["confounder", "confounder", "spurious", "spurious"]
    with pytest.raises(ValidationError, match=f"{size} distances but 4 labels"):
        roc_curve(np.linspace(1.0, 0.0, size), labels)


def test_roc_curve_perfect_ranking():
    labels = ["confounder", "confounder", "spurious", "spurious"]
    points = roc_curve([0.9, 0.8, 0.1, 0.05], labels)
    assert points.shape == (5, 2)
    np.testing.assert_allclose(points[0], [0.0, 0.0])
    np.testing.assert_allclose(points[2], [1.0, 0.0])
    np.testing.assert_allclose(points[-1], [1.0, 1.0])
    assert roc_auc(points) == pytest.approx(1.0)


def test_roc_curve_worst_ranking():
    labels = ["confounder", "spurious"]
    points = roc_curve([0.0, 1.0], labels)
    assert roc_auc(points) == pytest.approx(0.0)


def _roc_curve_by_sets(distances, labels):
    """Reference: re-evaluate the selected set at every K."""
    order = np.lexsort((np.arange(len(distances)), -np.asarray(distances, dtype=float)))
    points = [(0.0, 0.0)]
    for k in range(1, len(order) + 1):
        sens, spec = evaluate_selection(order[:k], labels)
        points.append((sens, 1.0 - spec))
    return np.asarray(points)


@pytest.mark.parametrize("seed", range(6))
def test_roc_curve_matches_set_evaluation(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 40))
    # Few distinct values force ties; -inf marks undefined ratio scores.
    distances = rng.choice([0.0, 0.5, 1.0, 2.0, -np.inf], size=p)
    kinds = ["confounder", "precision", "instrument", "spurious"]
    label_sets = [
        list(rng.choice(kinds, size=p)),
        ["spurious"] * p,
        ["confounder"] * p,
    ]
    for labels in label_sets:
        got = roc_curve(distances, labels)
        want = _roc_curve_by_sets(distances, labels)
        assert np.array_equal(got, want)


def test_run_replicates_smoke():
    sc = SimScenario(kind="low_dim", n=200, p=15, seed=8, replicates=2)
    res = run_replicates(sc, "tmle", rule=("top_k", 5))
    assert res.sensitivity.shape == (2,)
    assert res.phi_hats.shape == (2, 15)
    assert res.roc_mean.shape == (16, 2)
    assert 0.0 <= res.aggregates["mean_sensitivity"] <= 1.0


def test_run_replicates_deterministic():
    sc = SimScenario(kind="low_dim", n=150, p=15, seed=9, replicates=2)
    a = run_replicates(sc, "dr", rule=("top_k", 3))
    b = run_replicates(sc, "dr", rule=("top_k", 3))
    np.testing.assert_array_equal(a.phi_hats, b.phi_hats)
    np.testing.assert_array_equal(a.sensitivity, b.sensitivity)


def test_run_replicates_coverage_matches_hand_loop():
    scenario = replace(UNIFORM, replicates=3)
    oracle = [uniform_closed_form_phi(scenario, j) for j in range(scenario.p)]
    basis = BasisConfig(degree=2)
    result = run_replicates(scenario, "dr", basis, rule=("top_k", 1), oracle_values=oracle)
    hits = np.empty((3, scenario.p))
    ses = np.empty((3, scenario.p))
    for r in range(3):
        dataset = generate(scenario, r).dataset
        for j in range(scenario.p):
            inf = infer_scores(score_covariate(dataset, j, "dr", basis), 0.10)
            lo, hi = inf.ci_phi
            hits[r, j] = lo <= oracle[j] <= hi
            ses[r, j] = inf.se_phi
    np.testing.assert_array_equal(result.coverage, hits)
    np.testing.assert_array_equal(result.se_hats, ses)
    assert result.aggregates["coverage"] == hits.mean(axis=0).tolist()
    # Coverage is phi's whatever score ranks the replicates.
    ratio = run_replicates(scenario, "dr", basis, "ratio", rule=("top_k", 1), oracle_values=oracle)
    np.testing.assert_array_equal(ratio.coverage, hits)


@pytest.mark.parametrize("score_kind", ["difference", "ratio"])
def test_run_replicates_roc_matches_roc_curve(monkeypatch, score_kind):
    def scores_with_tie_and_undefined_psi(dataset, *args, **kwargs):
        estimates = score_all(dataset, *args, **kwargs)
        estimates[1].psi_hat = None
        estimates[3].phi_hat, estimates[3].psi_hat = estimates[2].phi_hat, estimates[2].psi_hat
        return estimates

    monkeypatch.setattr(simulation, "score_all", scores_with_tie_and_undefined_psi)
    scenario = SimScenario(kind="low_dim", n=120, p=15, seed=8, replicates=2)
    basis = BasisConfig(degree=1)
    result = run_replicates(scenario, "plugin_om", basis, score_kind, rule=("top_k", 5))
    null = 0.0 if score_kind == "difference" else 1.0
    want = np.zeros((scenario.p + 1, 2))
    for r in range(scenario.replicates):
        sim = generate(scenario, r)
        estimates = scores_with_tie_and_undefined_psi(sim.dataset, "plugin_om", basis)
        scores = [est.phi_hat if score_kind == "difference" else est.psi_hat for est in estimates]
        want += roc_curve([abs(s - null) if s is not None else -np.inf for s in scores], sim.labels)
    np.testing.assert_array_equal(result.roc_mean, want / scenario.replicates)


def _result_fields(result):
    """Every field of a SimResult, arrays and floats by their bits."""
    return [value.tobytes() if isinstance(value, np.ndarray) else pickle.dumps(value) for value in vars(result).values()]


@pytest.mark.parametrize("cpus", [2, 3, 40])
@pytest.mark.parametrize(
    "kind, score_kind", [("plugin_om", "difference"), ("plugin_ps", "ratio"), ("dr", "ratio"), ("tmle", "difference")]
)
def test_forked_replicates_equal_one_process(monkeypatch, split_on, cpus, kind, score_kind):
    # Replicates split among forked processes give the bits of one process,
    # oracle coverage and the ROC sum included.
    scenario = replace(UNIFORM, n=80, replicates=5)
    inference = kind in ("dr", "tmle")
    oracle = [uniform_closed_form_phi(scenario, j) for j in range(scenario.p)] if inference else None
    basis = BasisConfig(degree=2)
    rule = ("alpha_test", 0.2) if inference else ("top_k", 1)

    def run():
        return _result_fields(run_replicates(scenario, kind, basis, score_kind, rule, 0.2, oracle))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_process = run()
    forks = split_on(cpus)
    monkeypatch.setattr(estimators, "STACK_DOUBLES", 1)  # a stack per covariate, so a screen could split
    assert run() == one_process
    # One child per slice after the first, and no screen inside a slice is split again.
    assert len(forks) == min(cpus, scenario.replicates) - 1


def test_no_child_outlives_interrupted_replicates(monkeypatch, split_on):
    forks = split_on(3)
    parent = os.getpid()

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return score_all(*args, **kwargs)

    monkeypatch.setattr(simulation, "score_all", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_replicates(replace(UNIFORM, replicates=4), "plugin_om", BasisConfig(degree=1), rule=("top_k", 1))
    assert len(forks) == 2  # the fixture checks that each has been reaped


@pytest.mark.parametrize("kind", ["plugin_om", "plugin_ps"])
def test_run_replicates_rejects_oracle_values_without_inference(kind):
    # A plug-in estimator gives no CI, so oracle coverage cannot be computed.
    oracle = [uniform_closed_form_phi(UNIFORM, j) for j in range(UNIFORM.p)]
    with pytest.raises(ValidationError, match=f"oracle coverage needs a dr or tmle estimator; '{kind}' gives no CI"):
        run_replicates(UNIFORM, kind, BasisConfig(degree=1), rule=("top_k", 1), oracle_values=oracle)


@pytest.mark.parametrize("size", [2, 4])
def test_run_replicates_rejects_oracle_values_of_another_length(size):
    with pytest.raises(ValidationError, match=f"^{size} oracle values for 3 covariates$"):
        run_replicates(UNIFORM, "dr", BasisConfig(degree=1), rule=("top_k", 1), oracle_values=[0.1] * size)


def test_run_replicates_unknown_rule():
    with pytest.raises(ValidationError, match="rule"):
        run_replicates(UNIFORM, "plugin_om", BasisConfig(degree=1), rule=("zap", 1))
