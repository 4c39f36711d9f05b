"""Synthetic designs, substream reproducibility, oracles, selection metrics."""

from dataclasses import replace

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
from confscreen import simulation

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
    for j in range(3):
        mc = oracle_phi(UNIFORM, j, mc_size=400_000, oracle_seed=9)
        closed = uniform_closed_form_phi(UNIFORM, j)
        assert abs(mc.value - closed) < 4.0 * mc.mc_se + 1e-4


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


def test_run_replicates_unknown_rule():
    with pytest.raises(ValidationError, match="rule"):
        run_replicates(UNIFORM, "plugin_om", BasisConfig(degree=1), rule=("zap", 1))
