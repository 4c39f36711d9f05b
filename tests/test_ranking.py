"""Ranking, top-K selection, alpha-test selection, and the group screen."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confscreen import (
    BasisConfig,
    Dataset,
    GroupSpec,
    ScoreEstimate,
    SimScenario,
    ValidationError,
    evaluate_selection,
    generate,
    rank,
    infer_scores,
    run_replicates,
    score_all,
    score_covariate,
    score_groups,
    simulation,
)
from confscreen._stats import expit


def _estimate(cov_id, phi, psi=None, kind="tmle", constant=False):
    diag = {"constant": True} if constant else {}
    return ScoreEstimate(
        covariate_id=cov_id,
        estimator_kind=kind,
        theta_hat=0.1,
        phi_hat=phi,
        psi_hat=psi,
        diagnostics=diag,
    )


def test_rank_orders_by_absolute_distance():
    ests = [_estimate(0, 0.1), _estimate(1, -0.5), _estimate(2, 0.3)]
    report = rank(ests, "difference")
    assert [row.id for row in report.rows] == [1, 2, 0]
    assert [row.rank for row in report.rows] == [1, 2, 3]


# Scores with undefined (None) and NaN values, ties, signed zeros and infinities.
RANK_SCORES = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(RANK_SCORES, min_size=1, max_size=30), st.sampled_from(["difference", "ratio"]))
def test_rank_order_is_a_sort_by_distance_then_input_order(scores, score_kind):
    null = 0.0 if score_kind == "difference" else 1.0

    def distance(score):
        return -math.inf if score is None or math.isnan(score) else abs(score - null)

    report = rank([_estimate(i, s, psi=s) for i, s in enumerate(scores)], score_kind)
    assert [row.id for row in report.rows] == sorted(range(len(scores)), key=lambda i: (-distance(scores[i]), i))
    assert [row.rank for row in report.rows] == list(range(1, len(scores) + 1))
    for row in report.rows:
        assert row.score is scores[row.id]
        assert row.flags == (("psi_undefined",) if scores[row.id] is None else ())


# A replicate's scores and SEs as score_all would give them: a NaN SE apart from
# a missing one, and a missing SE exactly where psi is undefined.  Scores are
# unbounded, and SEs reach both ends of the float range, so that |score| / SE
# and the CI bounds overflow.
KERNEL_SES = st.sampled_from([0.0, 1e-300, 0.05, 0.1, 1.0, 2.0, 1e308, math.inf, math.nan])
KERNEL_SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e308, math.inf, -math.inf, math.nan]) | st.floats()
KERNEL_ROWS = st.lists(
    st.tuples(KERNEL_SCORES, st.none() | KERNEL_SCORES, KERNEL_SES, KERNEL_SES),
    min_size=15,
    max_size=15,
)
KERNEL_SCENARIO = SimScenario(kind="low_dim", n=40, p=15, seed=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(KERNEL_ROWS)
def test_run_replicates_ranks_as_rank_does(rows):
    def scores(dataset, estimator_kind, basis):
        inference = estimator_kind in ("dr", "tmle")
        return [
            ScoreEstimate(j, estimator_kind, 0.1, phi, psi, se_phi if inference else None,
                          se_psi if inference and psi is not None else None)
            for j, (phi, psi, se_phi, se_psi) in enumerate(rows)
        ]

    def outcome(call):
        """``call()``'s selected ids (as a set), ranking, selection rates and ROC, or its error."""
        try:
            ids, order, rates, roc = call()
        except ValidationError as exc:
            return repr(exc)
        return set(ids), list(order), rates, roc.tolist()

    def rank_loop(estimator_kind, score_kind, rule):
        """The replicate loop through ``rank``."""
        sim = generate(KERNEL_SCENARIO, 0)
        report = rank(scores(sim.dataset, estimator_kind, None), score_kind, list(sim.dataset.column_names), rule)
        ids = [row.id for row in report.rows if row.selected]
        order = [row.id for row in report.rows]
        return ids, order, evaluate_selection(ids, sim.labels), simulation._roc_along(order, sim.labels)

    def replicates(estimator_kind, score_kind, rule):
        seen = {}  # the ids run_replicates hands to evaluate_selection and _roc_along

        def spy(name):
            real = getattr(simulation, name)

            def call(ids, labels):
                seen[name] = ids
                return real(ids, labels)

            return call

        with pytest.MonkeyPatch.context() as mp:
            for name in ("evaluate_selection", "_roc_along"):
                mp.setattr(simulation, name, spy(name))
            result = run_replicates(KERNEL_SCENARIO, estimator_kind, BasisConfig(degree=1), score_kind, rule)
        rates = (result.sensitivity[0], result.specificity[0])
        return seen["evaluate_selection"], seen["_roc_along"], rates, result.roc_mean

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "score_all", scores)
        for estimator_kind in ("plugin_om", "dr"):
            for score_kind in ("difference", "ratio"):
                for rule in (("top_k", 4), ("alpha_test", 0.10)):
                    want = outcome(lambda: rank_loop(estimator_kind, score_kind, rule))
                    assert outcome(lambda: replicates(estimator_kind, score_kind, rule)) == want


@pytest.mark.parametrize(
    "estimator_kind, score_kind, rule, message",
    [
        ("dr", "other", ("top_k", 2), "unknown score kind"),
        ("dr", "difference", ("top_k", 4), "top-K must lie in 1..3"),
        ("plugin_om", "difference", ("alpha_test", 0.10), "needs influence-based inference"),
        ("plugin_om", "ratio", ("alpha_test", 0.10), "needs influence-based inference"),
    ],
)
def test_run_replicates_raises_the_errors_of_rank(estimator_kind, score_kind, rule, message):
    scenario = SimScenario(
        kind="uniform_closed_form", n=100, p=3, seed=5, alphas=(0.3, 0.3, 0.4), betas=(1.0, 0.5, 0.0)
    )
    basis = BasisConfig(degree=1)
    estimates = score_all(generate(scenario, 0).dataset, estimator_kind, basis)
    with pytest.raises(ValidationError, match=message) as from_rank:
        rank(estimates, score_kind, rule=rule)
    with pytest.raises(ValidationError) as from_replicates:
        run_replicates(scenario, estimator_kind, basis, score_kind, rule)
    assert str(from_replicates.value) == str(from_rank.value)


def test_rank_ties_break_on_input_order():
    ests = [_estimate(0, 0.2), _estimate(1, -0.2), _estimate(2, 0.2)]
    report = rank(ests, "difference")
    assert [row.id for row in report.rows] == [0, 1, 2]


def test_rank_ratio_null_is_one():
    ests = [_estimate(0, 0.0, psi=1.1), _estimate(1, 0.0, psi=0.5)]
    report = rank(ests, "ratio")
    assert [row.id for row in report.rows] == [1, 0]


def test_rank_undefined_ratio_sinks_with_flag():
    ests = [_estimate(0, 0.0, psi=None), _estimate(1, 0.0, psi=2.0)]
    report = rank(ests, "ratio")
    assert report.rows[-1].id == 0
    assert "psi_undefined" in report.rows[-1].flags


def test_rank_nan_scores_sink_in_input_order():
    phis = [0.5, np.nan, 0.9, 0.1, 0.7, np.nan, 0.3]
    report = rank([_estimate(i, phi) for i, phi in enumerate(phis)], "difference", rule=("top_k", 2))
    assert [row.id for row in report.rows] == [2, 4, 0, 6, 3, 1, 5]
    assert [row.id for row in report.rows if row.selected] == [2, 4]
    assert all(row.flags == () for row in report.rows)


def test_rank_mixed_kinds_rejected():
    ests = [_estimate(0, 0.1, kind="dr"), _estimate(1, 0.2, kind="tmle")]
    with pytest.raises(ValidationError, match="mixed"):
        rank(ests, "difference")


def test_rank_empty_rejected():
    with pytest.raises(ValidationError):
        rank([], "difference")


def test_rank_names_must_match_estimates():
    ests = [_estimate(j, 0.1 * j) for j in range(4)]
    with pytest.raises(ValidationError, match="4 estimates but 2 names"):
        rank(ests, "difference", names=["a", "b"])


def test_rank_unknown_score_kind():
    with pytest.raises(ValidationError):
        rank([_estimate(0, 0.1)], "other")


def test_constant_flag_propagates():
    report = rank([_estimate(0, 0.0, constant=True)], "difference")
    assert "constant" in report.rows[0].flags


def test_select_top_k():
    ests = [_estimate(j, phi) for j, phi in enumerate([0.1, 0.9, 0.5])]
    report = rank(ests, "difference", rule=("top_k", 2))
    selected = {row.id for row in report.rows if row.selected}
    assert selected == {1, 2}
    assert report.selection_rule == ("top_k", 2)


def test_select_top_k_all():
    ests = [_estimate(j, 0.1 * j) for j in range(4)]
    report = rank(ests, "difference", rule=("top_k", 4))
    assert all(row.selected for row in report.rows)


def test_select_top_k_bounds():
    ests = [_estimate(0, 0.1)]
    with pytest.raises(ValidationError):
        rank(ests, "difference", rule=("top_k", 0))
    with pytest.raises(ValidationError):
        rank(ests, "difference", rule=("top_k", 2))


def test_top_k_monotone_in_k():
    ests = [_estimate(j, phi) for j, phi in enumerate([0.3, 0.1, 0.7, 0.2, 0.9])]
    prev: set = set()
    for k in range(1, 6):
        cur = {row.id for row in rank(ests, "difference", rule=("top_k", k)).rows if row.selected}
        assert prev <= cur and len(cur) == k
        prev = cur


def test_select_by_test():
    # p is about 6e-7 for 0.5 +- 0.1 and 0.32 for 0.1 +- 0.1.
    ests = [replace(_estimate(0, 0.5), se_phi=0.1), replace(_estimate(1, 0.1), se_phi=0.1)]
    report = rank(ests, "difference", rule=("alpha_test", 0.10), alpha=0.10)
    rows = {row.id: row.selected for row in report.rows}
    assert rows == {0: True, 1: False}


def test_select_by_test_leaves_a_nan_se_row_unselected():
    ests = [replace(_estimate(0, 0.5), se_phi=float("nan")), replace(_estimate(1, 0.5), se_phi=0.1)]
    infs = [infer_scores(est, 0.10) for est in ests]
    assert np.isnan(infs[0].p_phi) and infs[1].p_phi < 0.10
    report = rank(ests, "difference", rule=("alpha_test", 0.10), alpha=0.10)
    assert {row.id: row.selected for row in report.rows} == {0: False, 1: True}


def test_select_by_test_needs_inference():
    with pytest.raises(ValidationError, match="inference"):
        rank([_estimate(0, 0.5)], "difference", rule=("alpha_test", 0.10))


def test_select_by_test_alpha_bounds():
    ests = [replace(_estimate(0, 0.5), se_phi=0.1)]
    with pytest.raises(ValidationError):
        rank(ests, "difference", rule=("alpha_test", 0.0), alpha=0.10)
    with pytest.raises(ValidationError, match="alpha"):
        rank(ests, "difference", rule=("alpha_test", 0.10), alpha=0.0)


def _sim_dataset(seed=40, n=300, p=3):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, p))
    e = (rng.random(n) < expit(c[:, 0])).astype(int)
    y = c[:, 0] + 0.5 * c[:, 1] + rng.normal(size=n)
    return Dataset(
        outcome=y, exposure=e, covariates=c, column_names=tuple(f"c{j}" for j in range(p))
    )


def _screen_groups(ds, spec, rule=None):
    """The group screen: member columns, group scores, then ``rank``."""
    members = spec.member_indices(ds)
    estimates = score_groups(ds, members, "tmle", BasisConfig(degree=2))
    return rank(estimates, "difference", names=[name for name, _ in members], rule=rule)


def test_rank_groups_singleton_matches_single_covariate():
    ds = _sim_dataset()
    spec = GroupSpec(groups=(("only_c0", ("c0",)),))
    report = _screen_groups(ds, spec)
    single = score_covariate(ds, 0, "tmle", BasisConfig(degree=2))
    assert report.rows[0].name == "only_c0"
    assert report.rows[0].score == pytest.approx(single.phi_hat, abs=1e-12)


def test_rank_groups_with_rule():
    ds = _sim_dataset()
    spec = GroupSpec(groups=(("g1", ("c0", "c1")), ("g2", ("c2",))))
    report = _screen_groups(ds, spec, rule=("top_k", 1))
    assert sum(row.selected for row in report.rows) == 1
    assert report.rows[0].name == "g1"


def test_screen_infers_only_efficient_estimates():
    ds = _sim_dataset()
    basis = BasisConfig(degree=2)
    plugin = [score_covariate(ds, j, "plugin_om", basis) for j in range(3)]
    report = rank(plugin, "difference", rule=("top_k", 2))
    assert all(row.se is None and row.ci is None and row.p_value is None for row in report.rows)
    assert [row.selected for row in report.rows] == [True, True, False]
    efficient = [score_covariate(ds, j, "dr", basis) for j in range(3)]
    report = rank(efficient, "difference", alpha=0.05)
    assert report.selection_rule is None and not any(row.selected for row in report.rows)
    inferences = [infer_scores(est, 0.05) for est in efficient]
    assert {row.id: (row.se, row.ci, row.p_value) for row in report.rows} == {
        j: (inf.se_phi, inf.ci_phi, inf.p_phi) for j, inf in enumerate(inferences)
    }


def test_rank_groups_unknown_rule():
    ds = _sim_dataset()
    spec = GroupSpec(groups=(("g1", ("c0",)),))
    with pytest.raises(ValidationError, match="rule"):
        _screen_groups(ds, spec, rule=("zap", 1))


@pytest.mark.parametrize("kind", ["dr", "tmle"])
def test_screen_block_inference_equals_infer_scores(kind):
    rng = np.random.default_rng(71)
    n = 150
    c = rng.normal(size=(n, 7))
    c[:, 4] = 1.5  # constant: the null scores, SEs of 0 and p = 1
    e = (rng.random(n) < expit(c[:, 0])).astype(int)
    y = 2.0 + c[:, 0] + 0.5 * c[:, 1] + rng.normal(size=n)
    ds = Dataset(outcome=y, exposure=e, covariates=c, column_names=tuple(f"c{j}" for j in range(7)))
    estimates = score_all(ds, kind, BasisConfig(degree=2))
    first = estimates[0]
    estimates.append(replace(first, covariate_id=7, psi_hat=None, se_psi=None))
    estimates.append(replace(first, covariate_id=8, phi_hat=0.3, se_phi=0.0, se_psi=0.0))
    inferences = [infer_scores(est, 0.10) for est in estimates]
    rows = {}
    for score_kind, suffix in (("difference", "phi"), ("ratio", "psi")):
        report = rank(estimates, score_kind, rule=("alpha_test", 0.10), alpha=0.10)
        rows[score_kind] = {row.id: row for row in report.rows}
        got = [(row.se, row.ci, row.p_value) for row in map(rows[score_kind].get, range(9))]
        want = [tuple(getattr(inf, f"{name}_{suffix}") for name in ("se", "ci", "p")) for inf in inferences]
        assert repr(got) == repr(want)
    phi, psi = rows["difference"], rows["ratio"]
    assert phi[4].se == 0.0 and phi[4].p_value == 1.0
    assert psi[7].se is None and psi[7].p_value is None and phi[7].p_value == phi[0].p_value
    assert phi[8].se == 0.0 and phi[8].p_value == 0.0
