"""Ranking, top-K selection, alpha-test selection, and the group screen."""

from dataclasses import replace

import numpy as np
import pytest

from confscreen import (
    BasisConfig,
    Dataset,
    GroupSpec,
    ScoreEstimate,
    ValidationError,
    rank,
    infer_scores,
    score_all,
    score_covariate,
    score_groups,
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
