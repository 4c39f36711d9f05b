"""Ranking, top-K selection, alpha-test selection, and the group pipeline."""

import numpy as np
import pytest

from confscreen import (
    BasisConfig,
    Dataset,
    GroupSpec,
    InferenceResult,
    ScoreEstimate,
    ValidationError,
    rank,
    rank_groups,
    score_covariate,
    screen,
    select_by_test,
    select_top_k,
)
from confscreen._stats import expit


def _estimate(cov_id, phi, psi=None, kind="tmle", constant=False):
    diag = {"constant": True} if constant else {}
    return ScoreEstimate(
        covariate_id=cov_id,
        estimator_kind=kind,
        theta_hat=0.1,
        mu_o_hat=0.5,
        mu_e_hat=0.5,
        phi_hat=phi,
        psi_hat=psi,
        diagnostics=diag,
    )


def _inference(p, se=0.1):
    return InferenceResult(se_phi=se, ci_phi=(-1.0, 1.0), p_phi=p, alpha=0.10)


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


def test_rank_mixed_kinds_rejected():
    ests = [_estimate(0, 0.1, kind="dr"), _estimate(1, 0.2, kind="tmle")]
    with pytest.raises(ValidationError, match="mixed"):
        rank(ests, "difference")


def test_rank_empty_rejected():
    with pytest.raises(ValidationError):
        rank([], "difference")


def test_rank_unknown_score_kind():
    with pytest.raises(ValidationError):
        rank([_estimate(0, 0.1)], "other")


def test_constant_flag_propagates():
    report = rank([_estimate(0, 0.0, constant=True)], "difference")
    assert "constant" in report.rows[0].flags


def test_select_top_k():
    ests = [_estimate(j, phi) for j, phi in enumerate([0.1, 0.9, 0.5])]
    report = select_top_k(rank(ests, "difference"), 2)
    selected = {row.id for row in report.rows if row.selected}
    assert selected == {1, 2}
    assert report.selection_rule == ("top_k", 2)


def test_select_top_k_all():
    ests = [_estimate(j, 0.1 * j) for j in range(4)]
    report = select_top_k(rank(ests, "difference"), 4)
    assert all(row.selected for row in report.rows)


def test_select_top_k_bounds():
    report = rank([_estimate(0, 0.1)], "difference")
    with pytest.raises(ValidationError):
        select_top_k(report, 0)
    with pytest.raises(ValidationError):
        select_top_k(report, 2)


def test_top_k_monotone_in_k():
    ests = [_estimate(j, phi) for j, phi in enumerate([0.3, 0.1, 0.7, 0.2, 0.9])]
    base = rank(ests, "difference")
    prev: set = set()
    for k in range(1, 6):
        cur = {row.id for row in select_top_k(base, k).rows if row.selected}
        assert prev <= cur and len(cur) == k
        prev = cur


def test_select_by_test():
    ests = [_estimate(0, 0.5), _estimate(1, 0.1)]
    infs = [_inference(0.01), _inference(0.5)]
    report = select_by_test(rank(ests, "difference", inferences=infs), 0.10)
    rows = {row.id: row.selected for row in report.rows}
    assert rows == {0: True, 1: False}


def test_select_by_test_needs_inference():
    report = rank([_estimate(0, 0.5)], "difference")
    with pytest.raises(ValidationError, match="inference"):
        select_by_test(report, 0.10)


def test_select_by_test_alpha_bounds():
    infs = [_inference(0.01)]
    report = rank([_estimate(0, 0.5)], "difference", inferences=infs)
    with pytest.raises(ValidationError):
        select_by_test(report, 0.0)


def _sim_dataset(seed=40, n=300, p=3):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, p))
    e = (rng.random(n) < expit(c[:, 0])).astype(int)
    y = c[:, 0] + 0.5 * c[:, 1] + rng.normal(size=n)
    return Dataset(
        outcome=y, exposure=e, covariates=c, column_names=tuple(f"c{j}" for j in range(p))
    )


def test_rank_groups_singleton_matches_single_covariate():
    ds = _sim_dataset()
    spec = GroupSpec(groups=(("only_c0", ("c0",)),))
    report = rank_groups(ds, spec, "tmle", BasisConfig(degree=2), "difference")
    single = score_covariate(ds, 0, "tmle", BasisConfig(degree=2))
    assert report.rows[0].name == "only_c0"
    assert report.rows[0].score == pytest.approx(single.phi_hat, abs=1e-12)


def test_rank_groups_with_rule():
    ds = _sim_dataset()
    spec = GroupSpec(groups=(("g1", ("c0", "c1")), ("g2", ("c2",))))
    report = rank_groups(
        ds, spec, "tmle", BasisConfig(degree=2), "difference", rule=("top_k", 1)
    )
    assert sum(row.selected for row in report.rows) == 1
    assert report.rows[0].name == "g1"


def test_screen_infers_only_efficient_estimates():
    ds = _sim_dataset()
    basis = BasisConfig(degree=2)
    plugin = [score_covariate(ds, j, "plugin_om", basis) for j in range(3)]
    report, inferences = screen(plugin, "difference", ("top_k", 2))
    assert inferences is None
    assert [row.selected for row in report.rows] == [True, True, False]
    efficient = [score_covariate(ds, j, "dr", basis) for j in range(3)]
    report, inferences = screen(efficient, "difference", alpha=0.05)
    assert report.selection_rule is None and not any(row.selected for row in report.rows)
    assert [inf.alpha for inf in inferences] == [0.05] * 3
    assert {row.id: row.p_value for row in report.rows} == {j: inf.p_phi for j, inf in enumerate(inferences)}


def test_rank_groups_unknown_rule():
    ds = _sim_dataset()
    spec = GroupSpec(groups=(("g1", ("c0",)),))
    with pytest.raises(ValidationError, match="rule"):
        rank_groups(ds, spec, "tmle", BasisConfig(degree=2), "difference", rule=("zap", 1))
