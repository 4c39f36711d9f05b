"""Turn per-covariate (or per-group) score estimates into rankings and selections."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import Dataset, GroupSpec, ValidationError
from .estimators import INFERENCE_KINDS, ScoreEstimate, score_groups
from .influence import InferenceResult, infer_scores
from .nuisance import BasisConfig

__all__ = ["RankRow", "RankingReport", "rank", "select_top_k", "select_by_test", "screen", "rank_groups"]

SCORE_KINDS = ("difference", "ratio")


@dataclass(frozen=True)
class RankRow:
    id: object
    name: str
    score_kind: str
    score: float | None
    distance: float
    se: float | None
    ci: tuple[float, float] | None
    p_value: float | None
    selected: bool
    rank: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RankingReport:
    rows: tuple[RankRow, ...]
    score_kind: str
    selection_rule: tuple | None = None


def _null_value(score_kind: str) -> float:
    return 0.0 if score_kind == "difference" else 1.0


def rank(
    estimates: list[ScoreEstimate],
    score_kind: str,
    names: list[str] | None = None,
    inferences: list[InferenceResult | None] | None = None,
) -> RankingReport:
    """Rank estimates by |score - null|, descending; ties break on input order.

    Undefined ratio scores sink to the bottom and are flagged instead of
    aborting the screen.
    """
    if score_kind not in SCORE_KINDS:
        raise ValidationError(f"unknown score kind {score_kind!r}")
    if not estimates:
        raise ValidationError("no estimates to rank")
    kinds = {est.estimator_kind for est in estimates}
    if len(kinds) != 1:
        raise ValidationError(f"mixed estimator kinds in one ranking: {sorted(kinds)}")
    if names is None:
        names = [str(est.covariate_id) for est in estimates]
    if inferences is None:
        inferences = [None] * len(estimates)
    null = _null_value(score_kind)

    entries = []
    for idx, (est, name, inf) in enumerate(zip(estimates, names, inferences)):
        flags = []
        if est.diagnostics.get("constant"):
            flags.append("constant")
        if score_kind == "difference":
            score = est.phi_hat
            se = inf.se_phi if inf else None
            ci = inf.ci_phi if inf else None
            p = inf.p_phi if inf else None
        else:
            score = est.psi_hat
            se = inf.se_psi if inf else None
            ci = inf.ci_psi if inf else None
            p = inf.p_psi if inf else None
            if score is None:
                flags.append("psi_undefined")
        distance = abs(score - null) if score is not None else float("-inf")
        entries.append((distance, idx, est, name, score, se, ci, p, tuple(flags)))

    entries.sort(key=lambda t: (-t[0], t[1]))
    rows = tuple(
        RankRow(
            id=est.covariate_id,
            name=name,
            score_kind=score_kind,
            score=score,
            distance=distance if distance != float("-inf") else 0.0,
            se=se,
            ci=ci,
            p_value=p,
            selected=False,
            rank=pos + 1,
            flags=flags,
        )
        for pos, (distance, _, est, name, score, se, ci, p, flags) in enumerate(entries)
    )
    return RankingReport(rows=rows, score_kind=score_kind)


def select_top_k(report: RankingReport, k: int) -> RankingReport:
    """Flag the first K ranks as selected."""
    m = len(report.rows)
    if not (1 <= k <= m):
        raise ValidationError(f"top-K must lie in 1..{m}, got {k}")
    rows = tuple(replace(row, selected=row.rank <= k) for row in report.rows)
    return RankingReport(rows=rows, score_kind=report.score_kind, selection_rule=("top_k", k))


def select_by_test(report: RankingReport, alpha: float) -> RankingReport:
    """Flag rows whose score is significant at level alpha (p < alpha)."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")
    if any(row.p_value is None and "psi_undefined" not in row.flags for row in report.rows):
        raise ValidationError(
            "alpha-test selection needs influence-based inference (dr or tmle estimates)"
        )
    rows = tuple(
        replace(row, selected=row.p_value is not None and row.p_value < alpha)
        for row in report.rows
    )
    return RankingReport(rows=rows, score_kind=report.score_kind, selection_rule=("alpha_test", alpha))


def screen(
    estimates: list[ScoreEstimate],
    score_kind: str,
    rule: tuple | None = None,
    alpha: float = 0.10,
    names: list[str] | None = None,
) -> tuple[RankingReport, list[InferenceResult] | None]:
    """Infer, rank and select: the screening path from estimates to a selected ranking.

    Estimates of an estimator in ``INFERENCE_KINDS`` get Wald inference at
    level ``alpha``; the inferences (None for plug-ins) are returned in input
    order next to the report.  ``rule`` is ``("top_k", k)``,
    ``("alpha_test", level)`` or None for no selection.
    """
    inferences = None
    if all(est.estimator_kind in INFERENCE_KINDS for est in estimates):
        inferences = [infer_scores(est, alpha) for est in estimates]
    report = rank(estimates, score_kind, names=names, inferences=inferences)
    if rule is None:
        return report, inferences
    kind, param = rule
    if kind == "top_k":
        return select_top_k(report, int(param)), inferences
    if kind == "alpha_test":
        return select_by_test(report, float(param)), inferences
    raise ValidationError(f"unknown selection rule {kind!r}")


def rank_groups(
    dataset: Dataset,
    groups: GroupSpec,
    estimator_kind: str,
    basis: BasisConfig,
    score_kind: str,
    rule: tuple | None = None,
    alpha: float = 0.10,
) -> RankingReport:
    """Full group pipeline: fit group nuisances, score, rank, optionally select."""
    groups.validate(dataset)
    members = groups.member_indices(dataset)
    estimates = score_groups(dataset, members, estimator_kind, basis)
    return screen(estimates, score_kind, rule, alpha, names=[name for name, _ in members])[0]
