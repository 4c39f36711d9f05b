"""Turn per-covariate (or per-group) score estimates into rankings and selections."""

from __future__ import annotations

from dataclasses import dataclass

from .data import ValidationError
from .estimators import INFERENCE_KINDS, ScoreEstimate
from .influence import InferenceResult, _infer_rows

__all__ = ["RankRow", "RankingReport", "rank", "screen"]

SCORE_KINDS = ("difference", "ratio")


@dataclass(frozen=True)
class RankRow:
    id: object
    name: str
    score: float | None
    se: float | None
    ci: tuple[float, float] | None
    p_value: float | None
    selected: bool
    rank: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RankingReport:
    rows: tuple[RankRow, ...]
    selection_rule: tuple | None = None


def rank(
    estimates: list[ScoreEstimate],
    score_kind: str,
    names: list[str] | None = None,
    inferences: list[InferenceResult | None] | None = None,
    rule: tuple | None = None,
) -> RankingReport:
    """Rank estimates by |score - null|, descending with ties on input order, and select by ``rule``.

    ``rule`` is ``("top_k", k)`` (the first K ranks), ``("alpha_test",
    level)`` (every score with p < level, which needs ``inferences``) or
    None for no selection.  Undefined ratio scores sink to the bottom and
    are flagged instead of aborting the screen.
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
    null = 0.0 if score_kind == "difference" else 1.0

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
        entries.append((distance, idx, est.covariate_id, name, score, se, ci, p, tuple(flags)))

    k, level = 0, None  # without a rule nothing is selected
    if rule is not None:
        kind, param = rule
        if kind == "top_k":
            k = int(param)
            if not (1 <= k <= len(entries)):
                raise ValidationError(f"top-K must lie in 1..{len(entries)}, got {k}")
            rule = (kind, k)
        elif kind == "alpha_test":
            level = float(param)
            if not (0.0 < level < 1.0):
                raise ValidationError("alpha must lie in (0, 1)")
            if any(p is None and "psi_undefined" not in flags for *_, p, flags in entries):
                raise ValidationError(
                    "alpha-test selection needs influence-based inference (dr or tmle estimates)"
                )
            rule = (kind, level)
        else:
            raise ValidationError(f"unknown selection rule {kind!r}")

    entries.sort(key=lambda t: (-t[0], t[1]))
    rows = tuple(
        RankRow(
            id=cov_id,
            name=name,
            score=score,
            se=se,
            ci=ci,
            p_value=p,
            selected=pos < k or (level is not None and p is not None and p < level),
            rank=pos + 1,
            flags=flags,
        )
        for pos, (_, _, cov_id, name, score, se, ci, p, flags) in enumerate(entries)
    )
    return RankingReport(rows=rows, selection_rule=rule)


def screen(
    estimates: list[ScoreEstimate],
    score_kind: str,
    rule: tuple | None = None,
    alpha: float = 0.10,
    names: list[str] | None = None,
) -> tuple[RankingReport, list[InferenceResult] | None]:
    """Infer, rank and select: the screening path from estimates to a selected ranking.

    Estimates of an estimator in ``INFERENCE_KINDS`` get Wald inference at
    level ``alpha`` from their scores and SEs, in one step for all rows;
    the inferences (None for plug-ins) are returned in input order next to
    the report.  ``rule`` is passed to ``rank``.
    """
    inferences = None
    if estimates and all(est.estimator_kind in INFERENCE_KINDS for est in estimates):
        inferences = _infer_rows(estimates, alpha)
    return rank(estimates, score_kind, names=names, inferences=inferences, rule=rule), inferences
