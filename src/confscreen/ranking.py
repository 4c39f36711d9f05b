"""Turn per-covariate (or per-group) score estimates into rankings and selections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ValidationError
from .estimators import ScoreEstimate
from .influence import _wald_rows

__all__ = ["RankRow", "RankingReport", "rank"]

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


def _order(distance: np.ndarray) -> np.ndarray:
    """Indices by descending ``distance``, ties on input order; NaN distances come last, in input order."""
    return np.argsort(-distance, kind="stable")


def _rank_scores(estimates, score_kind, rule, alpha):
    """Order, Wald step and selection of the ``score_kind`` column of ``estimates``, as ``rank`` describes them.

    Returns the indices from first to last rank, the selection in input
    order, the ``_wald_rows`` triple of every row when every estimate
    carries SEs (NaN where a row's score or SE is missing), else None, and
    the validated rule.
    """
    if score_kind not in SCORE_KINDS:
        raise ValidationError(f"unknown score kind {score_kind!r}")
    difference = score_kind == "difference"
    null = 0.0 if difference else 1.0
    scores = [est.phi_hat if difference else est.psi_hat for est in estimates]
    undefined = np.array([s is None for s in scores], dtype=bool)
    score = np.array(scores, dtype=float)  # None converts to NaN
    has_se, wald = np.zeros(score.shape, dtype=bool), None
    if all(est.se_phi is not None for est in estimates):
        ses = [est.se_phi if difference else est.se_psi for est in estimates]
        has_se = np.array([se is not None for se in ses], dtype=bool)
        wald = _wald_rows(score, np.array(ses, dtype=float), null, alpha)

    k, level = 0, None  # without a rule nothing is selected
    if rule is not None:
        kind, param = rule
        if kind == "top_k":
            k = int(param)
            if not (1 <= k <= score.size):
                raise ValidationError(f"top-K must lie in 1..{score.size}, got {k}")
            rule = (kind, k)
        elif kind == "alpha_test":
            level = float(param)
            if not (0.0 < level < 1.0):
                raise ValidationError("alpha must lie in (0, 1)")
            if (~has_se & ~undefined).any():
                raise ValidationError("alpha-test selection needs influence-based inference (dr or tmle estimates)")
            rule = (kind, level)
        else:
            raise ValidationError(f"unknown selection rule {kind!r}")

    # An undefined or NaN score has no distance: it sorts after every defined score.
    order = _order(np.abs(score - null))
    selected = np.zeros(score.shape, dtype=bool)
    selected[order[:k]] = True
    if level is not None and wald is not None:  # without SEs every score is undefined here
        selected |= wald[2] < level  # a NaN p-value selects nothing
    return order, selected, wald, rule


def rank(
    estimates: list[ScoreEstimate],
    score_kind: str,
    names: list[str] | None = None,
    rule: tuple | None = None,
    alpha: float = 0.10,
) -> RankingReport:
    """Rank estimates by |score - null|, descending with ties on input order, and select by ``rule``.

    When every estimate carries SEs (dr and tmle), each row of a defined
    score gets its Wald CI at level 1 - ``alpha`` and p-value, in one step
    for all rows.  ``rule`` is ``("top_k", k)`` (the first K ranks),
    ``("alpha_test", level)`` (every score with p < level, which needs the
    SEs) or None for no selection.  Undefined ratio scores sink to the
    bottom and are flagged instead of aborting the screen; NaN scores sink
    there too, in input order, without a flag.  ``_rank_scores`` orders and
    selects; this wraps its result into rows.
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
    elif len(names) != len(estimates):
        raise ValidationError(f"{len(estimates)} estimates but {len(names)} names")
    order, selected, wald, rule = _rank_scores(estimates, score_kind, rule, alpha)
    difference = score_kind == "difference"
    inference = [(None, None, None)] * len(estimates)  # (se, ci, p) of each row
    if wald is not None:
        lo, hi, p = (v.tolist() for v in wald)
        ses = [est.se_phi if difference else est.se_psi for est in estimates]
        inference = [(se, (lo[i], hi[i]), p[i]) if se is not None else (None, None, None) for i, se in enumerate(ses)]

    rows = []
    for pos, i in enumerate(order.tolist()):
        est, (se, ci, p) = estimates[i], inference[i]
        score = est.phi_hat if difference else est.psi_hat
        flags = ("constant",) * bool(est.diagnostics.get("constant")) + ("psi_undefined",) * (score is None)
        rows.append(RankRow(est.covariate_id, names[i], score, se, ci, p, bool(selected[i]), pos + 1, flags))
    return RankingReport(rows=tuple(rows), selection_rule=rule)
