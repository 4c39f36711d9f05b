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
    there too, in input order, without a flag.
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
    difference = score_kind == "difference"
    null = 0.0 if difference else 1.0
    scores = [est.phi_hat if difference else est.psi_hat for est in estimates]
    inference = [(None, None, None)] * len(estimates)  # (se, ci, p) of each row
    if all(est.se_phi is not None for est in estimates):
        ses = [est.se_phi if difference else est.se_psi for est in estimates]
        defined = [i for i, se in enumerate(ses) if se is not None]
        lo, hi, p = _wald_rows(*(np.array([v[i] for i in defined]) for v in (scores, ses)), null, alpha)
        for i, ci, p_i in zip(defined, zip(lo.tolist(), hi.tolist()), p.tolist()):
            inference[i] = (ses[i], ci, p_i)

    k, level = 0, None  # without a rule nothing is selected
    if rule is not None:
        kind, param = rule
        if kind == "top_k":
            k = int(param)
            if not (1 <= k <= len(estimates)):
                raise ValidationError(f"top-K must lie in 1..{len(estimates)}, got {k}")
            rule = (kind, k)
        elif kind == "alpha_test":
            level = float(param)
            if not (0.0 < level < 1.0):
                raise ValidationError("alpha must lie in (0, 1)")
            if any(p is None and score is not None for (_, _, p), score in zip(inference, scores)):
                raise ValidationError("alpha-test selection needs influence-based inference (dr or tmle estimates)")
            rule = (kind, level)
        else:
            raise ValidationError(f"unknown selection rule {kind!r}")

    # An undefined or NaN score has no distance: it sorts after every defined score.
    distance = np.abs(np.array([np.nan if s is None else s for s in scores], dtype=float) - null)
    distance[np.isnan(distance)] = -np.inf
    order = np.lexsort((np.arange(len(estimates)), -distance)).tolist()
    rows = []
    for pos, i in enumerate(order):
        est, score, (se, ci, p) = estimates[i], scores[i], inference[i]
        flags = ("constant",) * bool(est.diagnostics.get("constant")) + ("psi_undefined",) * (score is None)
        selected = pos < k or (level is not None and p is not None and p < level)
        rows.append(RankRow(est.covariate_id, names[i], score, se, ci, p, selected, pos + 1, flags))
    return RankingReport(rows=tuple(rows), selection_rule=rule)
