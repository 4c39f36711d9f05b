"""Command-line interface: score, rank, and simulate subcommands.

Exit codes: 0 success, 2 input/validation problems (single-line reason on
stderr), 1 internal errors.  Output files are written atomically (temp file
plus rename) and are byte-identical across repeat runs of the same config;
the run manifest (which records wall time) goes to a sibling
``<out>.manifest.json`` and is excluded from that determinism contract.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .data import DataError, load_csv, load_groups
from .estimators import INFERENCE_KINDS, score_all, score_groups
from .nuisance import BasisConfig
from .ranking import screen
from .simulation import SimScenario, run_replicates, uniform_closed_form_phi

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 2
DEFAULT_ALPHA = 0.10
CSV_COLUMNS = (
    "id",
    "name",
    "theta",
    "phi",
    "psi",
    "se_phi",
    "ci_lo",
    "ci_hi",
    "p_value",
    "rank",
    "selected",
)

_ESTIMATOR_FLAG = {"plugin-om": "plugin_om", "plugin-ps": "plugin_ps", "dr": "dr", "tmle": "tmle"}


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the options it acts on; any other option exits 2."""
    parser = argparse.ArgumentParser(
        prog="confscreen",
        description="Rank and select confounders by difference/ratio confounding scores.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_score = sub.add_parser("score", help="estimate scores for every covariate")
    p_rank = sub.add_parser("rank", help="rank covariates and select a subset")
    p_sim = sub.add_parser("simulate", help="run a synthetic-design experiment")

    for p in (p_score, p_rank):
        p.add_argument("--data", required=True, help="input CSV with header row")
        p.add_argument("--outcome", required=True, help="outcome column name")
        p.add_argument("--exposure", required=True, help="binary exposure column name")
        p.add_argument("--outcome-kind", choices=("continuous", "bounded"), default="continuous")
        targets = p.add_mutually_exclusive_group()
        targets.add_argument("--groups", default=None, help="JSON file of name -> column list")
        targets.add_argument(
            "--saturated",
            action="store_true",
            help="use exact per-level fits for discrete covariates",
        )
    p_sim.add_argument("--scenario", required=True, help="JSON scenario file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    for p in (p_score, p_rank, p_sim):
        p.add_argument("--estimator", choices=sorted(_ESTIMATOR_FLAG), default="tmle")
        p.add_argument("--degree", type=int, default=3, help="polynomial basis degree")
        p.add_argument(
            "--alpha",
            type=float,
            default=DEFAULT_ALPHA,
            help="test level; confidence intervals are at 1 - alpha (default 90%%)",
        )
        p.add_argument("--threads", type=int, default=None, help="recorded in the manifest; scoring uses one thread")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (p_rank, p_sim):
        p.add_argument("--score", choices=("difference", "ratio"), default="difference")
        p.add_argument("--top-k", type=int, default=None, help="select the top K ranks instead of testing")
    # simulate writes no confidence intervals, so --alpha acts only without
    # --top-k; None marks it as not passed (cmd_simulate applies the default).
    p_sim.set_defaults(alpha=None)
    return parser


def _resolved_config(args) -> dict:
    """Resolved config echoed into every report.

    The thread count is an execution detail that must not affect report
    bytes (thread-count invariance); it is recorded in the manifest only.
    """
    return {k: v for k, v in sorted(vars(args).items()) if k != "threads"}


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_path: str, config: dict, wall_time: float, threads=None) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": {**config, "threads": threads},
        "versions": {
            "confscreen": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": config.get("seed"),
        "wall_time_seconds": wall_time,
    }
    _atomic_write(f"{out_path}.manifest.json", json.dumps(manifest, indent=2) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows_to_csv(rows: list[dict], se_key: str) -> str:
    columns = [se_key if col == "se_phi" else col for col in CSV_COLUMNS]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def _emit_results(
    args, config: dict, rows: list[dict], extra: dict | None = None, se_key: str = "se_phi"
) -> None:
    if args.format == "csv":
        _atomic_write(args.out, _rows_to_csv(rows, se_key))
    else:
        doc = {"schema_version": SCHEMA_VERSION, "config": config, "results": rows}
        if extra:
            doc.update(extra)
        _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")


def _row(est, name, se_key: str, se, ci, p_value, **fields) -> dict:
    """One output row of an estimate and the inference of the score it reports.

    ``se_key`` names the SE of that score ("se_phi" or "se_psi"); ``ci`` and
    ``p_value`` describe the same score.  ``fields`` override or extend the row.
    """
    row = {
        "id": est.covariate_id if not isinstance(est.covariate_id, tuple) else list(est.covariate_id),
        "name": name,
        "theta": est.theta_hat,
        "phi": est.phi_hat,
        "psi": est.psi_hat,
        se_key: se,
        "ci_lo": ci[0] if ci else None,
        "ci_hi": ci[1] if ci else None,
        "p_value": p_value,
        "rank": None,
        "selected": None,
    }
    row.update(fields)
    return row


def _selection_rule(args) -> tuple:
    return ("top_k", args.top_k) if args.top_k is not None else ("alpha_test", args.alpha)


def _screen_inputs(args, score_kind: str, rule):
    """(estimates, inferences, names, report) of every covariate or group, screened with ``rule``.

    Plug-in estimates get no inference: their inferences are all None.
    """
    dataset = load_csv(args.data, args.outcome, args.exposure, args.outcome_kind)
    basis = BasisConfig(degree=args.degree)
    estimator_kind = _ESTIMATOR_FLAG[args.estimator]
    if args.groups:
        members = load_groups(args.groups).member_indices(dataset)
        estimates = score_groups(dataset, members, estimator_kind, basis)
        names = [name for name, _ in members]
    else:
        estimates = score_all(dataset, estimator_kind, basis, saturated=args.saturated)
        names = list(dataset.column_names)
    report, inferences = screen(estimates, score_kind, rule, args.alpha, names)
    return estimates, inferences or [None] * len(estimates), names, report


def cmd_score(args) -> int:
    config = _resolved_config(args)
    start = time.monotonic()
    estimates, inferences, names, _ = _screen_inputs(args, "difference", None)
    rows = [
        _row(
            est, name, "se_phi", inf.se_phi if inf else None, inf.ci_phi if inf else None,
            inf.p_phi if inf else None, warnings=list(est.diagnostics.get("warnings", [])),
        )
        for est, inf, name in zip(estimates, inferences, names)
    ]
    _emit_results(args, config, rows)
    _write_manifest(args.out, config, time.monotonic() - start, args.threads)
    return 0


def cmd_rank(args) -> int:
    config = _resolved_config(args)
    start = time.monotonic()
    estimates, _, names, report = _screen_inputs(args, args.score, _selection_rule(args))
    by_name = dict(zip(names, estimates))
    # SE, CI and p-value are those of the ranked score, as RankRow holds them.
    se_key = "se_psi" if args.score == "ratio" else "se_phi"
    rows = [
        _row(by_name[row.name], row.name, se_key, row.se, row.ci, row.p_value, rank=row.rank,
             selected=bool(row.selected), flags=list(row.flags))
        for row in report.rows
    ]
    extra = {"selection_rule": list(report.selection_rule)}
    _emit_results(args, config, rows, extra=extra, se_key=se_key)
    _write_manifest(args.out, config, time.monotonic() - start, args.threads)
    return 0


def _load_scenario(path: str, seed_override) -> SimScenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid scenario file: {exc}") from None
    if not isinstance(raw, dict) or "kind" not in raw:
        raise DataError(f"{path}: scenario file must be a JSON object with a 'kind' field")
    allowed = {"kind", "n", "p", "rho", "theta", "seed", "replicates", "alphas", "betas", "beta0"}
    unknown = set(raw) - allowed
    if unknown:
        raise DataError(f"{path}: unknown scenario fields {sorted(unknown)}")
    if seed_override is not None:
        raw["seed"] = seed_override
    # Exact JSON types: 2.0, "200" and true are not counts, and "0.5" is not a number.
    for keys, types, what in (
        (("n", "p", "replicates", "seed"), (int,), "an integer"),
        (("rho", "theta", "beta0"), (int, float), "a number"),
    ):
        for key in keys:
            if key in raw and type(raw[key]) not in types:
                raise DataError(f"{path}: scenario field {key!r} must be {what}, got {raw[key]!r}")
    for key in ("alphas", "betas"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], list) or any(type(v) not in (int, float) for v in raw[key]):
                raise DataError(f"{path}: scenario field {key!r} must be a list of numbers")
            raw[key] = tuple(float(v) for v in raw[key])
    return SimScenario(**raw)


def cmd_simulate(args) -> int:
    if args.alpha is None:
        args.alpha = DEFAULT_ALPHA
    elif args.top_k is not None:
        raise DataError("--alpha has no effect with --top-k: simulate writes no confidence intervals")
    config = _resolved_config(args)
    start = time.monotonic()
    scenario = _load_scenario(args.scenario, args.seed)
    estimator_kind = _ESTIMATOR_FLAG[args.estimator]
    basis = BasisConfig(degree=args.degree)
    rule = _selection_rule(args)
    if rule[0] == "alpha_test" and estimator_kind not in INFERENCE_KINDS:
        raise DataError("alpha-test selection needs --estimator dr or tmle; pass --top-k instead")
    result = run_replicates(
        scenario,
        estimator_kind=estimator_kind,
        basis=basis,
        score_kind=args.score,
        rule=rule,
        alpha=args.alpha,
    )
    aggregates = dict(result.aggregates)
    if scenario.kind == "uniform_closed_form":
        aggregates["oracle_phi"] = [uniform_closed_form_phi(scenario, j) for j in range(scenario.p)]

    per_replicate = [
        {
            "replicate": r,
            "sensitivity": float(result.sensitivity[r]),
            "specificity": float(result.specificity[r]),
        }
        for r in range(scenario.replicates)
    ]
    roc = [[float(x), float(y)] for x, y in result.roc_mean]

    if args.format == "csv":
        lines = ["replicate,sensitivity,specificity"]
        for row in per_replicate:
            lines.append(f"{row['replicate']},{row['sensitivity']!r},{row['specificity']!r}")
        _atomic_write(args.out, "\n".join(lines) + "\n")
        roc_lines = ["k,sensitivity,false_positive_rate"]
        for k, (sens, fpr) in enumerate(roc):
            roc_lines.append(f"{k},{sens!r},{fpr!r}")
        _atomic_write(f"{args.out}.roc.csv", "\n".join(roc_lines) + "\n")
        _atomic_write(
            f"{args.out}.summary.json",
            json.dumps({"schema_version": SCHEMA_VERSION, "config": config, "aggregates": aggregates}, indent=2)
            + "\n",
        )
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "scenario": {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(scenario).items()},
            "per_replicate": per_replicate,
            "aggregates": aggregates,
            "roc": roc,
        }
        _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
    _write_manifest(args.out, config, time.monotonic() - start, args.threads)
    return 0


_COMMANDS = {"score": cmd_score, "rank": cmd_rank, "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.alpha is not None and not (0.0 < args.alpha < 1.0):
            raise DataError("alpha must lie in (0, 1)")
        return _COMMANDS[args.subcommand](args)
    except (DataError, OSError) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        msg = str(exc).replace("\n", " ")
        print(f"internal-error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
