"""Command-line interface: score, rank, and simulate subcommands.

Exit codes: 0 success, 2 input/validation problems (single-line reason on
stderr), 1 internal errors.  A command writes all of its output files or none
(temp files, then renames), and they are byte-identical across repeat runs of
the same config; the run manifest (which records wall time) goes to a sibling
``<out>.manifest.json`` and is excluded from that determinism contract.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .data import DataError, _read_json, load_csv, load_groups
from .estimators import INFERENCE_KINDS, score_all, score_groups
from .nuisance import BasisConfig
from .ranking import rank
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
        # --degree and --alpha default to None, which marks them as not passed;
        # _check_options applies their defaults after checking that they act.
        p.add_argument("--degree", type=int, default=None, help="polynomial basis degree (default 3)")
        p.add_argument(
            "--alpha", type=float, default=None, help="test level; confidence intervals are at 1 - alpha (default 90%%)"
        )
        p.add_argument("--threads", type=int, default=None, help="at least 1; only recorded in the manifest")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (p_rank, p_sim):
        p.add_argument("--score", choices=("difference", "ratio"), default="difference")
        p.add_argument("--top-k", type=int, default=None, help="select the top K ranks instead of testing")
    return parser


def _check_options(args) -> None:
    """Reject an option that is out of range or changes no result, then apply the defaults.

    --alpha acts where a confidence interval is written (score or rank with dr
    or tmle) or an alpha test runs (rank or simulate without --top-k); --degree
    acts unless --saturated, whose per-level fits use no polynomial basis; a
    bounded --outcome-kind acts on the outcome model, which plugin-ps does not
    fit (it reads the outcome on its original scale).
    """
    if args.alpha is not None and not (0.0 < args.alpha < 1.0):
        raise DataError("alpha must lie in (0, 1)")
    if args.threads is not None and args.threads < 1:
        raise DataError(f"threads must be at least 1, got {args.threads}")
    writes_ci = args.subcommand != "simulate" and _ESTIMATOR_FLAG[args.estimator] in INFERENCE_KINDS
    if args.alpha is not None and not writes_ci and (args.subcommand == "score" or args.top_k is not None):
        raise DataError("--alpha has no effect: no confidence interval is written and no alpha test runs")
    if args.degree is not None and getattr(args, "saturated", False):
        raise DataError("--degree has no effect with --saturated: per-level fits use no polynomial basis")
    if getattr(args, "outcome_kind", None) == "bounded" and args.estimator == "plugin-ps":
        raise DataError("--outcome-kind bounded has no effect with --estimator plugin-ps, which fits no outcome model")
    args.alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    args.degree = BasisConfig.degree if args.degree is None else args.degree


def _resolved_config(args) -> dict:
    """Resolved config echoed into every report.

    The thread count is an execution detail that must not affect report
    bytes (thread-count invariance); it is recorded in the manifest only.
    """
    return {k: v for k, v in sorted(vars(args).items()) if k != "threads"}


def _atomic_write(files: dict[str, str]) -> None:
    """Write every ``path: text`` of one command's ``files``, or none of them.

    Every text goes to a temp file first, then each temp file is renamed to
    its path.  On any failure the temp files and the outputs this call has
    already renamed into place are removed, and the error is re-raised.
    """
    tmps = {path: f"{path}.tmp.{os.getpid()}" for path in files}
    placed = []
    try:
        for path, text in files.items():
            with open(tmps[path], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in [*tmps.values(), *placed]:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _manifest(args, config: dict, start: float) -> dict[str, str]:
    """The ``<out>.manifest.json`` file of a run that started at ``start``, as ``{path: text}``."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": {**config, "threads": args.threads},
        "versions": {
            "confscreen": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": config.get("seed"),
        "wall_time_seconds": time.monotonic() - start,
    }
    return {f"{args.out}.manifest.json": json.dumps(manifest, indent=2) + "\n"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The _fmt of a value of exactly these types, without its type tests.
_FMT_OF_TYPE = {float: float.__repr__, int: int.__repr__, str: str.__str__}


def _column(values: list) -> list[str]:
    """The _fmt of each of ``values``: in one pass of its type's formatter where all share a type in _FMT_OF_TYPE."""
    types = set(map(type, values))
    fmt = _FMT_OF_TYPE.get(types.pop()) if len(types) == 1 else None
    return list(map(fmt or _fmt, values))


def _csv(columns, rows: list[dict]) -> str:
    """The CSV table of each row's ``columns``, formatted column by column; csv.writer quotes only the cells that need it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*[_column([row.get(col) for row in rows]) for col in columns]))
    return buf.getvalue()


def _emit(args, config: dict, start: float, doc: dict, csv_files: dict) -> None:
    """Write the command's output files and its manifest in one ``_atomic_write``.

    With ``--format json`` the file ``<out>`` is ``doc``; with ``--format csv``
    each ``suffix: part`` of ``csv_files`` is the file ``<out><suffix>``, a
    ``(columns, rows)`` part as a CSV table and a dict part as JSON.  Every
    JSON document starts with the schema version and the config.
    """
    parts = csv_files if args.format == "csv" else {"": doc}
    files = {
        args.out + suffix: _csv(*part)
        if isinstance(part, tuple)
        else json.dumps({"schema_version": SCHEMA_VERSION, "config": config, **part}, indent=2) + "\n"
        for suffix, part in parts.items()
    }
    _atomic_write({**files, **_manifest(args, config, start)})


def _row(est, row, se_key: str, **fields) -> dict:
    """One output row of an estimate and its RankRow ``row``.

    The row's SE, CI and p-value are those of the ranked score, whose SE
    ``se_key`` names ("se_phi" or "se_psi"); ``fields`` override or extend the row.
    """
    out = {
        "id": est.covariate_id,
        "name": row.name,
        "theta": est.theta_hat,
        "phi": est.phi_hat,
        "psi": est.psi_hat,
        se_key: row.se,
        "ci_lo": row.ci[0] if row.ci else None,
        "ci_hi": row.ci[1] if row.ci else None,
        "p_value": row.p_value,
        "rank": None,
        "selected": None,
    }
    out.update(fields)
    return out


def _selection_rule(args) -> tuple:
    return ("top_k", args.top_k) if args.top_k is not None else ("alpha_test", args.alpha)


def _screen_inputs(args, score_kind: str, rule):
    """(estimates by name in input order, report) of every covariate or group, ranked with ``rule``."""
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
    return dict(zip(names, estimates)), rank(estimates, score_kind, names, rule, args.alpha)


def cmd_score(args) -> int:
    config = _resolved_config(args)
    start = time.monotonic()
    by_name, report = _screen_inputs(args, "difference", None)
    by_row = {row.name: row for row in report.rows}
    rows = [
        _row(est, by_row[name], "se_phi", warnings=est.diagnostics.get("warnings", []))
        for name, est in by_name.items()
    ]
    _emit(args, config, start, {"results": rows}, {"": (CSV_COLUMNS, rows)})
    return 0


def cmd_rank(args) -> int:
    config = _resolved_config(args)
    start = time.monotonic()
    by_name, report = _screen_inputs(args, args.score, _selection_rule(args))
    se_key = "se_psi" if args.score == "ratio" else "se_phi"
    rows = [
        _row(by_name[row.name], row, se_key, rank=row.rank, selected=row.selected, flags=row.flags)
        for row in report.rows
    ]
    columns = [se_key if col == "se_phi" else col for col in CSV_COLUMNS]
    doc = {"results": rows, "selection_rule": report.selection_rule}
    _emit(args, config, start, doc, {"": (columns, rows)})
    return 0


def _load_scenario(path: str, seed_override) -> SimScenario:
    raw = _read_json(path, "scenario")
    if not isinstance(raw, dict) or "kind" not in raw:
        raise DataError(f"{path}: scenario file must be a JSON object with a 'kind' field")
    unknown = set(raw) - {f.name for f in dataclasses.fields(SimScenario)}
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
        {"replicate": r, "sensitivity": sens, "specificity": spec}
        for r, (sens, spec) in enumerate(zip(result.sensitivity.tolist(), result.specificity.tolist()))
    ]
    roc = result.roc_mean.tolist()
    roc_rows = [{"k": k, "sensitivity": sens, "false_positive_rate": fpr} for k, (sens, fpr) in enumerate(roc)]
    doc = {"scenario": vars(scenario), "per_replicate": per_replicate, "aggregates": aggregates, "roc": roc}
    csv_files = {
        "": (("replicate", "sensitivity", "specificity"), per_replicate),
        ".roc.csv": (("k", "sensitivity", "false_positive_rate"), roc_rows),
        ".summary.json": {"aggregates": aggregates},
    }
    _emit(args, config, start, doc, csv_files)
    return 0


_COMMANDS = {"score": cmd_score, "rank": cmd_rank, "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_options(args)
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
