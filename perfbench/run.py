#!/usr/bin/env python3
"""confscreen benchmark: one workload, one closed-loop client, in-process CLI commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload screen_tmle --seed 42 --seconds 30 --trace 0

Set-up times a fresh interpreter's import of confscreen and builds the
workload's inputs from ``--seed`` in a child process, ``SETUP_REPEATS`` times
each.  The run then calls the workload's ``confscreen`` command through
``confscreen.cli.main`` back to back until ``--seconds`` have passed and at
least ``MIN_COMMANDS`` have been timed after one warm-up command, timing the
calibration kernel (see ``calibration.py``) after each timed step.  Every output is checked (see
``workloads.py``) and must be byte-identical to the run's first output.  A
reduced-size smoke pass then checks that deliberately corrupted outputs are
rejected.

Reported times are scaled to the reference host speed: measured seconds times
the workload's calibration kernel's reference time over its mean time in the
run.  The
record keeps the measured seconds and the kernel times.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced commands and reports per-layer metrics from
the spans of the traced ones (see ``spans.py``); ``trace.overhead_s`` is the
median, over each traced command and the untraced command after it, of the
traced minus the untraced wall time.  Metric names
and units come from ``BENCHMARK.json``.

The last line of standard output is the result object; the line before it is
the run's record (environment, every metric measured, failures).  The record
and, in traced runs, the spans are also written under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")  # relative to ROOT, so command lines and outputs do not depend on it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 42  # the ACCEPTANCE 09 seed; outputs at this seed are compared with reference/
MIN_COMMANDS = 3
SETUP_REPEATS = 3
NUISANCE_PARTS = {"plugin_om": 1, "plugin_ps": 1, "dr": 2, "tmle": 3}  # tau / pi / tau+pi / pi+q0+q1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="run one command at the default seed and store its output as the reference",
    )
    return parser.parse_args(argv)


def git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return None

    src = ROOT / "src" / "confscreen"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def check_output(wl, inputs, seed, reference, full: bool) -> list[str]:
    """Problems found in the workload's output; parsing errors count as problems."""
    try:
        out = wl.read(inputs.out)
        problems = wl.check_structure(inputs, out)
        if full and not problems:
            problems = wl.check_values(inputs, out, seed, reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def smoke_pass(wl, cli, seed) -> list[str]:
    """Reduced-size run whose output must pass and whose corruptions must all be rejected."""
    workdir = WORK / wl.name / "smoke"
    workdir.mkdir(parents=True)
    inputs = wl.build(workdir, seed, smoke=True)
    inputs.datasets = wl.datasets(seed, smoke=True)
    if cli.main(inputs.argv) != 0:
        return ["smoke command failed"]
    problems = check_output(wl, inputs, seed, None, full=True)
    if problems:
        return ["smoke output rejected: " + problems[0]]
    clean = inputs.out.read_bytes()
    for corrupt in wl.corruptions(inputs, seed):
        doc = wl.read(inputs.out)
        corrupt(doc)
        wl.write(inputs.out, doc)
        if not check_output(wl, inputs, seed, None, full=True):
            problems.append(f"corrupted output ({corrupt.__name__}) was accepted")
        inputs.out.write_bytes(clean)
    return problems


def dump_rows(payload: dict) -> str:
    """JSON with one line per top-level key, and one line per row of a list of rows."""
    parts = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            body = ",\n  ".join(json.dumps(row) for row in value)
            parts.append(f" {json.dumps(key)}: [\n  {body}\n ]")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def layer_metrics(tracer, command, inputs) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced command, and its per-target latencies in seconds."""
    cs = spans.CommandSpans(tracer, command)
    load = cs.total("data.load_csv")
    cells = sum(s.get("cells", 0) for s in cs.summaries)
    ests = [s for s in cs.summaries if "kind" in s]
    m = {
        "data.load_csv_s": load,
        "data.cells": cells,
        "data.cells_per_s": cells / load if load > 0.0 else 0.0,
        # Solver time by nuisance part: IRLS and least squares outside fit_q are pi and tau.
        "nuisance.fit_pi_s": cs.total("nuisance._fit_logistic", exclude_parent="nuisance.fit_q"),
        "nuisance.fit_q_s": cs.total("nuisance.fit_q"),
        "nuisance.fit_tau_s": cs.total("nuisance._solve_lstsq", exclude_parent="nuisance.fit_q"),
        "nuisance.fits": sum(NUISANCE_PARTS[s["kind"]] for s in ests if not s["constant"]),
        "nuisance.ridge_fallbacks": sum(s["ridge_fallbacks"] for s in ests),
        "estimators.tmle_s": cs.total("estimators.tmle_theta"),
        "estimators.tmle_iters": sum(s["iterations"] for s in ests if s["kind"] == "tmle"),
        "estimators.tmle_nonconverged": sum(s["nonconverged"] for s in ests),
        "estimators.dr_s": cs.total("estimators.theta_dr"),
        "estimators.plugin_s": cs.total("estimators.plugin_scores_om", "estimators.plugin_scores_ps"),
        "influence.infer_s": cs.total("influence.infer_scores"),
        "ranking.rank_s": cs.total(
            "ranking.rank", "ranking.select_top_k", "ranking.select_by_test", "ranking.rank_groups"
        ),
        "simulation.generate_s": cs.total("simulation.generate"),
        "simulation.roc_s": cs.total("simulation.roc_curve"),
        "cli.bytes_written": inputs.out.stat().st_size,
        "trace.spans": cs.count,
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = cs.self_time.get(layer, 0.0)
    return m, cs.durations("estimators.score_covariate")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def time_import() -> float:
    """Wall time of a fresh interpreter that imports confscreen and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import confscreen.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def build_inputs(workload: str, workdir: Path, seed: int, trace: bool):
    """Build a workload's input files; returns (seconds, write_csv span seconds, inputs).

    Runs in a child process, so that building does not set the peak memory of
    the process that runs the commands.
    """
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = spans.Tracer() if trace else None
    gc.collect()
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        inputs = wl.build(workdir, seed)
        seconds = time.perf_counter() - start
    write_csv_s = spans.CommandSpans(tracer, None).total("data.write_csv") if tracer else 0.0
    return seconds, write_csv_s, inputs


def run(args) -> int:
    if not (ROOT / "src" / "confscreen" / "__init__.py").is_file():
        print(f"error: no confscreen source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # one BLAS thread: the client is single-threaded end to end
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    end_to_end_units, per_layer_units = metric_units("end_to_end"), metric_units("per_layer")

    import confscreen
    import confscreen.cli as cli

    if Path(confscreen.__file__).resolve().parent != (ROOT / "src" / "confscreen").resolve():
        print(f"error: imported confscreen from {confscreen.__file__}", file=sys.stderr)
        return 2

    import calibration  # imports NumPy, so it comes after the BLAS thread setting
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(wl.name) if args.seed == DEFAULT_SEED else None
    if args.seed == DEFAULT_SEED and reference is None and not args.write_reference:
        print(f"error: missing reference/{wl.name}.json", file=sys.stderr)
        return 2

    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None

    # Set-up: import in a fresh interpreter and build the inputs in a child
    # process, several times each; setup_s is the sum of the two medians.
    host = calibration.HostSpeed(wl.kernel)
    imports, builds, write_csv_s = [], [], []
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        for _ in range(SETUP_REPEATS):
            imports.append(time_import())
            host.sample(imports[-1])
            seconds, csv_s, inputs = pool.submit(build_inputs, wl.name, workdir, args.seed, bool(args.trace)).result()
            builds.append(seconds)
            host.sample(seconds)
            write_csv_s.append(csv_s)
    rss_after_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.write_reference:
        if args.seed != DEFAULT_SEED or cli.main(inputs.argv) != 0:
            print("error: the reference is written from a successful command at the default seed", file=sys.stderr)
            return 2
        inputs.datasets = wl.datasets(args.seed)
        problems = check_output(wl, inputs, args.seed, None, full=True)
        if problems:
            print("error: output fails its checks: " + "; ".join(problems), file=sys.stderr)
            return 1
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        payload = wl.reference_payload(wl.read(inputs.out))
        (workloads.REFERENCE_DIR / f"{wl.name}.json").write_text(dump_rows(payload))
        shutil.rmtree(workdir)
        return 0

    # Measurement: a closed loop of commands, alternating traced ones in --trace 1,
    # with the calibration kernel timed after each command.  The first command
    # warms caches and lazy imports; it is checked but not timed.
    walls = {False: [], True: []}
    warmup_s = None
    problems_seen = []
    attempted = failed = 0
    first_digest = None
    per_command = []
    target_ms = []
    loop_start = time.perf_counter()
    i = 0
    while True:
        is_traced = bool(args.trace) and i % 2 == 1
        gc.collect()
        with traced(tracer, i) if is_traced else nullcontext():
            t = time.perf_counter()
            code = cli.main(inputs.argv)
            wall = time.perf_counter() - t
        if i == 0:
            warmup_s = wall
        else:
            walls[is_traced].append(wall)
            host.sample(wall)
        attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            d = hashlib.sha256(inputs.out.read_bytes()).hexdigest()
            first_digest = first_digest or d
            if d != first_digest:
                problems.append("output differs from the run's first output")
            problems += check_output(wl, inputs, args.seed, reference, full=False)
        if problems:
            failed += 1
            problems_seen.append({"command": i, "problems": problems[:3]})
        if is_traced:
            m, durations = layer_metrics(tracer, i, inputs)
            per_command.append(m)
            target_ms += [1e3 * x for x in durations]
        i += 1
        done = time.perf_counter() - loop_start >= args.seconds
        if done and len(walls[False]) >= (2 if args.trace else MIN_COMMANDS) and len(walls[True]) >= 2 * args.trace:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every output is byte-identical to the last one, so the value checks
    # (spot re-scoring and the reference) run once, on the last output.
    inputs.datasets = wl.datasets(args.seed)
    problems = check_output(wl, inputs, args.seed, reference, full=True)
    if problems:
        failed = attempted
        problems_seen.append({"command": "value checks", "problems": problems[:3]})

    smoke = smoke_pass(wl, cli, args.seed)
    attempted += 1
    if smoke:
        failed += 1
        problems_seen.append({"command": "smoke", "problems": smoke[:3]})

    speed = host.factor()  # scales measured seconds to the reference host speed
    wall_s = speed * statistics.median(walls[False])
    values = {
        "wall_s": wall_s,
        "targets_per_s": inputs.targets / wall_s,
        "setup_s": speed * (statistics.median(imports) + statistics.median(builds)),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        for name in per_command[0]:
            values[name] = statistics.median(m[name] for m in per_command)
        values["data.write_csv_s"] = statistics.median(write_csv_s)
        values["estimators.target_p50_ms"] = statistics.median(target_ms)
        values["estimators.target_p99_ms"] = statistics.quantiles(target_ms, n=100, method="inclusive")[98]
        values["estimators.target_samples"] = len(target_ms)
        # Span-based metrics are measured seconds; so is the overhead, to match them.  A traced
        # command is compared with the untraced one right after it, which ran at about the same
        # host speed.
        values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(walls[True], walls[False]))
        values["error_rate"] = failed / attempted
    end_to_end = {name: (values[name], unit) for name, unit in end_to_end_units.items()}
    per_layer = {name: (values[name], unit) for name, unit in per_layer_units.items()} if args.trace else {}

    reported = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    record = {
        "workload": wl.name,
        "why": wl.why,
        "command": ["confscreen", *inputs.argv],
        "trace": args.trace,
        "run_seconds": args.seconds,
        "environment": environment(args.seed),
        "calibration_kernel": wl.kernel,
        "calibration_reference_s": host.reference_s,
        "calibration_kernel_s": host.kernel_s,
        "speed_factor": speed,
        "warmup_s": warmup_s,
        "walls_untraced_s": walls[False],
        "walls_traced_s": walls[True],
        "setup_imports_s": imports,
        "setup_builds_s": builds,
        "rss_after_setup_mb": rss_after_setup_mb,
        "error_rate": failed / attempted,
        "problems": problems_seen,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }

    shutil.rmtree(workdir)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    (WORK / "records" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{stem}.jsonl")

    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def traced(tracer, command):
    tracer.command = command
    return tracer.installed()


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
