"""End-to-end command-line workflow.

Writes a small CSV, then drives the ``confscreen`` command line through
scoring, ranking, and a simulation study.  Every run also drops a
``<out>.manifest.json`` recording the configuration, package versions,
and wall time.  The work directory is removed when the demo ends.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from confscreen._stats import expit


def run(*args):
    cmd = [sys.executable, "-m", "confscreen.cli", *args]
    print("$ confscreen " + " ".join(args))
    subprocess.run(cmd, check=True)


def main(workdir):
    rng = np.random.default_rng(5)
    n = 800
    c1 = rng.normal(size=n)
    c2 = rng.normal(size=n)
    e = (rng.random(n) < expit(c1)).astype(int)
    y = c1 + 0.5 * e + rng.normal(size=n)
    csv_path = workdir / "study.csv"
    rows = ["y,treated,c1,c2"]
    rows += [f"{y[i]:.6f},{e[i]},{c1[i]:.6f},{c2[i]:.6f}" for i in range(n)]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    # Score every covariate with the targeted estimator.
    scores_out = workdir / "scores.json"
    run("score", "--data", str(csv_path), "--outcome", "y", "--exposure", "treated",
        "--estimator", "tmle", "--degree", "2", "--out", str(scores_out))
    report = json.loads(scores_out.read_text(encoding="utf-8"))
    for row in report["results"]:
        print(f"  {row['name']}: phi = {row['phi']:+.4f}  CI "
              f"[{row['ci_lo']:+.4f}, {row['ci_hi']:+.4f}]")

    # Rank and keep the covariates whose score rejects the null at alpha = 0.10.
    rank_out = workdir / "ranking.csv"
    run("rank", "--data", str(csv_path), "--outcome", "y", "--exposure", "treated",
        "--estimator", "tmle", "--degree", "2", "--alpha", "0.10",
        "--out", str(rank_out), "--format", "csv")
    print(rank_out.read_text(encoding="utf-8"))

    # Simulation study from a scenario file.
    scenario = {"kind": "low_dim", "n": 500, "p": 15, "theta": 1.0,
                "seed": 17, "replicates": 10}
    scenario_path = workdir / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    sim_out = workdir / "sim.json"
    run("simulate", "--scenario", str(scenario_path), "--estimator", "tmle",
        "--degree", "2", "--top-k", "5", "--out", str(sim_out))
    summary = json.loads(sim_out.read_text(encoding="utf-8"))["aggregates"]
    print(f"  mean sensitivity {summary['mean_sensitivity']:.3f}, "
          f"mean specificity {summary['mean_specificity']:.3f}")

    manifest = json.loads((workdir / "sim.json.manifest.json").read_text(encoding="utf-8"))
    print(f"  manifest: confscreen {manifest['versions']['confscreen']}, "
          f"wall time {manifest['wall_time_seconds']:.2f}s")


with tempfile.TemporaryDirectory(prefix="confscreen_demo_") as tmp:
    main(Path(tmp))
