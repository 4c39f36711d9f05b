"""Benchmark workloads: inputs built from the workload seed, the CLI command, and output checks.

Each workload builds its input files with ``confscreen.simulation.generate``
and ``confscreen.data.write_csv`` (the program receives only those files),
names the ``confscreen`` command line it runs, and checks a command's output:

* structure, on every output: ranks follow |score - null| with ties on input
  order, and the selection follows the stated rule;
* spot checks, at any seed: a few sampled targets are re-scored with
  ``score_covariate`` + ``infer_scores`` and compared;
* at the default seed, the stored reference in ``reference/``: ranks,
  selection and selection-derived rates exactly, numbers within
  ``RTOL``/``ATOL``.

Numbers are compared with a tolerance, not bit for bit, so that a kernel
that changes floating-point order still passes.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import confscreen as cs  # called through the package, so traced runs see these calls too

ALPHA = 0.10  # the CLI default test level, used by the alpha-test workloads
RTOL = 1e-6
ATOL = 1e-9
EXACT_ATOL = 1e-12  # selection-derived rates (ratios of counts)
NUMERIC = ("theta", "phi", "psi", "se_phi", "ci_lo", "ci_hi", "p_value")
CSV_COLUMNS = ("id", "name", "theta", "phi", "psi", "se_phi", "ci_lo", "ci_hi", "p_value", "rank", "selected")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def close(a, b, rtol=RTOL, atol=ATOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _round(x):
    return None if x is None else float(f"{x:.12g}")


@dataclass
class Inputs:
    """Files and in-memory data of one built workload."""

    argv: list[str]
    out: Path
    targets: int
    replicates: int = 1
    datasets: list = field(default_factory=list)  # filled by the caller from ``datasets()`` for value checks
    target_columns: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)


class RankWorkload:
    """``confscreen rank`` on a CSV written from one simulated dataset."""

    def __init__(self, name, why, design, size, smoke_size, estimator, degree, fmt, kernel, groups_of=None):
        self.name, self.why, self.kernel = name, why, kernel
        self.design, self.size, self.smoke_size = design, size, smoke_size
        self.estimator, self.degree, self.fmt = estimator, degree, fmt
        self.groups_of = groups_of

    def datasets(self, seed: int, smoke: bool = False) -> list:
        n, p = self.smoke_size if smoke else self.size
        return [cs.generate(cs.SimScenario(kind=self.design, n=n, p=p, seed=seed), 0).dataset]

    def build(self, workdir: Path, seed: int, smoke: bool = False) -> Inputs:
        (ds,) = self.datasets(seed, smoke)
        p = ds.p
        data = workdir / "data.csv"
        cs.write_csv(ds, data, outcome_col="y", exposure_col="e")
        out = workdir / f"out.{self.fmt}"
        argv = ["rank", "--data", str(data), "--outcome", "y", "--exposure", "e"]
        if self.groups_of:
            size = self.groups_of
            targets = [
                (f"g{k + 1}", tuple(range(k * size, (k + 1) * size))) for k in range(p // size)
            ]
            groups = workdir / "groups.json"
            groups.write_text(
                json.dumps({name: [ds.column_names[j] for j in cols] for name, cols in targets})
            )
            argv += ["--groups", str(groups)]
        else:
            targets = [(name, (j,)) for j, name in enumerate(ds.column_names)]
        argv += [
            "--estimator", self.estimator, "--degree", str(self.degree), "--threads", "1",
            "--out", str(out), "--format", self.fmt,
        ]
        return Inputs(argv=argv, out=out, targets=len(targets), target_columns=targets)

    # -- reading and (for the corruption self-test) rewriting outputs --

    def read(self, path: Path) -> list[dict]:
        if self.fmt == "json":
            doc = json.loads(path.read_text())
            if doc.get("selection_rule") != ["alpha_test", ALPHA]:
                raise ValueError(f"selection rule {doc.get('selection_rule')!r}")
            return doc["results"]
        rows = []
        with open(path, newline="") as fh:
            for raw in csv.DictReader(fh):
                row = {k: (float(raw[k]) if raw[k] != "" else None) for k in NUMERIC}
                row.update(name=raw["name"], rank=int(raw["rank"]), selected={"true": True, "false": False}[raw["selected"]])
                rows.append(row)
        return rows

    def write(self, path: Path, rows: list[dict]) -> None:
        if self.fmt == "json":
            doc = json.loads(path.read_text())
            doc["results"] = rows
            path.write_text(json.dumps(doc, indent=2) + "\n")
            return
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                "" if row.get(c) is None else
                ("true" if row[c] else "false") if c == "selected" else
                repr(row[c]) if isinstance(row[c], float) else row[c]
                for c in CSV_COLUMNS
            ])
        path.write_text(buf.getvalue())

    def corruptions(self, inputs: Inputs, seed: int):
        """Deliberate damage, each of which the checks must reject."""
        spot = self._spot_targets(inputs, seed)[0][0]

        def flip_selection(rows):
            rows[0]["selected"] = not rows[0]["selected"]

        def swap_order(rows):
            rows[0]["phi"], rows[-1]["phi"] = rows[-1]["phi"], rows[0]["phi"]

        def perturb_spot(rows):
            row = next(r for r in rows if r["name"] == spot)
            row["theta"] *= 1.0 + 1e-3

        return [flip_selection, swap_order, perturb_spot]

    # -- checks --

    def _spot_targets(self, inputs: Inputs, seed: int, count: int = 4):
        return random.Random(seed).sample(inputs.target_columns, min(count, len(inputs.target_columns)))

    def check_structure(self, inputs: Inputs, rows: list[dict]) -> list[str]:
        problems = []
        order = {name: pos for pos, (name, _) in enumerate(inputs.target_columns)}
        if sorted(r["name"] for r in rows) != sorted(order):
            return ["output rows are not the input targets"]
        if [r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
            problems.append("ranks are not 1..m in row order")
        for a, b in zip(rows, rows[1:]):
            da, db = abs(a["phi"]), abs(b["phi"])
            if da < db or (da == db and order[a["name"]] > order[b["name"]]):
                problems.append(f"rank order breaks |phi| ordering at {a['name']} > {b['name']}")
                break
        for r in rows:
            want = r["p_value"] is not None and r["p_value"] < ALPHA
            if r["selected"] != want:
                problems.append(f"{r['name']}: selected={r['selected']} but p={r['p_value']}")
                break
            if not (r["se_phi"] >= 0.0 and r["ci_lo"] <= r["phi"] <= r["ci_hi"]):
                problems.append(f"{r['name']}: interval does not contain phi")
                break
        return problems

    def check_values(self, inputs: Inputs, rows: list[dict], seed: int, reference: dict | None) -> list[str]:
        problems = []
        by_name = {r["name"]: r for r in rows}
        basis = cs.BasisConfig(degree=self.degree)
        kind = self.estimator.replace("-", "_")
        for name, cols in self._spot_targets(inputs, seed):
            est = cs.score_covariate(inputs.datasets[0], cols, kind, basis)
            inf = cs.infer_scores(est, ALPHA)
            want = dict(
                theta=est.theta_hat, phi=est.phi_hat, psi=est.psi_hat, se_phi=inf.se_phi,
                ci_lo=inf.ci_phi[0], ci_hi=inf.ci_phi[1], p_value=inf.p_phi,
            )
            bad = [k for k in NUMERIC if not close(by_name[name][k], want[k])]
            if bad:
                problems.append(f"spot check {name}: {bad} differ from score_covariate")
        if reference is not None:
            ref_rows = reference["rows"]
            if [(r["name"], r["rank"], r["selected"]) for r in rows] != [tuple(r[:3]) for r in ref_rows]:
                problems.append("ranks or selection differ from the reference")
            else:
                for r, ref in zip(rows, ref_rows):
                    bad = [k for k, v in zip(NUMERIC, ref[3:]) if not close(r[k], v)]
                    if bad:
                        problems.append(f"{r['name']}: {bad} differ from the reference")
                        break
        return problems

    def reference_payload(self, rows: list[dict]) -> dict:
        return {
            "columns": ["name", "rank", "selected", *NUMERIC],
            "rows": [[r["name"], r["rank"], r["selected"], *(_round(r[k]) for k in NUMERIC)] for r in rows],
        }


class SimulateWorkload:
    """``confscreen simulate`` on a scenario file; the CLI generates the replicates itself."""

    kernel = "small_arrays"  # calibration kernel: 500-row designs

    def __init__(self, name, why, size, smoke_size, replicates, top_k):
        self.name, self.why = name, why
        self.size, self.smoke_size = size, smoke_size
        self.replicates, self.top_k = replicates, top_k

    def datasets(self, seed: int, smoke: bool = False) -> list:
        """The replicates the command draws, for the spot checks."""
        n, p = self.smoke_size if smoke else self.size
        reps = 2 if smoke else self.replicates
        scenario = cs.SimScenario(kind="high_dim", n=n, p=p, seed=seed, replicates=reps)
        return [cs.generate(scenario, r).dataset for r in range(reps)]

    def build(self, workdir: Path, seed: int, smoke: bool = False) -> Inputs:
        n, p = self.smoke_size if smoke else self.size
        reps = 2 if smoke else self.replicates
        path = workdir / "scenario.json"
        path.write_text(json.dumps({"kind": "high_dim", "n": n, "p": p, "seed": seed, "replicates": reps}))
        out = workdir / "out.json"
        argv = [
            "simulate", "--scenario", str(path), "--estimator", "plugin-om", "--degree", "3",
            "--top-k", str(self.top_k), "--threads", "1", "--out", str(out), "--format", "json",
        ]
        return Inputs(argv=argv, out=out, targets=p * reps, replicates=reps)

    def read(self, path: Path) -> dict:
        return json.loads(path.read_text())

    def write(self, path: Path, doc: dict) -> None:
        path.write_text(json.dumps(doc, indent=2) + "\n")

    def corruptions(self, inputs: Inputs, seed: int):
        spot = self._spot_targets(inputs, seed)[0]

        def perturb_spot(doc):
            doc["aggregates"]["mean_phi"][spot] *= 1.0 + 1e-3

        def shift_selection(doc):
            doc["per_replicate"][0]["sensitivity"] += 0.2

        def bend_roc(doc):
            doc["roc"][1], doc["roc"][2] = doc["roc"][2], doc["roc"][1]

        return [perturb_spot, shift_selection, bend_roc]

    def _spot_targets(self, inputs: Inputs, seed: int, count: int = 4) -> list[int]:
        p = inputs.targets // inputs.replicates
        return random.Random(seed).sample(range(p), min(count, p))

    def check_structure(self, inputs: Inputs, doc: dict) -> list[str]:
        problems = []
        reps = inputs.replicates
        p = inputs.targets // reps
        agg = doc["aggregates"]
        labels = agg["labels"]
        positives = labels.count("confounder")
        negatives = len(labels) - positives
        per = doc["per_replicate"]
        if [r["replicate"] for r in per] != list(range(reps)) or len(labels) != p:
            return ["replicate list or labels have the wrong length"]
        for r in per:
            # Top-K selects exactly K: true plus false positives must add up to K.
            tp = r["sensitivity"] * positives
            fp = (1.0 - r["specificity"]) * negatives
            if abs(tp - round(tp)) > 1e-9 or abs(fp - round(fp)) > 1e-9 or round(tp) + round(fp) != self.top_k:
                problems.append(f"replicate {r['replicate']}: rates do not describe a top-{self.top_k} selection")
        if not close(agg["mean_sensitivity"], float(np.mean([r["sensitivity"] for r in per])), atol=EXACT_ATOL):
            problems.append("mean_sensitivity is not the mean over replicates")
        if not close(agg["mean_specificity"], float(np.mean([r["specificity"] for r in per])), atol=EXACT_ATOL):
            problems.append("mean_specificity is not the mean over replicates")
        roc = np.asarray(doc["roc"], dtype=float)
        if roc.shape != (p + 1, 2) or roc[0].tolist() != [0.0, 0.0] or not np.allclose(roc[-1], 1.0):
            problems.append("ROC curve does not run from (0, 0) to (1, 1) over p + 1 points")
        elif np.any(np.diff(roc, axis=0) < -EXACT_ATOL):
            problems.append("ROC curve is not monotone")
        elif not (close(roc[self.top_k, 0], agg["mean_sensitivity"], atol=EXACT_ATOL)
                  and close(roc[self.top_k, 1], 1.0 - agg["mean_specificity"], atol=EXACT_ATOL)):
            problems.append(f"top-{self.top_k} rates are not the ROC point at K={self.top_k}")
        if len(agg["mean_phi"]) != p:
            problems.append("mean_phi has the wrong length")
        return problems

    def check_values(self, inputs: Inputs, doc: dict, seed: int, reference: dict | None) -> list[str]:
        problems = []
        basis = cs.BasisConfig(degree=3)
        for j in self._spot_targets(inputs, seed):
            phis = [cs.score_covariate(ds, j, "plugin_om", basis).phi_hat for ds in inputs.datasets]
            if not close(doc["aggregates"]["mean_phi"][j], float(np.mean(phis))):
                problems.append(f"spot check c{j + 1}: mean_phi differs from score_covariate")
        if reference is not None:
            agg = doc["aggregates"]
            rates = [[r["sensitivity"], r["specificity"]] for r in doc["per_replicate"]]
            if not np.allclose(rates, reference["rates"], rtol=0.0, atol=EXACT_ATOL) or not np.allclose(
                doc["roc"], reference["roc"], rtol=0.0, atol=EXACT_ATOL
            ):
                problems.append("selection rates or ROC differ from the reference")
            for key in ("mean_phi", "mc_se_phi"):
                if not all(close(a, b) for a, b in zip(agg[key], reference[key], strict=True)):
                    problems.append(f"{key} differs from the reference")
        return problems

    def reference_payload(self, doc: dict) -> dict:
        agg = doc["aggregates"]
        return {
            "rates": [[r["sensitivity"], r["specificity"]] for r in doc["per_replicate"]],
            "roc": doc["roc"],
            "mean_phi": [_round(x) for x in agg["mean_phi"]],
            "mc_se_phi": [_round(x) for x in agg["mc_se_phi"]],
        }


WORKLOADS = {
    w.name: w
    for w in (
        RankWorkload(
            "screen_tmle",
            "1000 small per-covariate tmle fits; interpreter overhead in nuisance and estimators dominates",
            design="high_dim", size=(500, 1000), smoke_size=(300, 20),
            estimator="tmle", degree=3, fmt="csv", kernel="small_arrays",
        ),
        RankWorkload(
            "groups_tall",
            "10 wide group fits on 50,000 rows; CSV parsing and BLAS-sized dr fits, nothing to batch",
            design="misspecified", size=(50_000, 30), smoke_size=(3_000, 30),
            estimator="dr", degree=6, fmt="json", kernel="tall_arrays", groups_of=3,
        ),
        SimulateWorkload(
            "sim_plugin",
            "3 replicates of 1000 least-squares plug-in fits plus ranking and ROC; no CSV, IRLS, TMLE or inference",
            size=(500, 1000), smoke_size=(300, 40), replicates=3, top_k=5,
        ),
    )
}


def load_reference(name: str) -> dict | None:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None
