"""CLI subcommands: outputs, schemas, exit codes, determinism."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confscreen
from confscreen import Dataset, SimScenario, generate, load_csv, write_csv
from confscreen.cli import CSV_COLUMNS, _csv, _fmt, build_parser, main

SIX_ROWS = "O,E,C\n1,1,1\n0,1,1\n1,0,1\n0,0,0\n1,1,0\n0,0,1\n"


@pytest.fixture
def six_csv(tmp_path):
    path = tmp_path / "six.csv"
    path.write_text(SIX_ROWS)
    return str(path)


@pytest.fixture
def wide_csv(tmp_path):
    rng = np.random.default_rng(50)
    n, p = 200, 4
    c = rng.normal(size=(n, p))
    e = (rng.random(n) < 1.0 / (1.0 + np.exp(-c[:, 0]))).astype(int)
    y = c[:, 0] + 0.5 * c[:, 1] + rng.normal(size=n)
    path = tmp_path / "wide.csv"
    header = "y,treat," + ",".join(f"x{j}" for j in range(p))
    lines = [header]
    for i in range(n):
        lines.append(f"{float(y[i])!r},{int(e[i])}," + ",".join(repr(float(v)) for v in c[i]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_score_six_rows_saturated_csv(six_csv, tmp_path):
    out = tmp_path / "out.csv"
    code = main(
        [
            "score",
            "--data", six_csv,
            "--outcome", "O",
            "--exposure", "E",
            "--saturated",
            "--estimator", "tmle",
            "--out", str(out),
            "--format", "csv",
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert float(rows[0]["theta"]) == 0.25


def test_score_writes_manifest(six_csv, tmp_path):
    out = tmp_path / "out.json"
    assert main(["score", "--data", six_csv, "--outcome", "O", "--exposure", "E",
                 "--saturated", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["schema_version"] == 2
    assert "wall_time_seconds" in manifest
    assert manifest["config"]["estimator"] == "tmle"
    assert "confscreen" in manifest["versions"]


def test_score_runs_without_scipy(wide_csv, tmp_path):
    # numpy is the only runtime dependency: scoring must not import scipy.
    out = tmp_path / "out.json"
    argv = ["score", "--data", wide_csv, "--outcome", "y", "--exposure", "treat", "--out", str(out)]
    code = f"import sys; sys.modules['scipy'] = None; from confscreen.cli import main; sys.exit(main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(confscreen.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert len(json.loads(out.read_text())["results"]) == 4


def test_score_json_schema(six_csv, tmp_path):
    out = tmp_path / "out.json"
    assert main(["score", "--data", six_csv, "--outcome", "O", "--exposure", "E",
                 "--saturated", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2
    assert isinstance(doc["config"], dict)
    assert doc["results"][0]["theta"] == 0.25


def test_invalid_column_exit_2(six_csv, tmp_path, capsys):
    code = main(["score", "--data", six_csv, "--outcome", "O", "--exposure", "nope",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope" in err and "\n" == err[-1] and err.count("\n") == 1


@pytest.fixture
def same_name_csv(tmp_path):
    rng = np.random.default_rng(8)
    rows = np.column_stack([rng.normal(size=40), np.arange(40) % 2, rng.normal(size=(40, 3))])

    def write(header):
        path = tmp_path / "names.csv"
        path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        return str(path)
    return write


@pytest.mark.parametrize(
    "header, outcome, exposure, message",
    [
        ("y,e,c1,c2,c3", "e", "e", "outcome and exposure name the same column 'e'"),
        ("y,e,c1,y,c3", "y", "e", "column 'y' appears more than once in the header"),
    ],
)
def test_ambiguous_columns_exit_2(same_name_csv, tmp_path, capsys, header, outcome, exposure, message):
    data = same_name_csv(header)
    out = tmp_path / "x.json"
    code = main(["rank", "--data", data, "--outcome", outcome, "--exposure", exposure,
                 "--estimator", "dr", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exit_2(tmp_path):
    code = main(["score", "--data", str(tmp_path / "absent.csv"), "--outcome", "O",
                 "--exposure", "E", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_not_utf8_csv_exit_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"O,E,C\n1,1,1\n0,0,\xff2")
    code = main(["score", "--data", str(data), "--outcome", "O", "--exposure", "E",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: not UTF-8 text") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error")
def test_score_outcomes_near_overflow_give_finite_se(tmp_path):
    data = tmp_path / "huge.csv"
    data.write_text("O,E,C\n1e300,1,1\n-1e300,0,2\n5e299,1,3\n2e300,0,4\n")
    out = tmp_path / "huge.json"
    assert main(["score", "--data", str(data), "--outcome", "O", "--exposure", "E",
                 "--estimator", "dr", "--degree", "1", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["results"]
    assert np.isfinite([row["se_phi"], row["ci_lo"], row["ci_hi"]]).all() and row["se_phi"] > 0.0


def test_not_utf8_groups_exit_2(wide_csv, tmp_path, capsys):
    groups = tmp_path / "g.json"
    groups.write_bytes(b'{"g": ["x0\xff"]}')
    code = main(["score", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                 "--groups", str(groups), "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {groups}: not UTF-8 text") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


def test_not_utf8_scenario_exit_2(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_bytes(b'{"kind": "low_dim\xff"}')
    code = main(["simulate", "--scenario", str(scen), "--top-k", "1", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scen}: not UTF-8 text") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


def test_no_partial_output_on_failure(six_csv, tmp_path):
    out = tmp_path / "never.json"
    main(["score", "--data", six_csv, "--outcome", "O", "--exposure", "nope",
          "--out", str(out)])
    assert not out.exists()
    # The write succeeds and the rename fails: --out names an existing directory.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"kind": "uniform_closed_form", "n": 50, "p": 2,
                                    "alphas": [0.5, 0.0], "betas": [1.0, 0.0]}))
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    assert main(["simulate", "--scenario", str(scenario), "--estimator", "plugin-om",
                 "--top-k", "1", "--out", str(outdir)]) == 2
    assert not list(tmp_path.glob("*.tmp.*"))
    # A later file of the command cannot be renamed into place: <out>.roc.csv is
    # an existing directory, so out.csv, already in place, is removed again.
    out = tmp_path / "out.csv"
    (tmp_path / "out.csv.roc.csv").mkdir()
    assert main(["simulate", "--scenario", str(scenario), "--estimator", "plugin-om",
                 "--top-k", "1", "--format", "csv", "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "out.csv.summary.json").exists()
    assert not list(tmp_path.glob("*.tmp.*"))


@pytest.mark.parametrize("estimator", ["tmle", "plugin-om"])
def test_score_rows_equal_rank_rows(wide_csv, tmp_path, estimator):
    # score and rank write their rows through one path: the same numbers for each name.
    base = ["--data", wide_csv, "--outcome", "y", "--exposure", "treat", "--estimator", estimator]
    assert main(["score", *base, "--out", str(tmp_path / "score.json")]) == 0
    assert main(["rank", *base, "--top-k", "4", "--out", str(tmp_path / "rank.json")]) == 0
    scored, ranked = (json.loads((tmp_path / f"{cmd}.json").read_text())["results"] for cmd in ("score", "rank"))
    by_name = {row["name"]: row for row in ranked}
    assert [row["name"] for row in scored] == sorted(by_name) == ["x0", "x1", "x2", "x3"]
    fields = ("theta", "phi", "psi", "se_phi", "ci_lo", "ci_hi", "p_value")
    for row in scored:
        assert {k: row[k] for k in fields} == {k: by_name[row["name"]][k] for k in fields}, row["name"]
    if estimator == "tmle":
        assert all(row["p_value"] is not None for row in scored)


def test_score_determinism_byte_identical(six_csv, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["score", "--data", six_csv, "--outcome", "O", "--exposure", "E",
                     "--saturated", "--out", str(out), "--format", "csv"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_rank_top_k_all_selected(wide_csv, tmp_path):
    out = tmp_path / "rank.json"
    assert main(["rank", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                 "--estimator", "dr", "--top-k", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(row["selected"] for row in doc["results"])
    assert doc["selection_rule"] == ["top_k", 4]
    ranks = [row["rank"] for row in doc["results"]]
    assert ranks == sorted(ranks) == [1, 2, 3, 4]


def test_rank_alpha_test(wide_csv, tmp_path):
    out = tmp_path / "rank.csv"
    assert main(["rank", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                 "--estimator", "tmle", "--alpha", "0.10", "--out", str(out),
                 "--format", "csv"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    # The driver covariate x0 must be significant and ranked first.
    assert rows[0]["name"] == "x0" and rows[0]["selected"] == "true"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--estimator", "dr", "--top-k", "0"], "error: top-K must lie in 1..4, got 0"),
        (["--estimator", "dr", "--top-k", "5"], "error: top-K must lie in 1..4, got 5"),
        (
            ["--estimator", "plugin-om"],
            "error: alpha-test selection needs influence-based inference (dr or tmle estimates)",
        ),
        (["--estimator", "dr", "--alpha", "1.5"], "error: alpha must lie in (0, 1)"),
        (["--estimator", "plugin-om", "--top-k", "2", "--alpha", "1.5"], "error: alpha must lie in (0, 1)"),
        (["--estimator", "plugin-ps", "--top-k", "2", "--alpha", "0"], "error: alpha must lie in (0, 1)"),
    ],
)
def test_rank_selection_errors_exit_2(argv, message, wide_csv, tmp_path, capsys):
    out = tmp_path / "rank.json"
    code = main(["rank", "--data", wide_csv, "--outcome", "y", "--exposure", "treat", *argv, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_rank_group_singleton_matches_score(wide_csv, tmp_path):
    groups = tmp_path / "groups.json"
    groups.write_text('{"solo": ["x0"]}')
    out_g = tmp_path / "g.json"
    assert main(["rank", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                 "--estimator", "tmle", "--groups", str(groups), "--top-k", "1",
                 "--out", str(out_g)]) == 0
    out_s = tmp_path / "s.json"
    assert main(["score", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                 "--estimator", "tmle", "--out", str(out_s)]) == 0
    g = json.loads(out_g.read_text())["results"][0]
    singles = {row["name"]: row for row in json.loads(out_s.read_text())["results"]}
    assert g["phi"] == singles["x0"]["phi"]


def test_rank_thread_count_invariance(wide_csv, tmp_path):
    out = tmp_path / "t.csv"
    argv = ["rank", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
            "--estimator", "tmle", "--top-k", "2", "--out", str(out), "--format", "csv"]
    code = f"import sys; from confscreen.cli import main; sys.exit(main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(confscreen.__file__).parents[1])}
    outs = []
    # OpenBLAS reads its thread count when numpy is imported, so each run is a new interpreter.
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(threads, wide_csv, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15}))
    out = tmp_path / "x.json"
    commands = {
        "score": ["--data", wide_csv, "--outcome", "y", "--exposure", "treat", "--estimator", "dr"],
        "rank": ["--data", wide_csv, "--outcome", "y", "--exposure", "treat", "--estimator", "dr"],
        "simulate": ["--scenario", str(scenario), "--estimator", "plugin-om", "--top-k", "1"],
    }
    for command, inputs in commands.items():
        assert main([command, *inputs, "--threads", threads, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: threads must be at least 1, got {threads}\n"
        assert not out.exists()
    # One thread, which the benchmark harness passes, stays accepted.
    assert main(["rank", *commands["rank"], "--threads", "1", "--out", str(out)]) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["config"]["threads"] == 1


@pytest.mark.parametrize("in_file, override", [(-3, None), (4, "-1"), (4, str(2**128))])
def test_simulate_seed_out_of_range_exit_2(in_file, override, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15, "seed": in_file}))
    out = tmp_path / "x.json"
    argv = ["simulate", "--scenario", str(scenario), "--top-k", "1", "--out", str(out)]
    if override is not None:
        argv += ["--seed", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must lie in [0, 2^128)") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_json_and_determinism(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(
        {"kind": "low_dim", "n": 150, "p": 15, "seed": 4, "replicates": 2}
    ))
    outs = []
    out = tmp_path / "sim.json"
    for _ in range(2):
        assert main(["simulate", "--scenario", str(scen), "--estimator", "dr",
                     "--top-k", "5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert len(doc["per_replicate"]) == 2
    assert len(doc["roc"]) == 16
    assert "mean_sensitivity" in doc["aggregates"]
    assert doc["config"]["alpha"] == 0.10  # the default is echoed when --alpha is not passed


def test_simulate_uniform_summary_has_oracle(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "kind": "uniform_closed_form", "n": 5000, "p": 3, "theta": 1.0,
        "seed": 6, "replicates": 2,
        "alphas": [0.3, 0.3, 0.4], "betas": [1.0, 0.5, 0.0],
    }))
    out = tmp_path / "u.json"
    assert main(["simulate", "--scenario", str(scen), "--estimator", "tmle",
                 "--top-k", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    oracle = doc["aggregates"]["oracle_phi"]
    est = doc["aggregates"]["mean_phi"]
    mc_se = doc["aggregates"]["mc_se_phi"]
    assert oracle == pytest.approx([0.13, 0.08, 0.4 / 3 * 0.4])
    for o, m, s in zip(oracle, est, mc_se):
        assert abs(o - m) < max(4.0 * s, 0.05)


def test_simulate_csv_emits_tables(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"kind": "low_dim", "n": 150, "p": 15, "seed": 4,
                                "replicates": 2}))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", str(scen), "--estimator", "dr",
                 "--top-k", "5", "--out", str(out), "--format", "csv"]) == 0
    assert out.read_text().startswith("replicate,sensitivity,specificity")
    assert (tmp_path / "sim.csv.roc.csv").exists()
    assert (tmp_path / "sim.csv.summary.json").exists()


def test_simulate_bad_scenario_exit_2(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text('{"kind": "low_dim", "banana": 1}')
    code = main(["simulate", "--scenario", str(scen), "--top-k", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["groups", "scenario"])
def test_duplicate_json_key_exit_2(wide_csv, tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    out = tmp_path / "x.json"
    if kind == "groups":
        path.write_text('{"g": ["x0"], "g": ["x1", "x2"]}')
        argv = ["score", "--data", wide_csv, "--outcome", "y", "--exposure", "treat", "--groups", str(path)]
        key = "g"
    else:
        path.write_text('{"kind": "low_dim", "n": 200, "p": 15, "n": 100}')
        argv = ["simulate", "--scenario", str(path), "--estimator", "dr", "--top-k", "1"]
        key = "n"
    assert main([*argv, "--out", str(out)]) == 2
    what = "group" if kind == "groups" else "scenario"
    assert capsys.readouterr().err == f"error: {path}: invalid {what} file: duplicate key {key!r}\n"
    assert not out.exists()


def test_simulate_alpha_test_needs_efficient_estimator(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15, "seed": 1}))
    code = main(["simulate", "--scenario", str(scen), "--estimator", "plugin-om",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_unknown_flag_exit_2(six_csv, tmp_path, capsys):
    code = main(["score", "--data", six_csv, "--bogus", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_groups_with_saturated_exit_2(wide_csv, tmp_path):
    groups = tmp_path / "g.json"
    groups.write_text(json.dumps({"g": ["x0"]}))
    for command in ("score", "rank"):
        code = main([command, "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                     "--groups", str(groups), "--saturated", "--out", str(tmp_path / "x.json")])
        assert code == 2
    assert not (tmp_path / "x.json").exists()


def test_seed_only_for_simulate_exit_2(wide_csv, tmp_path):
    for command in ("score", "rank"):
        code = main([command, "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                     "--seed", "3", "--out", str(tmp_path / "x.json")])
        assert code == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("score, null, se_key", [("difference", 0.0, "se_phi"), ("ratio", 1.0, "se_psi")])
def test_rank_row_interval_and_p_value_describe_the_ranked_score(tmp_path, score, null, se_key):
    # On this design a ratio ranking used to write phi's SE and CI next to psi's
    # p-value: row c5 had a phi CI of [0.050, 0.330] and p_value 0.735.
    data = tmp_path / "low.csv"
    write_csv(generate(SimScenario(kind="low_dim", n=300, p=15, seed=3), 0).dataset, data)
    alpha = 0.10
    out = tmp_path / "rank.json"
    assert main(["rank", "--data", str(data), "--outcome", "outcome", "--exposure", "exposure",
                 "--estimator", "dr", "--degree", "2", "--score", score, "--alpha", str(alpha),
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 15
    for row in rows:
        assert se_key in row and ({"se_phi", "se_psi"} - {se_key}).isdisjoint(row)
        if row["p_value"] is None:
            assert row["ci_lo"] is None and row[se_key] is None
            continue
        excludes_null = not (row["ci_lo"] <= null <= row["ci_hi"])
        assert (row["p_value"] < alpha) == excludes_null, row["name"]
    csv_out = tmp_path / "rank.csv"
    assert main(["rank", "--data", str(data), "--outcome", "outcome", "--exposure", "exposure",
                 "--estimator", "dr", "--degree", "2", "--score", score, "--out", str(csv_out),
                 "--format", "csv"]) == 0
    with open(csv_out) as fh:
        header = next(csv.reader(fh))
    assert header == [se_key if col == "se_phi" else col for col in CSV_COLUMNS]


def test_rank_ratio_alpha_test_with_negative_theta(tmp_path):
    # c10 of this design has theta < 0; its ratio score still gets a p-value.
    data = tmp_path / "low.csv"
    write_csv(generate(SimScenario(kind="low_dim", n=400, p=15, seed=3), 0).dataset, data)
    out = tmp_path / "rank.csv"
    code = main(["rank", "--data", str(data), "--outcome", "outcome", "--exposure", "exposure",
                 "--score", "ratio", "--out", str(out), "--format", "csv"])
    assert code == 0
    with open(out) as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    assert float(rows["c10"]["theta"]) < 0.0
    assert rows["c10"]["p_value"] != ""


def _write_discrete_csv(path, seed):
    # Few-level covariates, so that --saturated applies; "alt" is a second binary column.
    rng = np.random.default_rng(seed)
    n = 150
    c = rng.integers(0, 5, size=(n, 3)).astype(float)
    treat = (rng.random(n) < 1.0 / (1.0 + np.exp(2.0 - c[:, 0]))).astype(int)
    alt = (rng.random(n) < 0.5).astype(int)
    y = c[:, 0] + 0.5 * c[:, 1] + treat + rng.normal(size=n)
    lines = ["y,treat,alt,x0,x1,x2"]
    for i in range(n):
        lines.append(f"{float(y[i])!r},{treat[i]},{alt[i]}," + ",".join(repr(float(v)) for v in c[i]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# Options that change no result by design: where and how results are written,
# and --threads, which is recorded in the manifest only.
EXEMPT_OPTIONS = {"--out", "--format", "--threads"}


def _option_cases(tmp_path):
    """Per subcommand: the base options and, for every other option, a value that changes the results."""
    data = _write_discrete_csv(tmp_path / "d.csv", 60)
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"g": ["x0", "x1"], "h": ["x2"]}))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 120, "p": 15, "seed": 4}))
    other_scenario = tmp_path / "s2.json"
    other_scenario.write_text(json.dumps({"kind": "low_dim", "n": 160, "p": 15, "seed": 4}))
    data_cases = {
        "--data": _write_discrete_csv(tmp_path / "d2.csv", 61),
        "--outcome": "x0",
        "--exposure": "alt",
        "--outcome-kind": "bounded",
        "--groups": str(groups),
        "--saturated": True,
        "--estimator": "dr",
        "--degree": "2",
        "--alpha": "0.5",
    }
    data_base = {"--data": data, "--outcome": "y", "--exposure": "treat"}
    return {
        "score": (data_base, data_cases),
        "rank": (data_base, {**data_cases, "--score": "ratio", "--top-k": "1"}),
        "simulate": (
            {"--scenario": str(scenario)},
            {
                "--scenario": str(other_scenario),
                "--seed": "5",
                "--estimator": "dr",
                "--score": "ratio",
                "--degree": "2",
                "--alpha": "0.5",
                "--top-k": "3",
            },
        ),
    }


def _results_without_config(command, options, out):
    argv = [command]
    for flag, value in options.items():
        argv += [flag] if value is True else [flag, value]
    assert main([*argv, "--out", str(out)]) == 0, argv
    doc = json.loads(out.read_text())
    del doc["config"]
    return doc


@pytest.mark.parametrize("command", ["score", "rank", "simulate"])
def test_every_option_acts(command, tmp_path):
    base_options, cases = _option_cases(tmp_path)[command]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [
        max(action.option_strings, key=len)
        for action in subparsers.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    untested = [flag for flag in flags if flag not in EXEMPT_OPTIONS and flag not in cases]
    assert not untested, f"{command}: options without a case: {untested}"
    base = _results_without_config(command, base_options, tmp_path / "base.json")
    for flag, value in cases.items():
        assert flag in flags, f"{command} has no option {flag}"
        varied = _results_without_config(command, {**base_options, flag: value}, tmp_path / "varied.json")
        assert varied != base, f"{command} {flag} changes no result"


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--top-k", "1"],
        ["score", "--score", "ratio"],
        ["simulate", "--outcome-kind", "bounded"],
        ["simulate", "--top-k", "3", "--alpha", "0.5"],
        ["simulate", "--top-k", "3", "--alpha", "0.1"],
        # Neither a confidence interval nor an alpha test uses --alpha here.
        ["score", "--estimator", "plugin-ps", "--alpha", "0.05"],
        ["rank", "--estimator", "plugin-om", "--top-k", "2", "--alpha", "0.05"],
        # Per-level fits use no polynomial basis.
        ["score", "--estimator", "dr", "--saturated", "--degree", "2"],
        # plugin-ps fits no outcome model.
        ["score", "--estimator", "plugin-ps", "--outcome-kind", "bounded"],
        ["rank", "--estimator", "plugin-ps", "--top-k", "2", "--outcome-kind", "bounded"],
    ],
)
def test_option_without_effect_exit_2(argv, wide_csv, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15}))
    if argv[0] == "simulate":
        inputs = ["--scenario", str(scenario)]
    else:
        inputs = ["--data", wide_csv, "--outcome", "y", "--exposure", "treat"]
    out = tmp_path / "x.json"
    assert main([argv[0], *inputs, *argv[1:], "--out", str(out)]) == 2
    assert argv[-2] in capsys.readouterr().err  # the option without effect is named
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("n", "200"), ("n", 200.5), ("replicates", 2.0), ("seed", "x"), ("p", True), ("rho", "0.5")],
)
def test_simulate_ill_typed_scenario_field_exit_2(field, value, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15, field: value}))
    code = main(["simulate", "--scenario", str(scenario), "--top-k", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("low_dim", "beta0", 5.0),
        ("low_dim", "alphas", [0.1] * 15),
        ("misspecified", "betas", [0.0] * 15),
        ("uniform_closed_form", "alphas", [0.0] * 15),
    ],
)
def test_simulate_scenario_field_without_effect_exit_2(kind, field, value, tmp_path, capsys):
    # Only the uniform design reads alphas, betas and beta0, and its weights must not all be 0.
    fields = {"alphas": [0.0] * 15, "betas": [1.0] * 15} if kind == "uniform_closed_form" else {}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": kind, "n": 100, "p": 15, **fields, field: value}))
    out = tmp_path / "x.json"
    assert main(["simulate", "--scenario", str(scenario), "--top-k", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err and err.count("\n") == 1
    assert not out.exists()


def _named_csv(tmp_path, names):
    """A low_dim sample written with covariate ``names`` (outcome y, exposure e)."""
    ds = generate(SimScenario(kind="low_dim", n=200, p=15, seed=3), 0).dataset
    path = tmp_path / "named.csv"
    write_csv(Dataset(ds.outcome, ds.exposure, ds.covariates, tuple(names)), path, "y", "e")
    return str(path)


def test_csv_outputs_quote_names(tmp_path):
    names = ["a,b", 'q"x', "line\nbreak", *(f"x{j}" for j in range(3, 15))]
    data = _named_csv(tmp_path, names)
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"g,1": ["a,b", "line\nbreak"], 'q"x': ['q"x'], "rest": names[3:]}))
    inputs = ["--data", data, "--outcome", "y", "--exposure", "e", "--estimator", "dr", "--degree", "2"]
    for argv, expected in (
        (["score"], names),
        (["rank", "--top-k", "2"], names),
        (["rank", "--groups", str(groups)], ["g,1", 'q"x', "rest"]),
    ):
        out = tmp_path / "out.csv"
        assert main([*argv, *inputs, "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in rows)
        assert sorted(row[header.index("name")] for row in rows) == sorted(expected)


def test_outputs_are_utf8_under_encoding_warnings(tmp_path):
    # -X warn_default_encoding makes every open() without an encoding warn,
    # and -W error::EncodingWarning turns that warning into a failure.
    data = _named_csv(tmp_path, ["β1", *(f"x{j}" for j in range(1, 15))])
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15, "seed": 2}))
    inputs = ["--data", data, "--outcome", "y", "--exposure", "e", "--estimator", "dr", "--degree", "2"]
    runs = [
        ["score", *inputs, "--format", "csv", "--out", str(tmp_path / "score.csv")],
        ["rank", *inputs, "--format", "csv", "--out", str(tmp_path / "rank.csv")],
        ["simulate", "--scenario", str(scenario), "--top-k", "2", "--estimator", "plugin-om",
         "--format", "csv", "--out", str(tmp_path / "sim.csv")],
    ]
    code = (
        "import sys; from confscreen import load_csv, write_csv; from confscreen.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        f"write_csv(load_csv({data!r}, 'y', 'e'), {str(tmp_path / 'copy.csv')!r}, 'y', 'e')\n"
        "sys.exit(max(codes))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(confscreen.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code],
        env=env, capture_output=True, encoding="utf-8",
    )
    assert result.returncode == 0, result.stderr
    assert load_csv(tmp_path / "copy.csv", "y", "e").column_names[0] == "β1"
    for name in ("score.csv", "rank.csv"):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            assert "β1" in [row[1] for row in csv.reader(fh)]
    for name in ("sim.csv", "sim.csv.roc.csv", "sim.csv.summary.json", "sim.csv.manifest.json"):
        (tmp_path / name).read_text(encoding="utf-8")


def test_csv_table_equals_cell_by_cell_csv_writer():
    # Columns of one type go through that type's formatter in one pass, mixed
    # ones through _fmt cell by cell: the text is that of csv.writer over
    # each row's _fmt cells, quotes included.
    columns = ["id", "name", "phi", "psi", "rank", "selected", "flags"]
    rows = [
        {"id": 3, "name": 'a "b", c', "phi": -0.0, "psi": None, "rank": 1, "selected": True, "flags": []},
        {"id": 7, "name": "β\nγ", "phi": 5e-324, "psi": 1.5, "rank": 2, "selected": False, "flags": ["x, y"]},
        {"id": 8, "name": "plain", "phi": float("nan"), "psi": 2, "selected": None, "flags": ["z"]},
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    assert _csv(columns, rows) == buf.getvalue()
    assert _csv(columns, []) == ",".join(columns) + "\n"
