"""CLI subcommands: outputs, schemas, exit codes, determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confscreen
from confscreen import SimScenario, generate, write_csv
from confscreen.cli import CSV_COLUMNS, build_parser, main

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
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}.csv"
        assert main(["rank", "--data", wide_csv, "--outcome", "y", "--exposure", "treat",
                     "--estimator", "tmle", "--top-k", "2", "--threads", threads,
                     "--out", str(out), "--format", "csv"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
    ],
)
def test_option_without_effect_exit_2(argv, wide_csv, tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"kind": "low_dim", "n": 100, "p": 15}))
    if argv[0] == "score":
        inputs = ["--data", wide_csv, "--outcome", "y", "--exposure", "treat"]
    else:
        inputs = ["--scenario", str(scenario)]
    out = tmp_path / "x.json"
    assert main([argv[0], *inputs, *argv[1:], "--out", str(out)]) == 2
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
