"""End-to-end acceptance suite.

Each test covers one numbered criterion and emits a single
``ACCEPTANCE nn PASS/FAIL`` line (printed through the capture bypass so it
always appears in the run log).  Tolerances are stated inline; independent
oracles (closed forms, enumeration, quadrature, finite differences, fresh
Monte Carlo from the generating equations) anchor every derived value.
"""

import json
import time

import numpy as np
import pytest

import confscreen as cs
from confscreen.cli import main as cli_main
from confscreen.estimators import theta_dr, tmle_theta
from confscreen.nuisance import NuisanceFit, fit_nuisances


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# Shared datasets and replicate banks


SIX = cs.Dataset(
    outcome=np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
    exposure=np.array([1, 1, 0, 0, 1, 0]),
    covariates=np.array([[1.0], [1.0], [1.0], [0.0], [0.0], [1.0]]),
    column_names=("c",),
)

ALL_KINDS = ("plugin_om", "plugin_ps", "dr", "tmle")


def _random_discrete_dataset(rng):
    """Discrete dataset with 2-8 covariate levels and both exposure arms."""
    n = int(rng.integers(20, 201))
    levels = int(rng.integers(2, 9))
    c = rng.integers(0, levels, size=n).astype(float)
    while True:
        e = (rng.random(n) < rng.uniform(0.25, 0.75)).astype(int)
        if 0 < e.mean() < 1:
            break
    y = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(0, 2, n).astype(float)
    return cs.Dataset(outcome=y, exposure=e, covariates=c[:, None], column_names=("c",))


def _brute_force_theta(ds):
    """Enumeration oracle: sum over levels of p_hat(level) pi_hat(level) tau_hat(level)."""
    c = ds.covariates[:, 0]
    total = 0.0
    for level in np.unique(c):
        mask = c == level
        total += mask.mean() * ds.exposure[mask].mean() * ds.outcome[mask].mean()
    return total


@pytest.fixture(scope="module")
def discrete_bank():
    rng = np.random.default_rng(2024)
    datasets = [_random_discrete_dataset(rng) for _ in range(50)]
    estimates = {
        kind: [
            cs.score_covariate(ds, 0, kind, cs.BasisConfig(degree=1), fit=cs.fit_saturated(ds, 0))
            for ds in datasets
        ]
        for kind in ALL_KINDS
    }
    return datasets, estimates


@pytest.fixture(scope="module")
def low_dim_bank():
    """200 replicates of the correlated-Gaussian null design, all columns scored."""
    scenario = cs.SimScenario(
        kind="low_dim", n=500, p=30, rho=0.0, theta=0.0, seed=20260824, replicates=200
    )
    phis = np.empty((200, 30))
    labels = None
    for r in range(200):
        sim = cs.generate(scenario, r)
        labels = sim.labels
        ests = cs.score_all(sim.dataset, "tmle", cs.BasisConfig(degree=3))
        phis[r] = [est.phi_hat for est in ests]
    return scenario, phis, labels


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_closed_form_oracle(capsys):
    start = time.monotonic()
    scenario = cs.SimScenario(
        kind="uniform_closed_form",
        n=200_000,
        p=3,
        theta=1.0,
        seed=11,
        alphas=(0.3, 0.3, 0.4),
        betas=(1.0, 0.5, 0.0),
    )
    sim = cs.generate(scenario, 0)
    truth = [cs.uniform_closed_form_phi(scenario, j) for j in range(3)]
    worst = 0.0
    for kind in ALL_KINDS:
        ests = cs.score_all(sim.dataset, kind, cs.BasisConfig(degree=3))
        worst = max(worst, max(abs(e.phi_hat - t) for e, t in zip(ests, truth)))
    elapsed = time.monotonic() - start
    ok = worst <= 0.02 and elapsed < 30.0
    _report(
        capsys, 1,
        f"uniform closed form: max |phi error| {worst:.4f} <= 0.02 over all "
        f"estimators at n=200000 in {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_02_saturated_equivalence(capsys, discrete_bank):
    datasets, estimates = discrete_bank
    worst = 0.0
    for i, ds in enumerate(datasets):
        oracle = _brute_force_theta(ds)
        thetas = [estimates[kind][i].theta_hat for kind in ALL_KINDS]
        worst = max(worst, max(abs(t - oracle) for t in thetas))
        worst = max(worst, max(thetas) - min(thetas))
    six_ok = all(
        cs.score_covariate(SIX, 0, kind, cs.BasisConfig(degree=1), fit=cs.fit_saturated(SIX, 0)).theta_hat
        == 0.25
        for kind in ALL_KINDS
    )
    ok = worst <= 1e-10 and six_ok
    _report(
        capsys, 2,
        f"saturated equivalence on 50 discrete datasets: max disagreement "
        f"{worst:.2e} <= 1e-10 and worked 6-row theta = 0.25 exactly",
        ok,
    )


def _eic_mean(ds, fit):
    """|Empirical mean| of the efficient influence curve at a fit's targeted values."""
    out = tmle_theta(ds, [fit])
    d_theta = cs.eic_theta(ds.outcome_original(), ds.exposure, out.pi, out.tau, out.theta[:, None])
    return abs(d_theta.mean())


def test_criterion_03_eic_residual(capsys, discrete_bank):
    datasets, _ = discrete_bank
    worst = 0.0
    for ds in datasets:
        worst = max(worst, _eic_mean(ds, cs.fit_saturated(ds, 0)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(100, 400))
        x = rng.normal(size=n)
        e = (rng.random(n) < cs.expit(0.8 * x)).astype(int)
        if not 0 < e.mean() < 1:
            continue
        y = np.sin(x) + rng.normal(size=n)
        ds = cs.Dataset(outcome=y, exposure=e, covariates=x[:, None], column_names=("c",))
        fit = fit_nuisances(ds, [0], cs.BasisConfig(degree=3), parts=("pi", "q"))[0]
        worst = max(worst, _eic_mean(ds, fit))
    sat = tmle_theta(SIX, [cs.fit_saturated(SIX, 0)]).diagnostics[0]
    eps1, eps2 = sat["trace"][0]
    sat_ok = sat["iterations"] == 1 and abs(eps1) < 1e-12 and abs(eps2) < 1e-12
    ok = worst <= 1e-6 and sat_ok
    _report(
        capsys, 3,
        f"post-TMLE empirical EIC mean: max {worst:.2e} <= 1e-6 across 70 test "
        f"datasets; saturated fits converge at iteration 0 with eps <= 1e-12",
        ok,
    )


def _quadrature_theta_confounder():
    """theta_0 = 0.6 E[C_0 expit(L)] with L = C_0 + S, S ~ N(0, 3), via the
    joint-normal reduction E[C_0|L] = L/10 and 64-node Gauss-Hermite."""
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    x = np.sqrt(2.0 * 10.0) * nodes  # L ~ N(0, 10)
    vals = (x / 10.0) * cs.expit(x)
    return 0.6 * float(vals @ weights) / np.sqrt(np.pi)


def test_criterion_04_double_robustness(capsys):
    start = time.monotonic()
    theta_true = _quadrature_theta_confounder()
    basis = cs.BasisConfig(degree=1)
    results = {}
    for config in ("a", "b"):
        for n in (500, 2000, 5000):
            scenario = cs.SimScenario(
                kind="low_dim", n=n, p=15, rho=0.0, theta=0.0, seed=55, replicates=200
            )
            drs, tls = [], []
            for r in range(200):
                ds = cs.generate(scenario, r).dataset
                mu_o = float(ds.outcome.mean())
                mu_e = float(ds.exposure.mean())
                o, e = ds.outcome, ds.exposure
                m1, m0 = float(o[e == 1].mean()), float(o[e == 0].mean())
                if config == "a":
                    # Intercept-only outcome side, correct-family propensity.
                    good = fit_nuisances(ds, [0], basis, parts=("pi",))[0]
                    fit = NuisanceFit(
                        (0,),
                        tau=np.full(ds.n, mu_o),
                        pi=good.pi,
                        q0=np.full(ds.n, m0),
                        q1=np.full(ds.n, m1),
                    )
                else:
                    # Correct-family outcome regression, intercept-only propensity;
                    # both exposure arms share the fitted tau so the composed
                    # outcome regression stays consistent whatever pi does.
                    good = fit_nuisances(ds, [0], basis, parts=("tau",))[0]
                    fit = NuisanceFit(
                        (0,),
                        tau=good.tau,
                        pi=np.full(ds.n, mu_e),
                        q0=good.tau,
                        q1=good.tau,
                    )
                drs.append(theta_dr(ds, [fit]).theta[0])
                tls.append(tmle_theta(ds, [fit]).theta[0])
            for name, vals in (("dr", np.array(drs)), ("tmle", np.array(tls))):
                bias = vals.mean() - theta_true
                se = vals.std(ddof=1) / np.sqrt(len(vals))
                results[(config, name, n)] = (bias, se)
    ok = True
    for config in ("a", "b"):
        for name in ("dr", "tmle"):
            biases = [abs(results[(config, name, n)][0]) for n in (500, 2000, 5000)]
            ok &= biases[0] >= biases[1] >= biases[2]
            bias, se = results[(config, name, 5000)]
            ok &= abs(bias) <= 2.0 * se
    elapsed = time.monotonic() - start
    final = max(abs(results[(c, k, 5000)][0]) for c in "ab" for k in ("dr", "tmle"))
    ok &= elapsed < 600.0
    _report(
        capsys, 4,
        f"double robustness: |bias| decreases over n in both misspecification "
        f"directions; worst n=5000 bias {final:.4f} within 2 MC SEs of 0; "
        f"{elapsed:.0f}s < 600s",
        ok,
    )


def test_criterion_05_influence_curve_finite_differences(capsys):
    # Note: the implemented curves follow the chain rule applied to the
    # difference/ratio score maps; they intentionally deviate from one
    # printed corollary whose partials do not differentiate the maps.
    def phi_map(t, o, e):
        return t / e - (o - t) / (1.0 - e)

    def psi_map(t, o, e):
        return (t / e) / ((o - t) / (1.0 - e))

    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(100):
        mu_e = rng.uniform(0.15, 0.85)
        mu_o = rng.uniform(0.2, 2.0)
        theta = rng.uniform(0.1, 0.9) * mu_o
        d = rng.normal(size=3)
        h = 1e-6
        for fn, ic in ((phi_map, cs.ic_phi), (psi_map, cs.ic_psi)):
            grad = np.empty(3)
            pt = np.array([theta, mu_o, mu_e])
            for k in range(3):
                hi, lo = pt.copy(), pt.copy()
                hi[k] += h
                lo[k] -= h
                grad[k] = (fn(*hi) - fn(*lo)) / (2.0 * h)
            expected = grad @ d
            got = ic(d[0:1], d[1:2], d[2:3], theta, mu_o, mu_e)[0]
            denom = max(abs(expected), 1e-8)
            worst = max(worst, abs(got - expected) / denom)
    ok = worst <= 1e-4
    _report(
        capsys, 5,
        f"delta-method influence curves vs central finite differences: max "
        f"relative error {worst:.2e} <= 1e-4 at 100 interior points",
        ok,
    )


def test_criterion_06_coverage(capsys):
    start = time.monotonic()
    scenario = cs.SimScenario(
        kind="low_dim", n=500, p=15, rho=0.0, theta=0.0, seed=314, replicates=500
    )
    oracle = cs.oracle_phi(scenario, 0, mc_size=2_000_000).value
    hits = 0
    for r in range(500):
        ds = cs.generate(scenario, r).dataset
        est = cs.score_covariate(ds, 0, "tmle", cs.BasisConfig(degree=3))
        lo, hi = cs.infer_scores(est, 0.10).ci_phi
        hits += lo <= oracle <= hi
    coverage = hits / 500
    elapsed = time.monotonic() - start
    ok = 0.86 <= coverage <= 0.94 and elapsed < 900.0
    _report(
        capsys, 6,
        f"90% CI coverage of the oracle difference score: {coverage:.3f} in "
        f"[0.86, 0.94] over 500 replicates; {elapsed:.0f}s < 900s",
        ok,
    )


def test_criterion_07_confounder_score_anchor(capsys, low_dim_bank):
    scenario, phis, labels = low_dim_bank
    oracle = cs.oracle_phi(scenario, 0, mc_size=2_000_000).value
    conf_mean = float(phis[:, :5].mean())
    spur_worst = float(np.max(np.abs(phis[:, 15:].mean(axis=0))))
    ok = (
        0.15 <= oracle <= 0.35
        and abs(conf_mean - oracle) <= 0.05
        and spur_worst <= 0.03
    )
    _report(
        capsys, 7,
        f"confounder anchor: oracle {oracle:.3f} in [0.15, 0.35]; mean tmle "
        f"estimate {conf_mean:.3f} within 0.05; worst spurious mean "
        f"{spur_worst:.3f} within 0.03 of 0",
        ok,
    )


def test_criterion_08_selection_performance(capsys, low_dim_bank):
    _, phis, labels = low_dim_bank
    top5 = 0
    aucs = []
    for r in range(phis.shape[0]):
        distances = np.abs(phis[r])
        order = np.lexsort((np.arange(30), -distances))
        top5 += set(order[:5]) == set(range(5))
        aucs.append(cs.roc_auc(cs.roc_curve(distances, labels)))
    rate = top5 / phis.shape[0]
    auc = float(np.mean(aucs))
    ok = rate >= 0.90 and auc >= 0.98
    _report(
        capsys, 8,
        f"selection: all 5 confounders ranked top-5 in {rate:.1%} >= 90% of 200 "
        f"replicates; mean ROC area {auc:.4f} >= 0.98",
        ok,
    )


def test_criterion_09_high_dimensional_throughput(capsys, tmp_path):
    scenario = cs.SimScenario(kind="high_dim", n=500, p=1000, rho=0.0, theta=0.0, seed=42)
    sim = cs.generate(scenario, 0)
    data = tmp_path / "high.csv"
    cs.write_csv(sim.dataset, data, outcome_col="y", exposure_col="e")
    times = {}
    outputs = {}
    for threads in (8, 1):
        out = tmp_path / f"out{threads}.csv"
        start = time.monotonic()
        code = cli_main(
            ["score", "--data", str(data), "--outcome", "y", "--exposure", "e",
             "--estimator", "tmle", "--degree", "3", "--threads", str(threads),
             "--out", str(out), "--format", "csv"]
        )
        times[threads] = time.monotonic() - start
        assert code == 0
        outputs[threads] = out.read_bytes()
    ok = times[8] < 60.0 and times[1] < 480.0 and outputs[8] == outputs[1]
    _report(
        capsys, 9,
        f"n=500, p=1000 tmle scoring: {times[8]:.1f}s (8 threads) < 60s, "
        f"{times[1]:.1f}s (1 thread) < 480s; outputs byte-identical across "
        f"thread counts",
        ok,
    )


def test_criterion_10_misspecification_robustness(capsys):
    scenario = cs.SimScenario(
        kind="misspecified", n=500, p=30, theta=0.0, seed=77, replicates=200
    )
    sens = {}
    for degree in (6, 1):
        vals = []
        for r in range(200):
            sim = cs.generate(scenario, r)
            ests = cs.score_all(sim.dataset, "tmle", cs.BasisConfig(degree=degree))
            selected = [
                j for j, est in enumerate(ests)
                if cs.infer_scores(est, 0.10).p_phi < 0.10
            ]
            s, _ = cs.evaluate_selection(selected, sim.labels)
            vals.append(s)
        sens[degree] = float(np.mean(vals))
    ok = sens[6] >= 0.90 and sens[6] >= sens[1]
    _report(
        capsys, 10,
        f"nonlinear design: degree-6 mean sensitivity {sens[6]:.3f} >= 0.90 and "
        f">= degree-1 sensitivity {sens[1]:.3f}",
        ok,
    )


def test_criterion_11_determinism(capsys, tmp_path):
    rng = np.random.default_rng(60)
    n, p = 150, 5
    c = rng.normal(size=(n, p))
    e = (rng.random(n) < cs.expit(c[:, 0])).astype(int)
    y = c[:, 0] + rng.normal(size=n)
    ds = cs.Dataset(
        outcome=y, exposure=e, covariates=c,
        column_names=tuple(f"x{j}" for j in range(p)),
    )
    data = tmp_path / "d.csv"
    cs.write_csv(ds, data, outcome_col="y", exposure_col="e")
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"kind": "low_dim", "n": 120, "p": 15, "seed": 3,
                                "replicates": 2}))
    ok = True
    for fmt in ("csv", "json"):
        blobs = []
        out = tmp_path / f"report.{fmt}"
        for threads in ("1", "1", "4"):
            code = cli_main(
                ["rank", "--data", str(data), "--outcome", "y", "--exposure", "e",
                 "--estimator", "tmle", "--top-k", "3", "--threads", threads,
                 "--out", str(out), "--format", fmt]
            )
            ok &= code == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1] == blobs[2]
    sims = []
    out = tmp_path / "sim.json"
    for _ in range(2):
        code = cli_main(["simulate", "--scenario", str(scen), "--estimator", "dr",
                         "--top-k", "5", "--out", str(out)])
        ok &= code == 0
        sims.append(out.read_bytes())
    ok &= sims[0] == sims[1]
    _report(
        capsys, 11,
        "fixed (config, seed) reproduces byte-identical CSV/JSON outputs across "
        "repeat runs and thread counts",
        ok,
    )
