"""Score a single covariate with every estimator.

Generates a small synthetic dataset with one genuine confounder and one
noise column, then computes the difference-scale and ratio-scale
confounding scores for each with the two plug-in estimators, the one-step
doubly robust estimator, and the targeted (TMLE) estimator.
"""

import numpy as np

from confscreen import BasisConfig, Dataset, infer_scores, score_covariate
from confscreen._stats import expit

rng = np.random.default_rng(7)
n = 2000

confounder = rng.normal(size=n)
noise = rng.normal(size=n)
exposure = (rng.random(n) < expit(confounder)).astype(int)
outcome = 0.8 * confounder + 0.5 * exposure + rng.normal(size=n)

data = Dataset(
    outcome=outcome,
    exposure=exposure,
    covariates=np.column_stack([confounder, noise]),
    column_names=("confounder", "noise"),
)

basis = BasisConfig(degree=2)

print(f"{'column':<12} {'estimator':<10} {'theta':>9} {'phi':>9} {'psi':>9}")
for j, name in enumerate(data.column_names):
    for estimator in ("plugin_om", "plugin_ps", "dr", "tmle"):
        est = score_covariate(data, j, estimator, basis)
        psi = "undef" if est.psi_hat is None else f"{est.psi_hat:9.4f}"
        print(f"{name:<12} {estimator:<10} {est.theta_hat:9.4f} {est.phi_hat:9.4f} {psi:>9}")

# The efficient estimators also carry influence-curve standard errors, so we
# can attach confidence intervals and a test of "no confounding".
print("\n90% confidence intervals for the difference-scale score (TMLE):")
for j, name in enumerate(data.column_names):
    est = score_covariate(data, j, "tmle", basis)
    inf = infer_scores(est, alpha=0.10)
    lo, hi = inf.ci_phi
    print(f"  {name:<12} phi = {est.phi_hat:+.4f}  CI [{lo:+.4f}, {hi:+.4f}]  p = {inf.p_phi:.3g}")
