"""Tour of the built-in simulation designs and their oracle scores.

Each design ships with an oracle for the true difference-scale score, so
a replicate study can report bias, coverage, and ROC quality against the
truth rather than against another estimate.
"""

import numpy as np

from confscreen import (
    BasisConfig,
    SimScenario,
    generate,
    oracle_phi,
    roc_auc,
    run_replicates,
    uniform_closed_form_phi,
)

# The uniform design has a closed-form score, which makes it a good first
# check: the Monte Carlo oracle must agree with the formula.
uniform = SimScenario(
    kind="uniform_closed_form", n=5000, p=4, theta=0.5, seed=3,
    alphas=(0.4, 0.3, 0.2, 0.1), betas=(0.5, 0.4, 0.0, 0.0),
)
print("uniform design, per-covariate oracle:")
for j in range(uniform.p):
    closed = uniform_closed_form_phi(uniform, j)
    mc = oracle_phi(uniform, j, mc_size=1_000_000)
    print(f"  c{j}: closed form {closed:+.4f}, Monte Carlo {mc.value:+.4f} "
          f"(mc se {mc.mc_se:.1e})")

# Gaussian designs: confounders (cols 0-4) have nonzero scores, outcome-only
# and exposure-only columns score zero.
low = SimScenario(kind="low_dim", n=1000, p=20, theta=1.0, seed=3, replicates=20)
print("\nlow-dimensional design oracles:")
for j in (0, 5, 10, 19):
    o = oracle_phi(low, j, mc_size=1_000_000)
    print(f"  c{j}: phi = {o.value:+.4f}")

# A small replicate study: score every covariate per replicate, select the
# top five, and compare the selection with the ground-truth labels.
oracles = np.array([oracle_phi(low, j, mc_size=1_000_000).value for j in range(low.p)])
result = run_replicates(low, estimator_kind="tmle", basis=BasisConfig(degree=2),
                        rule=("top_k", 5), oracle_values=oracles)
agg = result.aggregates
print("\nreplicate study (20 replicates, top-5 selection):")
print(f"  mean sensitivity: {agg['mean_sensitivity']:.3f}")
print(f"  mean specificity: {agg['mean_specificity']:.3f}")
print(f"  mean ROC area:    {roc_auc(result.roc_mean):.4f}")
print(f"  CI coverage (c0): {agg['coverage'][0]:.3f}")

# Misspecified design: the exposure and outcome depend on smooth nonlinear
# transforms, so low-degree polynomial fits miss the confounders while
# higher degrees recover them.
mis = SimScenario(kind="misspecified", n=2000, p=15, theta=1.0, seed=3, replicates=10)
sample = generate(mis, replicate=0)
print(f"\nmisspecified design: exposure prevalence {sample.dataset.exposure.mean():.3f}")
for degree in (1, 6):
    r = run_replicates(mis, estimator_kind="tmle", basis=BasisConfig(degree=degree),
                       rule=("top_k", 5))
    print(f"  degree {degree}: mean sensitivity {r.aggregates['mean_sensitivity']:.3f}")
