"""Rank covariates by confounding score and select a screening set.

Uses the low-dimensional simulation design: columns 0-4 are genuine
confounders, 5-9 affect the outcome only, 10-14 affect the exposure only,
and the rest are pure noise.  A good screen puts the confounders first.
"""

from confscreen import BasisConfig, SimScenario, generate, rank, score_all

scenario = SimScenario(kind="low_dim", n=1500, p=20, theta=1.0, seed=11)
sim = generate(scenario, replicate=0)

basis = BasisConfig(degree=2)
estimates = score_all(sim.dataset, "tmle", basis)
names = list(sim.dataset.column_names)
report = rank(estimates, "difference", names, alpha=0.10)

print("rank  column  phi        truth")
for row in report.rows:
    print(f"{row.rank:>4}  {row.name:<6} {row.score:+.4f}   {sim.labels[row.id]}")

top5 = rank(estimates, "difference", names, rule=("top_k", 5))
picked = sorted(row.id for row in top5.rows if row.selected)
print(f"\ntop-5 selection: {picked}")

# Alternatively, keep every covariate whose score is significantly
# different from the null at level alpha.
tested = rank(estimates, "difference", names, rule=("alpha_test", 0.10), alpha=0.10)
picked = sorted(row.id for row in tested.rows if row.selected)
print(f"alpha = 0.10 test selection: {picked}")
