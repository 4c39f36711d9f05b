"""Score groups of covariates jointly instead of one column at a time.

When several columns encode one construct (dummy blocks, spline bases,
related measurements), the interesting quantity is the confounding score
of the block as a whole.  Group scoring fits the nuisance models on the
whole block and returns one score per group.
"""

import numpy as np

from confscreen import BasisConfig, Dataset, GroupSpec, rank, score_covariate, score_groups
from confscreen._stats import expit

rng = np.random.default_rng(21)
n = 3000

# Two correlated columns forming one "socioeconomic" construct, one lone
# confounder, and one noise column.
z = rng.normal(size=n)
ses_a = z + 0.3 * rng.normal(size=n)
ses_b = -z + 0.3 * rng.normal(size=n)
age = rng.normal(size=n)
noise = rng.normal(size=n)

exposure = (rng.random(n) < expit(z + 0.5 * age)).astype(int)
outcome = z + 0.7 * age + 0.5 * exposure + rng.normal(size=n)

data = Dataset(
    outcome=outcome,
    exposure=exposure,
    covariates=np.column_stack([ses_a, ses_b, age, noise]),
    column_names=("ses_a", "ses_b", "age", "noise"),
)

groups = GroupSpec(groups=(
    ("ses", ("ses_a", "ses_b")),
    ("age", ("age",)),
    ("noise", ("noise",)),
))

basis = BasisConfig(degree=2)
members = groups.member_indices(data)  # validates the groups against the data
estimates = score_groups(data, members, "tmle", basis)
report = rank(estimates, "difference", [name for name, _ in members], rule=("top_k", 2))
for row in report.rows:
    mark = "selected" if row.selected else ""
    print(f"rank {row.rank}: group {row.name:<6} phi = {row.score:+.4f}  {mark}")

# Either correlated column alone understates the block: z enters them with
# opposite signs, so the pair carries more signal than each marginal fit.
for j in (0, 1):
    est = score_covariate(data, j, "tmle", basis)
    print(f"column {data.column_names[j]:<6} phi = {est.phi_hat:+.4f}")
