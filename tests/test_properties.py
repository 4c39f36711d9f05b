"""Property tests of the per-target scoring path on small random datasets.

Every draw has two informative covariates, a constant column and a binary
column (whose polynomial basis is rank-deficient from degree 2 on, which
forces the ridge fallback), a continuous or bounded outcome, and a basis
degree of 1-4.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confscreen import BasisConfig, Dataset, expit, fit_nuisances, score_all, score_covariate

KINDS = ("plugin_om", "plugin_ps", "dr", "tmle")
NAMES = ("a", "b", "const", "binary")
# Derandomized, so that every run of the suite draws the same examples.
PROPERTY_SETTINGS = settings(
    max_examples=15, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def screens(draw):
    """(dataset arguments, basis) for one random screen."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 140))
    bounded = draw(st.booleans())
    x = rng.normal(size=(n, 2))
    binary = (rng.random(n) < 0.5).astype(float)
    covariates = np.column_stack([x, np.full(n, 1.5), binary])
    exposure = (rng.random(n) < expit(0.7 * x[:, 0])).astype(int)
    exposure[:10], exposure[10:20] = 0, 1  # both arms hold every basis width
    signal = x[:, 0] + 0.5 * x[:, 1] + 0.5 * exposure
    if bounded:
        outcome = np.clip(expit(signal) + 0.1 * rng.normal(size=n), 0.0, 1.0)
    else:
        outcome = signal + rng.normal(size=n)
    args = dict(
        outcome=outcome,
        exposure=exposure,
        covariates=covariates,
        column_names=NAMES,
        outcome_kind="bounded" if bounded else "continuous",
    )
    return args, BasisConfig(degree=draw(st.integers(1, 4)))


def _same(a, b):
    """Bitwise equality of two estimates."""
    assert (a.covariate_id, a.estimator_kind) == (b.covariate_id, b.estimator_kind)
    for name in ("theta_hat", "mu_o_hat", "mu_e_hat", "phi_hat", "psi_hat"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.diagnostics.get("warnings") == b.diagnostics.get("warnings")
    assert a.influence_values.keys() == b.influence_values.keys()
    for key, value in a.influence_values.items():
        assert np.array_equal(value, b.influence_values[key]), key


def _affine(args, scale, shift):
    """Same data with the original-scale outcome mapped to scale * O + shift."""
    if args["outcome_kind"] == "bounded":
        return Dataset(**args, outcome_scale=scale, outcome_offset=shift)
    return Dataset(**{**args, "outcome": scale * args["outcome"] + shift})


@PROPERTY_SETTINGS
@given(screens())
def test_score_all_equals_per_covariate_scoring(screen):
    args, basis = screen
    ds = Dataset(**args)
    for kind in KINDS:
        for est, j in zip(score_all(ds, kind, basis), range(ds.p)):
            _same(est, score_covariate(ds, j, kind, basis))


@PROPERTY_SETTINGS
@given(screens())
def test_binary_column_fit_takes_ridge_fallback_from_degree_2(screen):
    args, basis = screen
    ds = Dataset(**args)
    binary = fit_nuisances(ds, [NAMES.index("binary")], basis, parts=("tau",))[0]
    assert (basis.degree >= 2) == any("ridge fallback" in w for w in binary.warnings)


@PROPERTY_SETTINGS
@given(screens(), st.floats(0.25, 4.0), st.floats(-5.0, 5.0))
def test_phi_outcome_scaling_and_shift(screen, scale, shift):
    args, basis = screen
    for kind in KINDS:
        base = score_all(Dataset(**args), kind, basis)
        scaled = score_all(_affine(args, scale, 0.0), kind, basis)
        shifted = score_all(_affine(args, 1.0, shift), kind, basis)
        for b, sc, sh in zip(base, scaled, shifted):
            size = max(1.0, abs(b.phi_hat))
            assert sc.phi_hat == pytest.approx(scale * b.phi_hat, abs=1e-7 * scale * size)
            # TMLE's phi is shift-invariant only asymptotically: a shift c
            # moves its theta = mean(pi* tau*) by c mean(pi*), not c mean(E),
            # and on a continuous outcome also turns the fluctuation direction
            # -2 pi (Q1 - Q0) - Q0.
            if kind == "tmle":
                continue
            assert sh.phi_hat == pytest.approx(b.phi_hat, abs=1e-5 * (1.0 + abs(shift)) * size)


@PROPERTY_SETTINGS
@given(screens(), st.permutations(range(len(NAMES))))
def test_results_permute_with_columns(screen, perm):
    args, basis = screen
    ds = Dataset(**args)
    permuted = Dataset(
        **{
            **args,
            "covariates": args["covariates"][:, perm],
            "column_names": tuple(NAMES[j] for j in perm),
        }
    )
    for kind in KINDS:
        base = score_all(ds, kind, basis)
        for pos, est in enumerate(score_all(permuted, kind, basis)):
            est.covariate_id = perm[pos]
            _same(est, base[perm[pos]])


# Relabelling E -> 1 - E maps (theta, mu_O, mu_E) to (mu_O - theta, mu_O, 1 - mu_E),
# hence phi to -phi and psi to 1/psi.  Tolerances on theta, relative to
# max(1, |mu_O|, |theta|):
FLIP_TOL = {
    # Both labellings fit the same least-squares tau; only rounding differs.
    "plugin_om": 1e-12,
    # IRLS stops once a step gains less than 1e-10 in log-likelihood, a gain
    # quadratic in the coefficient error, so each labelling's propensity fit
    # may sit about sqrt(1e-10) = 1e-5 from the exact MLE (measured: 2.3e-7
    # over 200 draws).
    "plugin_ps": 1e-5,
    # The same propensity fits, but dr's theta is first-order insensitive to
    # the propensity (measured: 5.2e-12 over 200 draws).
    "dr": 1e-8,
    # The plug-in propensity and least-squares tolerances above, and a
    # fluctuation loop that stops below |eps| = 1e-8.
    "tmle": 1e-5,
}


@pytest.mark.parametrize(
    "kind",
    [
        "plugin_om",
        "plugin_ps",
        "dr",
        pytest.param(
            "tmle",
            marks=pytest.mark.xfail(
                strict=True,
                reason="tmle is not equivariant under exposure relabelling: on these draws "
                "phi' misses -phi by up to 0.038 (960 times the tolerance) and psi' psi "
                "misses 1 by up to 0.13",
            ),
        ),
    ],
)
@PROPERTY_SETTINGS
@given(screens())
def test_exposure_relabelling_flips_scores(kind, screen):
    args, basis = screen
    base = score_all(Dataset(**args), kind, basis)
    flipped = score_all(Dataset(**{**args, "exposure": 1 - args["exposure"]}), kind, basis)
    for b, f in zip(base, flipped):
        tol = FLIP_TOL[kind] * max(1.0, abs(b.mu_o_hat), abs(b.theta_hat))
        assert f.mu_e_hat == pytest.approx(1.0 - b.mu_e_hat, abs=1e-15)
        # d phi / d theta = 1/mu_E + 1/(1 - mu_E).
        dphi = 1.0 / b.mu_e_hat + 1.0 / (1.0 - b.mu_e_hat)
        assert f.phi_hat == pytest.approx(-b.phi_hat, abs=tol * dphi)
        if b.psi_defined and f.psi_defined:
            # d log psi / d theta = 1/theta + 1/(mu_O - theta).
            dlog = 1.0 / abs(b.theta_hat) + 1.0 / abs(b.mu_o_hat - b.theta_hat)
            assert f.psi_hat * b.psi_hat == pytest.approx(1.0, abs=tol * dlog)
