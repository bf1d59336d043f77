"""Particle filter core: resampling schemes, likelihood estimation,
smoother functionals, and the coupled fine/coarse difference filter.

Exactness properties worth pinning bit-for-bit: a unit-potential model
must yield a likelihood estimate of exactly 1 for every scheme and
particle count, and the difference filter on a coupling whose fine and
coarse paths coincide must return exactly zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcis.errors import (
    DegenerateEstimatorError,
    DegenerateWeightsError,
    ModelEvaluationError,
    ParameterError,
)
from mcis.models import diffusion
from mcis.models.diffusion import DiffusionFamily, LinearDrift
from mcis.models.fk import FeynmanKacModel
from mcis.models.lgssm import kalman_loglik, kalman_smoother_means, lgssm_feynman_kac
from mcis.models.diffusion import ou_level_lgssm
from mcis.multilevel import build_schedule, particle_substeps
from mcis.rng import substream
from mcis.smc import (
    RESAMPLING_SCHEMES,
    ratio_estimate,
    resample,
    run_delta_pf,
    run_particle_filter,
)

from conftest import (
    OU_DRIFT,
    REFERENCE_LOGLIK,
    UnitPotentialModel,
    YS_OU,
    ou_family,
    scalar_ssm,
)


# ---------------------------------------------------------------------------
# Resampling


@pytest.mark.parametrize("scheme", RESAMPLING_SCHEMES)
def test_point_mass_selects_only_the_atom(scheme):
    rng = substream(0, scheme)
    for _ in range(20):
        ancestors = resample([0.0, 0.0, 3.0, 0.0], scheme, rng)
        np.testing.assert_array_equal(ancestors, 2)


@pytest.mark.parametrize("scheme", ["systematic", "stratified"])
def test_uniform_weights_preserve_order(scheme):
    rng = substream(1, scheme)
    ancestors = resample(np.ones(16), scheme, rng)
    np.testing.assert_array_equal(ancestors, np.arange(16))


def test_residual_with_integer_expectations_is_deterministic():
    rng = substream(2, "resid")
    ancestors = resample([0.5, 0.25, 0.25, 0.0], "residual", rng)
    np.testing.assert_array_equal(ancestors, [0, 0, 1, 2])


@pytest.mark.parametrize("scheme", RESAMPLING_SCHEMES)
def test_offspring_means_are_unbiased(scheme):
    # Every scheme must give particle i an expected offspring count of
    # N w_i / sum(w).  The tolerance uses the multinomial variance,
    # which dominates the variance of the low-discrepancy schemes.
    weights = np.array([0.1, 0.35, 0.05, 0.3, 0.2])
    count = weights.size
    reps = 12_000
    rng = substream(3, "unbiased", scheme)
    totals = np.zeros(count)
    for _ in range(reps):
        totals += np.bincount(resample(weights, scheme, rng), minlength=count)
    means = totals / reps
    expected = count * weights
    se = np.sqrt(count * weights * (1.0 - weights) / reps)
    np.testing.assert_array_less(np.abs(means - expected), 4.0 * se)


@pytest.mark.parametrize("scheme", RESAMPLING_SCHEMES)
def test_zero_weight_particles_are_never_selected(scheme):
    rng = substream(4, scheme)
    for _ in range(800):
        ancestors = resample([0.3, 0.0, 0.7, 0.4], scheme, rng)
        assert 1 not in ancestors


@settings(max_examples=30, deadline=None)
@given(
    raw=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12),
    scheme=st.sampled_from(RESAMPLING_SCHEMES),
    seed=st.integers(0, 1000),
)
def test_resample_returns_valid_indices(raw, scheme, seed):
    weights = np.asarray(raw)
    if weights.sum() <= 0.0:
        weights[0] = 1.0
    ancestors = resample(weights, scheme, substream(seed, "prop"))
    assert ancestors.shape == (weights.size,)
    assert ancestors.min() >= 0 and ancestors.max() < weights.size
    assert not np.any(weights[ancestors] == 0.0)


def test_resample_validation():
    rng = substream(0, "val")
    with pytest.raises(ParameterError):
        resample([-0.1, 0.5], "multinomial", rng)
    with pytest.raises(ParameterError):
        resample([np.inf, 0.5], "multinomial", rng)
    with pytest.raises(ParameterError):
        resample([np.nan, 0.5], "multinomial", rng)
    with pytest.raises(DegenerateWeightsError):
        resample([0.0, 0.0], "systematic", rng)
    with pytest.raises(ParameterError):
        resample([1.0, 1.0], "bootstrap", rng)


# ---------------------------------------------------------------------------
# Particle filter


@pytest.mark.parametrize("scheme", RESAMPLING_SCHEMES)
@pytest.mark.parametrize("n_particles", [1, 7, 64])
def test_unit_potential_normalizer_is_exactly_one(scheme, n_particles):
    model = UnitPotentialModel(n=6)
    cloud, estimate = run_particle_filter(
        model, n_particles, scheme=scheme, rng=substream(5, scheme, n_particles)
    )
    assert cloud.log_normalizer == 0.0
    assert estimate.log_normalizer == 0.0
    assert estimate.normalizer == 1.0


def test_likelihood_estimate_is_unbiased_for_reference_model():
    fk = lgssm_feynman_kac(scalar_ssm())
    reps, n_particles = 48, 4096
    rng = substream(6, "unbiased_pf")
    estimates = np.array(
        [run_particle_filter(fk, n_particles, rng=rng)[1].normalizer for _ in range(reps)]
    )
    target = math.exp(REFERENCE_LOGLIK)
    se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - target) < 4.0 * se
    assert se / target < 0.02  # at this particle count the estimate is tight


def test_smoother_functionals_and_self_normalization():
    fk = lgssm_feynman_kac(scalar_ssm())
    phi = (lambda states: states, lambda states: np.ones(states.shape[0]))
    _, est = run_particle_filter(fk, 512, rng=substream(8, "functionals"), test_functions=phi)
    assert est.values.shape == (2,)
    # the constant-1 functional reproduces the normalizer
    assert est.values[1] == pytest.approx(est.normalizer, rel=1e-12)
    assert est.self_normalized[1] == pytest.approx(1.0, rel=1e-12)
    assert est.self_normalized[0] == pytest.approx(est.values[0] / est.normalizer, rel=1e-12)


class _CollapsingModel(FeynmanKacModel):
    """All potentials vanish at step 1."""

    n = 2

    def sample_initial(self, size, rng):
        return rng.standard_normal(size)

    def sample_transition(self, p, x, rng):
        return x

    def log_potential(self, p, x):
        value = -np.inf if p == 1 else 0.0
        return np.full(x.shape[0], value)


def test_collapse_yields_zero_normalizer_not_an_error():
    cloud, est = run_particle_filter(
        _CollapsingModel(), 16, rng=substream(9, "collapse"), test_functions=(lambda x: x,)
    )
    assert cloud.log_normalizer == -np.inf
    assert est.normalizer == 0.0
    np.testing.assert_array_equal(est.values, 0.0)
    np.testing.assert_array_equal(est.self_normalized, 0.0)
    np.testing.assert_array_equal(cloud.final_weights, 0.0)


class _NanPotentialModel(FeynmanKacModel):
    n = 1

    def sample_initial(self, size, rng):
        return rng.standard_normal(size)

    def sample_transition(self, p, x, rng):
        return x

    def log_potential(self, p, x):
        return np.full(x.shape[0], np.nan)


def test_nan_potential_raises():
    with pytest.raises(ModelEvaluationError):
        run_particle_filter(_NanPotentialModel(), 8, rng=substream(10, "nan"))


def test_particle_count_validation():
    with pytest.raises(ParameterError):
        run_particle_filter(UnitPotentialModel(), 0, rng=substream(0, "z"))


# ---------------------------------------------------------------------------
# Ratio estimator


def test_ratio_estimate_single_replicate():
    fk = lgssm_feynman_kac(scalar_ssm())
    _, est = run_particle_filter(
        fk, 256, rng=substream(12, "single"), test_functions=(lambda x: x,)
    )
    point, se = ratio_estimate([est], 0)
    assert point == pytest.approx(est.self_normalized[0], rel=1e-12)
    assert math.isnan(se)


def test_ratio_estimate_recovers_smoothed_mean():
    model = scalar_ssm()
    fk = lgssm_feynman_kac(model)
    rng = substream(13, "ratio")
    estimates = [
        run_particle_filter(fk, 256, rng=rng, test_functions=(lambda x: x,))[1]
        for _ in range(100)
    ]
    point, se = ratio_estimate(estimates, 0)
    target = kalman_smoother_means(model)[-1]
    assert se > 0
    assert abs(point - target) < 5.0 * se


def test_ratio_estimate_validation():
    with pytest.raises(ParameterError):
        ratio_estimate([], 0)
    from mcis.smc import SmootherEstimate

    dead = SmootherEstimate(
        values=np.zeros(1), log_normalizer=-np.inf, self_normalized=np.zeros(1)
    )
    with pytest.raises(DegenerateEstimatorError):
        ratio_estimate([dead, dead], 0)


# ---------------------------------------------------------------------------
# Coupled-difference filter


def test_identical_margins_give_exactly_zero():
    # Zero diffusion and zero drift freeze both paths at the shared
    # initial state, so fine and coarse potentials agree bit-for-bit and
    # the difference estimate must be exactly 0.0 — not merely small.
    family = DiffusionFamily(
        dynamics=LinearDrift(sigma=0.0),
        interval=1.0,
        init_mean=0.0,
        init_sd=1.0,
        obs_coeff=1.0,
        obs_var=0.25,
        ys=np.asarray(YS_OU),
    )
    model = family.coupled_model([0.0], level=2)
    est = run_delta_pf(model, 32, rng=substream(14, "frozen"), test_functions=(lambda x: x,))
    assert est.value_one == 0.0
    np.testing.assert_array_equal(est.values, 0.0)


def test_delta_cost_counts_substeps_times_particles(monkeypatch):
    # the one cost formula, multilevel.particle_substeps, is the number
    # of Euler substeps times particles a coupled run executes
    executed = []
    interval = diffusion.coupled_euler_interval

    def counted(model, x_fine, x_coarse, rng):
        executed.append(len(x_fine) * (model.fine.substeps + model.coarse.substeps))
        return interval(model, x_fine, x_coarse, rng)

    monkeypatch.setattr(diffusion, "coupled_euler_interval", counted)
    model = ou_family().coupled_model([OU_DRIFT], level=2)
    est = run_delta_pf(model, 16, rng=substream(15, "cost"))
    n_intervals = len(YS_OU) - 1
    schedule = build_schedule(rho=0.0, n_base=16)  # 16 particles at every level
    assert sum(executed) == particle_substeps(schedule, 2, n_intervals)
    assert sum(executed) == 16 * n_intervals * (4 + 2)
    assert est.level == 2


def test_delta_mean_matches_per_level_likelihood_difference():
    family = ou_family()
    level = 1
    fine = ou_level_lgssm(family, [OU_DRIFT], level)
    coarse = ou_level_lgssm(family, [OU_DRIFT], level - 1)
    target_one = math.exp(kalman_loglik(fine)) - math.exp(kalman_loglik(coarse))
    target_phi = math.exp(kalman_loglik(fine)) * kalman_smoother_means(fine)[-1] - math.exp(
        kalman_loglik(coarse)
    ) * kalman_smoother_means(coarse)[-1]

    model = family.coupled_model([OU_DRIFT], level)
    rng = substream(16, "delta_mean")
    reps = 3000
    ones = np.empty(reps)
    phis = np.empty(reps)
    for r in range(reps):
        est = run_delta_pf(model, 64, rng=rng, test_functions=(lambda x: x,))
        ones[r] = est.value_one
        phis[r] = est.values[0]
    se_one = ones.std(ddof=1) / math.sqrt(reps)
    se_phi = phis.std(ddof=1) / math.sqrt(reps)
    assert abs(ones.mean() - target_one) < 4.0 * se_one
    assert abs(phis.mean() - target_phi) < 4.0 * se_phi
    # the increment is signed: individual draws land on both sides
    assert (ones < 0).any() and (ones > 0).any()


def test_delta_validation():
    family = ou_family()
    model = family.coupled_model([OU_DRIFT], level=1)
    with pytest.raises(ParameterError):
        run_delta_pf(model, 0, rng=substream(0, "d"))
