"""Importance-sampling correction of the approximate marginal chain.

The load-bearing exactness property: a test function that is constant
at 1 flows through the same code path as the built-in unit function, so
its corrected estimate is exactly 1.0 and its variance decomposition is
exactly zero — no tolerance.  Weight computation is also checked for
worker-count invariance (bit-identical under 1 and 4 processes) and for
log-domain robustness when normalizers underflow as plain floats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mcis.diagnostics import series_stats
from mcis.errors import (
    DegenerateEstimatorError,
    ModelEvaluationError,
    ParameterError,
)
from mcis.is_correction import (
    IsEstimate,
    IsWeightedSample,
    McmcIsResult,
    ParticleSmootherRunner,
    compute_is_weights,
    constant_one,
    effective_sample_size,
    estimate_asvar_decomposition,
    run_mcmc_is,
    self_normalized_estimate,
    weight_residual_series,
)
from mcis.mcmc import (
    JumpChain,
    ProposalState,
    UniformPrior,
    run_approx_marginal_chain,
)
from mcis.models.fk import FeynmanKacModel
from mcis.models.lgssm import kalman_loglik, lgssm_feynman_kac
from mcis.rng import KeyedStreams

from conftest import YS_COEFF_06, lgssm_posterior_quadrature, scalar_ssm

UNIT_PRIOR = UniformPrior(0.0, 1.0)


def _scalar_family(theta):
    return lgssm_feynman_kac(scalar_ssm(coeff=float(theta[0]), ys=YS_COEFF_06))


def _theta_value(theta, states):
    return float(theta[0])


def _unit_function(theta, states):
    return 1.0


class _FlatModel(FeynmanKacModel):
    """One step (``n = 0``) whose potential is ``exp(log_potential)``
    at every state."""

    def __init__(self, log_potential):
        self.value = log_potential

    def sample_initial(self, size, rng):
        return np.zeros(size)

    def log_potential(self, p, x):
        return np.full(x.shape, self.value)


def _approx_inflated(theta, rng):
    return kalman_loglik(scalar_ssm(coeff=float(theta[0]), ys=YS_COEFF_06, obs_var=2.0))


def _short_jump(seed=21, n_iterations=80):
    return run_approx_marginal_chain(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _approx_inflated,
        eps_reg=0.0,
        n_iterations=n_iterations,
        rng=KeyedStreams(seed).stream("phase1"),
    )


def test_constant_one_is_one():
    assert constant_one(np.array([0.3]), None) == 1.0


# ---------------------------------------------------------------------------
# Weight computation


def test_unit_test_function_cancels_exactly():
    jump = _short_jump()
    runner = ParticleSmootherRunner(_scalar_family, n_particles=32)
    samples = compute_is_weights(
        jump, runner, 0.0, (_unit_function,), replicates=3, rng_streams=KeyedStreams(21)
    )
    for sample in samples:
        assert sample.xi_functions[0] == sample.xi_one
        np.testing.assert_array_equal(
            sample.xi_replicates[:, 1], sample.xi_replicates[:, 0]
        )
    assert self_normalized_estimate(samples, 0) == 1.0
    chain, correction = estimate_asvar_decomposition(jump, samples, 0)
    assert chain == 0.0
    assert correction == 0.0


def test_weights_key_streams_by_state_and_replicate():
    # Same jump chain, same seed: recomputation is bit-identical; a new
    # seed changes the weights.
    jump = _short_jump()
    runner = ParticleSmootherRunner(_scalar_family, n_particles=16)
    first = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=2, rng_streams=KeyedStreams(5)
    )
    second = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=2, rng_streams=KeyedStreams(5)
    )
    other = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=2, rng_streams=KeyedStreams(6)
    )
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.xi_replicates, b.xi_replicates)
    assert any(
        not np.array_equal(a.xi_replicates, c.xi_replicates)
        for a, c in zip(first, other)
    )


def test_weights_are_worker_count_invariant():
    jump = _short_jump(seed=22, n_iterations=60)
    runner = ParticleSmootherRunner(_scalar_family, n_particles=16)
    sequential = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=2,
        rng_streams=KeyedStreams(7), n_workers=1,
    )
    parallel = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=2,
        rng_streams=KeyedStreams(7), n_workers=4,
    )
    assert len(sequential) == len(parallel)
    for a, b in zip(sequential, parallel):
        np.testing.assert_array_equal(a.xi_replicates, b.xi_replicates)
        assert a.multiplicity == b.multiplicity


def test_log_domain_ratio_survives_underflow():
    # exp(-800) is 0.0 as a plain float; the weight must still come out
    # as exp(log_normalizer - log_denominator) = 1.
    jump = JumpChain(
        thetas=np.array([[0.5]]),
        logliks=np.array([-800.0]),
        holding_times=np.array([4]),
    )

    # one particle: the filter's log normalizer is exactly -800
    runner = ParticleSmootherRunner(lambda theta: _FlatModel(-800.0), n_particles=1)
    (sample,) = compute_is_weights(
        jump, runner, 0.0, (lambda theta, states: 0.3,), replicates=1,
        rng_streams=KeyedStreams(0),
    )
    assert sample.xi_one == 1.0
    assert sample.xi_functions[0] == pytest.approx(0.3, rel=1e-15)
    assert self_normalized_estimate([sample], 0) == pytest.approx(0.3, rel=1e-15)


def test_collapsed_exact_model_gives_degenerate_estimator():
    jump = JumpChain(
        thetas=np.array([[0.5]]),
        logliks=np.array([-1.0]),
        holding_times=np.array([2]),
    )

    collapsed = ParticleSmootherRunner(lambda theta: _FlatModel(-math.inf), n_particles=4)
    samples = compute_is_weights(
        jump, collapsed, 0.0, (_theta_value,), replicates=1,
        rng_streams=KeyedStreams(0),
    )
    with pytest.raises(DegenerateEstimatorError):
        self_normalized_estimate(samples, 0)
    assert effective_sample_size(samples) == 0.0


def test_weight_failure_reports_jump_state():
    jump = JumpChain(
        thetas=np.array([[0.5]]),
        logliks=np.array([-1.0]),
        holding_times=np.array([1]),
    )

    def broken_family(theta):
        raise ValueError("boom")

    broken = ParticleSmootherRunner(broken_family, n_particles=4)
    with pytest.raises(ModelEvaluationError, match="jump state 0"):
        compute_is_weights(jump, broken, 0.0, (), replicates=1,
                           rng_streams=KeyedStreams(0))


def test_compute_is_weights_validation():
    jump = _short_jump(seed=23, n_iterations=30)
    runner = ParticleSmootherRunner(_scalar_family, n_particles=8)
    with pytest.raises(ParameterError):
        compute_is_weights(jump, runner, 0.0, (), replicates=0,
                           rng_streams=KeyedStreams(0))
    with pytest.raises(ParameterError):
        compute_is_weights(jump, runner, -0.5, (), replicates=1,
                           rng_streams=KeyedStreams(0))
    dead = JumpChain(
        thetas=np.array([[0.5]]),
        logliks=np.array([-math.inf]),
        holding_times=np.array([1]),
    )
    with pytest.raises(ParameterError, match="eps_reg"):
        compute_is_weights(dead, runner, 0.0, (), replicates=1,
                           rng_streams=KeyedStreams(0))


# ---------------------------------------------------------------------------
# Estimators over weighted samples


def _sample(index, multiplicity, xi):
    xi = np.asarray(xi, float).reshape(1, -1)
    return IsWeightedSample(
        index=index,
        multiplicity=multiplicity,
        xi_one=float(xi[0, 0]),
        xi_functions=xi[0, 1:],
        replicates=1,
        xi_replicates=xi,
    )


def test_self_normalized_estimate_expands_holding_times():
    samples = [_sample(0, 3, [2.0, 4.0]), _sample(1, 1, [1.0, 8.0])]
    want = (3 * 4.0 + 8.0) / (3 * 2.0 + 1.0)
    assert self_normalized_estimate(samples, 0) == want
    with pytest.raises(ParameterError):
        self_normalized_estimate([], 0)


def test_effective_sample_size_counts_expanded_weights():
    equal = [_sample(0, 5, [0.5, 0.0]), _sample(1, 2, [0.5, 0.0])]
    assert effective_sample_size(equal) == 7.0
    single_atom = [_sample(0, 1, [3.0, 0.0]), _sample(1, 6, [0.0, 0.0])]
    assert effective_sample_size(single_atom) == 1.0


def test_asvar_decomposition_single_replicate_has_no_split():
    jump = _short_jump(seed=24, n_iterations=120)
    runner = ParticleSmootherRunner(_scalar_family, n_particles=16)
    samples = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=1, rng_streams=KeyedStreams(9)
    )
    total, correction = estimate_asvar_decomposition(jump, samples, 0)
    assert correction is None
    assert total >= 0.0
    residuals = weight_residual_series(samples, 0, self_normalized_estimate(samples, 0))
    assert total == series_stats(residuals).asymptotic_variance


def test_asvar_decomposition_components_sum_to_total():
    jump = _short_jump(seed=25, n_iterations=200)
    runner = ParticleSmootherRunner(_scalar_family, n_particles=16)
    samples = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=3, rng_streams=KeyedStreams(10)
    )
    chain, correction = estimate_asvar_decomposition(jump, samples, 0)
    assert chain >= 0.0 and correction >= 0.0
    estimate = self_normalized_estimate(samples, 0)
    multiplicities = np.array([s.multiplicity for s in samples])
    xi_one = np.array([s.xi_one for s in samples])
    mean_unit = float(np.sum(multiplicities * xi_one)) / multiplicities.sum()
    # loop reference: each replicate's residual, then their mean
    residuals = np.array(
        [
            np.mean((s.xi_replicates[:, 1] - estimate * s.xi_replicates[:, 0]) / mean_unit)
            for s in samples
        ]
    )
    np.testing.assert_array_equal(
        weight_residual_series(samples, 0, estimate), np.repeat(residuals, multiplicities)
    )
    total = series_stats(np.repeat(residuals, multiplicities)).asymptotic_variance
    assert chain + correction == pytest.approx(total, rel=1e-12)


def test_asvar_decomposition_validation():
    jump = _short_jump(seed=26, n_iterations=30)
    runner = ParticleSmootherRunner(_scalar_family, n_particles=8)
    samples = compute_is_weights(
        jump, runner, 0.0, (_theta_value,), replicates=1, rng_streams=KeyedStreams(11)
    )
    with pytest.raises(ParameterError):
        estimate_asvar_decomposition(jump, samples[:-1], 0)
    mixed = samples[:-1] + [
        IsWeightedSample(
            index=len(samples) - 1,
            multiplicity=samples[-1].multiplicity,
            xi_one=samples[-1].xi_one,
            xi_functions=samples[-1].xi_functions,
            replicates=2,
            xi_replicates=np.vstack([samples[-1].xi_replicates] * 2),
        )
    ]
    with pytest.raises(ParameterError):
        estimate_asvar_decomposition(jump, mixed, 0)


# ---------------------------------------------------------------------------
# End-to-end driver


def test_run_mcmc_is_recovers_posterior_mean():
    result = run_mcmc_is(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _approx_inflated,
        ParticleSmootherRunner(_scalar_family, n_particles=32),
        eps_reg=0.0,
        n_iterations=4000,
        streams=KeyedStreams(30),
        test_functions=(_theta_value,),
        n_burn=500,
        replicates=2,
    )
    assert isinstance(result, McmcIsResult)
    est = result.estimate
    grid, weights = lgssm_posterior_quadrature(YS_COEFF_06)
    target = float(grid @ weights)
    assert est.n_iterations == 3500
    assert abs(est.value - target) < 5.0 * est.standard_error
    assert est.asvar_total == est.asvar_chain + est.asvar_correction
    assert 0.0 < est.ess <= est.n_iterations
    assert est.replicates == 2


def test_run_mcmc_is_phase1_uses_named_stream():
    streams = KeyedStreams(31)
    result = run_mcmc_is(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _approx_inflated,
        ParticleSmootherRunner(_scalar_family, n_particles=8),
        eps_reg=0.0,
        n_iterations=150,
        streams=streams,
        test_functions=(_theta_value,),
        replicates=1,
    )
    jump = run_approx_marginal_chain(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _approx_inflated,
        eps_reg=0.0,
        n_iterations=150,
        rng=streams.stream("phase1"),
    )
    np.testing.assert_array_equal(result.jump_chain.thetas, jump.thetas)
    np.testing.assert_array_equal(result.jump_chain.holding_times, jump.holding_times)
    # single replicate: total variance reported without a split
    assert result.estimate.asvar_chain is None
    assert result.estimate.asvar_correction is None
    assert result.estimate.asvar_total is not None


def test_is_estimate_standard_error_handles_missing_variance():
    est = IsEstimate(
        value=1.0,
        asvar_total=None,
        asvar_chain=None,
        asvar_correction=None,
        ess=10.0,
        n_iterations=100,
        replicates=1,
    )
    assert math.isnan(est.standard_error)
