"""Metropolis machinery: priors, the adaptive random-walk proposal, the
pseudo-marginal sampler, delayed acceptance, and the approximate
marginal chain in jump form.

Two structural identities are checked bit-for-bit, relying on the fact
that with a deterministic likelihood evaluator all three drivers draw
random numbers in the same order: delayed acceptance with the exact
model as its own screen reproduces the pseudo-marginal chain state for
state, and the expanded jump chain reproduces it as well.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mcis.diagnostics import series_stats
from mcis.errors import InitializationError, ParameterError, SupportConditionError
from mcis.is_correction import ParticleSmootherRunner
from mcis.mcmc import (
    ChainTrace,
    GaussianPrior,
    JumpChain,
    LikelihoodEvaluation,
    ProposalState,
    UniformPrior,
    _as_evaluation,
    adapt_covariance,
    propose,
    run_approx_marginal_chain,
    run_delayed_acceptance,
    run_pmmh,
)
from mcis.models.lgssm import kalman_loglik, lgssm_feynman_kac
from mcis.rng import substream

from conftest import (
    YS_COEFF_06,
    ZeroUniformGenerator,
    lgssm_posterior_quadrature,
    scalar_ssm,
)


def _kalman_evaluator(ys=YS_COEFF_06, inflate=1.0):
    """Deterministic log-likelihood of the transition coefficient."""

    def evaluate(theta, rng):
        return kalman_loglik(scalar_ssm(coeff=float(theta[0]), ys=ys, obs_var=inflate))

    return evaluate


UNIT_PRIOR = UniformPrior(0.0, 1.0)


# ---------------------------------------------------------------------------
# Priors


def test_uniform_prior_density():
    prior = UniformPrior([0.0, -1.0], [1.0, 1.0])
    assert prior.dim == 2
    assert prior.log_density([0.5, 0.0]) == pytest.approx(-math.log(2.0))
    assert prior.log_density([0.5, 1.5]) == -math.inf
    assert prior.log_density([-0.1, 0.0]) == -math.inf


def test_uniform_prior_sampling():
    prior = UniformPrior(-2.0, 3.0)
    draws = np.array([prior.sample(substream(0, "u", i))[0] for i in range(4000)])
    assert draws.min() >= -2.0 and draws.max() <= 3.0
    assert draws.mean() == pytest.approx(0.5, abs=4 * 5 / math.sqrt(12 * 4000))


def test_uniform_prior_validation():
    with pytest.raises(ParameterError):
        UniformPrior(1.0, 1.0)
    with pytest.raises(ParameterError):
        UniformPrior([0.0, 2.0], [1.0, 1.0])


def test_gaussian_prior_density_matches_formula():
    prior = GaussianPrior([1.0, -2.0], [0.5, 2.0])
    theta = np.array([1.3, 0.4])
    want = sum(
        -0.5 * ((t - m) / s) ** 2 - math.log(s) - 0.5 * math.log(2 * math.pi)
        for t, m, s in zip(theta, [1.0, -2.0], [0.5, 2.0])
    )
    assert prior.log_density(theta) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ParameterError):
        GaussianPrior(0.0, 0.0)


def test_gaussian_prior_sampling_moments():
    prior = GaussianPrior(2.0, 1.5)
    draws = np.array([prior.sample(substream(1, "g", i))[0] for i in range(4000)])
    assert draws.mean() == pytest.approx(2.0, abs=4 * 1.5 / math.sqrt(4000))
    assert draws.std() == pytest.approx(1.5, rel=0.06)


# ---------------------------------------------------------------------------
# Proposal and adaptation


def test_isotropic_proposal_state():
    prop = ProposalState.isotropic(3, sd=0.2)
    assert prop.dim == 3
    np.testing.assert_allclose(prop.covariance, 0.04 * np.eye(3))
    assert prop.scale == pytest.approx(2.38**2 / 3)
    assert not prop.frozen


def test_propose_moments():
    prop = ProposalState.isotropic(1, sd=0.7)
    current = np.array([1.0])
    rng = substream(2, "prop")
    draws = np.array([propose(current, prop, rng)[0] for _ in range(6000)])
    assert draws.mean() == pytest.approx(1.0, abs=4 * 0.7 / math.sqrt(6000))
    assert draws.std() == pytest.approx(0.7, rel=0.05)


def test_frozen_proposal_is_not_adapted():
    prop = ProposalState.isotropic(1).freeze()
    assert adapt_covariance(prop, np.array([5.0]), 3) is prop


def test_adaptation_collapses_on_constant_samples():
    # With a constant sample the covariance estimate decays to the
    # jitter floor: the proposal never degenerates to exactly zero.
    prop = ProposalState.isotropic(1, sd=1.0)
    x = np.array([1.5])
    for k in range(1, 3001):
        prop = adapt_covariance(prop, x, k)
    np.testing.assert_allclose(prop.covariance, 1e-10 * np.eye(1), rtol=1e-2)
    np.testing.assert_allclose(prop.mean, x, rtol=1e-6)


def test_adaptation_tracks_iid_target_covariance():
    # Feeding iid N(0, I) samples should drive the proposal covariance
    # to scale * I with the classic 2.38^2 / dim factor.
    dim = 2
    prop = ProposalState.isotropic(dim, sd=0.1)
    rng = substream(3, "adapt")
    for k in range(1, 50_001):
        prop = adapt_covariance(prop, rng.standard_normal(dim), k)
    want = (2.38**2 / dim) * np.eye(dim)
    np.testing.assert_allclose(np.diag(prop.covariance), np.diag(want), rtol=0.10)
    assert abs(prop.covariance[0, 1]) < 0.15


def test_adaptation_step_validation():
    with pytest.raises(ParameterError):
        adapt_covariance(ProposalState.isotropic(1), np.array([0.0]), 0)


# ---------------------------------------------------------------------------
# Likelihood evaluation plumbing


def test_particle_runner_returns_evaluation():
    runner = ParticleSmootherRunner(
        lambda theta: lgssm_feynman_kac(scalar_ssm(coeff=float(theta[0]))),
        n_particles=64,
        test_functions=(lambda theta, states: states,),
    )
    estimate = runner(np.array([0.9]), substream(4, "runner"))
    ev = _as_evaluation(estimate)
    assert isinstance(ev, LikelihoodEvaluation)
    assert ev.log_likelihood == estimate.log_normalizer
    assert math.isfinite(ev.log_likelihood)
    assert ev.functional == estimate.self_normalized[0]
    assert math.isfinite(ev.functional)
    assert ev.payload is estimate


def test_particle_runner_without_test_function():
    runner = ParticleSmootherRunner(
        lambda theta: lgssm_feynman_kac(scalar_ssm(coeff=float(theta[0]))),
        n_particles=32,
    )
    ev = _as_evaluation(runner(np.array([0.5]), substream(5, "runner2")))
    assert math.isnan(ev.functional)


# ---------------------------------------------------------------------------
# Pseudo-marginal chain


def test_pmmh_recovers_posterior_mean_deterministic_likelihood():
    # With the exact Kalman likelihood the sampler is plain Metropolis;
    # its long-run mean must match dense-grid quadrature.
    trace, _ = run_pmmh(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.25),
        _kalman_evaluator(),
        n_iterations=12_000,
        rng=substream(6, "pmmh"),
        n_burn=1000,
    )
    grid, weights = lgssm_posterior_quadrature(YS_COEFF_06)
    target = float(grid @ weights)
    series = trace.post_burn_in()[:, 0]
    stats = series_stats(series)
    assert abs(series.mean() - target) < 5.0 * stats.standard_error
    assert 0.1 < trace.acceptance_rate < 0.9


def test_pmmh_accepts_every_negligible_move():
    trace, _ = run_pmmh(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=1e-12),
        _kalman_evaluator(),
        n_iterations=200,
        rng=substream(7, "tiny"),
    )
    assert trace.accepted.all()
    assert trace.acceptance_rate == 1.0


def test_pmmh_skips_evaluation_outside_prior_support():
    evaluated = []

    def counting(theta, rng):
        evaluated.append(float(theta[0]))
        return kalman_loglik(scalar_ssm(coeff=float(theta[0]), ys=YS_COEFF_06))

    trace, _ = run_pmmh(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=50.0),
        counting,
        n_iterations=100,
        rng=substream(8, "skip"),
    )
    assert all(0.0 <= t <= 1.0 for t in evaluated)
    assert len(evaluated) <= 20  # nearly every proposal misses the support
    assert np.all((trace.thetas >= 0.0) & (trace.thetas <= 1.0))


def test_pmmh_accepts_on_a_zero_uniform_draw():
    # u = 0.0 is a legal draw; log(u) = -inf accepts every finite ratio
    evaluated = []

    def counting(theta, rng):
        evaluated.append(float(theta[0]))
        return kalman_loglik(scalar_ssm(coeff=float(theta[0]), ys=YS_COEFF_06))

    trace, _ = run_pmmh(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        counting,
        n_iterations=40,
        rng=ZeroUniformGenerator(12),
    )
    # the initial state plus every in-support proposal, each accepted
    assert int(trace.accepted.sum()) == len(evaluated) - 1 > 0


def test_pmmh_estimate_is_post_burn_functional_mean():
    runner = ParticleSmootherRunner(
        lambda theta: lgssm_feynman_kac(scalar_ssm(coeff=float(theta[0]))),
        n_particles=32,
        test_functions=(lambda theta, states: states,),
    )
    trace, estimate = run_pmmh(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        runner,
        n_iterations=60,
        rng=substream(9, "est"),
        n_burn=10,
    )
    assert estimate == pytest.approx(float(np.mean(trace.functionals[10:])), rel=1e-12)


def test_pmmh_initialization_cap():
    with pytest.raises(InitializationError):
        run_pmmh(
            UNIT_PRIOR,
            ProposalState.isotropic(1),
            lambda theta, rng: -math.inf,
            n_iterations=10,
            rng=substream(10, "fail"),
        )


def test_pmmh_iteration_validation():
    with pytest.raises(ParameterError):
        run_pmmh(
            UNIT_PRIOR,
            ProposalState.isotropic(1),
            _kalman_evaluator(),
            n_iterations=0,
            rng=substream(0, "v"),
        )


# ---------------------------------------------------------------------------
# Delayed acceptance


def test_da_with_exact_screen_reproduces_pmmh_bitwise():
    # Using the exact likelihood as its own stage-1 screen makes stage 2
    # a certain acceptance that consumes no randomness, so the chain
    # must equal the single-stage chain draw for draw, with and without
    # a burn-in.
    evaluator = _kalman_evaluator()
    for n_burn in (0, 50):
        kwargs = dict(n_iterations=800, n_burn=n_burn)
        da_trace, _ = run_delayed_acceptance(
            UNIT_PRIOR,
            ProposalState.isotropic(1, sd=0.3),
            evaluator,
            evaluator,
            eps_reg=0.0,
            rng=substream(11, "shared"),
            **kwargs,
        )
        pm_trace, _ = run_pmmh(
            UNIT_PRIOR,
            ProposalState.isotropic(1, sd=0.3),
            evaluator,
            rng=substream(11, "shared"),
            **kwargs,
        )
        np.testing.assert_array_equal(da_trace.thetas, pm_trace.thetas)
        np.testing.assert_array_equal(da_trace.accepted, pm_trace.accepted)


def test_da_payload_probabilities_are_consistent():
    trace, _ = run_delayed_acceptance(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _kalman_evaluator(inflate=2.0),
        _kalman_evaluator(),
        eps_reg=0.0,
        n_iterations=400,
        rng=substream(12, "payload"),
        diagnostic_stage2=True,
    )
    assert len(trace.payloads) == 400
    for record in trace.payloads:
        assert record["log_stage1"] <= 0.0
        assert record["log_stage2"] is not None  # diagnostic mode fills every row
        assert record["log_stage2"] <= 0.0
        assert record["log_pmmh"] <= 0.0
        # two-stage acceptance never beats the single-stage probability
        assert record["log_stage1"] + record["log_stage2"] <= record["log_pmmh"] + 1e-15


def test_da_stage2_skipped_on_screen_rejection_by_default():
    trace, _ = run_delayed_acceptance(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.6),
        _kalman_evaluator(inflate=2.0),
        _kalman_evaluator(),
        eps_reg=0.0,
        n_iterations=600,
        rng=substream(13, "lazy"),
    )
    skipped = [p for p in trace.payloads if p["log_stage2"] is None]
    assert skipped  # some screen rejections occurred
    for record in skipped:
        assert record["log_pmmh"] is None


def test_da_zero_prior_proposal_payload():
    trace, _ = run_delayed_acceptance(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=1000.0),
        _kalman_evaluator(inflate=2.0),
        _kalman_evaluator(),
        eps_reg=0.0,
        n_iterations=60,
        rng=substream(14, "zero"),
    )
    outside = [p for p in trace.payloads if p["log_stage1"] == -math.inf]
    assert outside
    for record in outside:
        assert record["log_stage2"] == 0.0
        assert record["log_pmmh"] == -math.inf


def test_da_support_condition_enforced():
    def truncated_approx(theta, rng):
        if theta[0] > 0.5:
            return -math.inf
        return kalman_loglik(scalar_ssm(coeff=float(theta[0]), ys=YS_COEFF_06))

    with pytest.raises(SupportConditionError):
        run_delayed_acceptance(
            UNIT_PRIOR,
            ProposalState.isotropic(1, sd=1.0),
            truncated_approx,
            _kalman_evaluator(),
            eps_reg=0.0,
            n_iterations=400,
            rng=substream(15, "support"),
            diagnostic_stage2=True,
        )
    # a positive regularizer withdraws the support assertion
    run_delayed_acceptance(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=1.0),
        truncated_approx,
        _kalman_evaluator(),
        eps_reg=0.1,
        n_iterations=400,
        rng=substream(15, "support"),
        diagnostic_stage2=True,
    )


def test_da_posterior_mean_with_inflated_screen():
    # The screen only modulates which proposals reach stage 2; the
    # stationary law is still the exact posterior.
    trace, _ = run_delayed_acceptance(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _kalman_evaluator(inflate=2.0),
        _kalman_evaluator(),
        eps_reg=0.0,
        n_iterations=10_000,
        rng=substream(16, "da_mean"),
        n_burn=1000,
    )
    grid, weights = lgssm_posterior_quadrature(YS_COEFF_06)
    target = float(grid @ weights)
    series = trace.post_burn_in()[:, 0]
    stats = series_stats(series)
    assert abs(series.mean() - target) < 5.0 * stats.standard_error


def test_da_validation():
    with pytest.raises(ParameterError):
        run_delayed_acceptance(
            UNIT_PRIOR,
            ProposalState.isotropic(1),
            _kalman_evaluator(),
            _kalman_evaluator(),
            eps_reg=-0.1,
            n_iterations=10,
            rng=substream(0, "v"),
        )


# ---------------------------------------------------------------------------
# Approximate marginal chain in jump form


def test_jump_chain_expansion_reproduces_pmmh_bitwise():
    # with n_burn > 0 the first kept iteration opens a block even when
    # it rejected, so the expansion starts at the post-burn-in chain
    evaluator = _kalman_evaluator()
    for n_burn in (0, 50):
        jump = run_approx_marginal_chain(
            UNIT_PRIOR,
            ProposalState.isotropic(1, sd=0.3),
            evaluator,
            eps_reg=0.0,
            n_iterations=600,
            rng=substream(17, "jump"),
            n_burn=n_burn,
        )
        trace, _ = run_pmmh(
            UNIT_PRIOR,
            ProposalState.isotropic(1, sd=0.3),
            evaluator,
            n_iterations=600,
            rng=substream(17, "jump"),
            n_burn=n_burn,
        )
        np.testing.assert_array_equal(jump.expand_thetas(), trace.post_burn_in())
        np.testing.assert_array_equal(
            jump.logliks, trace.logliks[n_burn:][np.cumsum(jump.holding_times) - 1]
        )


def test_jump_chain_structure():
    jump = run_approx_marginal_chain(
        UNIT_PRIOR,
        ProposalState.isotropic(1, sd=0.3),
        _kalman_evaluator(),
        eps_reg=0.0,
        n_iterations=500,
        rng=substream(18, "structure"),
        n_burn=100,
    )
    assert jump.total_length == 400
    assert jump.holding_times.min() >= 1
    assert len(jump) == len(jump.payloads) == jump.logliks.shape[0]
    # consecutive jump states are distinct
    if len(jump) > 1:
        assert np.all(np.any(np.diff(jump.thetas, axis=0) != 0.0, axis=1))
    assert jump.expand_thetas().shape == (400, 1)


def test_jump_chain_validation():
    with pytest.raises(ParameterError):
        JumpChain(
            thetas=np.zeros((2, 1)),
            logliks=np.zeros(2),
            holding_times=np.array([1, 0]),
        )
    with pytest.raises(ParameterError):
        run_approx_marginal_chain(
            UNIT_PRIOR,
            ProposalState.isotropic(1),
            _kalman_evaluator(),
            eps_reg=0.0,
            n_iterations=10,
            rng=substream(0, "v"),
            n_burn=10,
        )
    with pytest.raises(ParameterError):
        run_approx_marginal_chain(
            UNIT_PRIOR,
            ProposalState.isotropic(1),
            _kalman_evaluator(),
            eps_reg=-1.0,
            n_iterations=10,
            rng=substream(0, "v"),
        )


def test_chain_trace_records():
    trace = ChainTrace(
        thetas=np.array([[0.1], [0.2]]),
        logliks=np.array([-1.0, -2.0]),
        accepted=np.array([True, False]),
        functionals=np.array([0.5, 0.6]),
    )
    records = list(trace.to_records())
    assert records[0] == {
        "k": 1,
        "theta": [0.1],
        "loglik_hat": -1.0,
        "accepted": True,
    }
    assert len(trace) == 2
