"""Likelihood-free inference: the tolerance-indicator chain, stochastic
tolerance adaptation, and post-hoc tolerance reduction.

The adaptation recursion is pinned by hand-computed worked examples
(deterministic stub simulators make every acceptance probability
exactly one), and the post-correction estimators by small traces whose
selected averages are simple fractions.  The chain itself is checked
against the closed-form tolerance-smoothed likelihood of the Gaussian
location toy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mcis.abc import (
    MIN_TOLERANCE,
    AbcTrace,
    ToleranceAdaptState,
    abc_confidence_interval,
    post_correct,
    post_correct_curve,
    run_abc_mcmc,
    run_tolerance_adaptation,
)
from mcis.diagnostics import series_stats
from mcis.errors import (
    EmptySelectionError,
    ModelEvaluationError,
    ParameterError,
)
from mcis.mcmc import ProposalState, UniformPrior
from mcis.models.abc_model import (
    AbcModel,
    GaussianLocationAbc,
    gaussian_abc_likelihood,
)
from mcis.rng import substream

from conftest import ZeroUniformGenerator


def _theta0(theta):
    return float(theta[0])


def _make_trace(values, distances, epsilon0=1.0):
    values = np.asarray(values, float)
    return AbcTrace(
        thetas=values.reshape(-1, 1),
        distances=np.asarray(distances, float),
        epsilon0=float(epsilon0),
        accepted=np.zeros(values.size, bool),
    )


class _ConstantDistanceModel(AbcModel):
    """Simulator whose draws always land at a fixed distance."""

    y_star = 0.0

    def __init__(self, value):
        self.value = float(value)

    def simulate(self, theta, rng):
        return self.value

    def distance(self, y, y_other):
        return abs(float(y) - float(y_other))


class _BrokenModel(AbcModel):
    y_star = 0.0

    def simulate(self, theta, rng):
        raise RuntimeError("simulator exploded")

    def distance(self, y, y_other):
        return 0.0


# ---------------------------------------------------------------------------
# Tolerance adaptation state


def test_adapt_state_first_update_is_exact():
    state = ToleranceAdaptState(log_epsilon=0.0)
    after = state.advance(1.0)
    assert after.log_epsilon == 0.1 - 1.0
    assert after.epsilon == math.exp(0.1 - 1.0)
    assert after.step == 2
    assert after.gamma == 2.0 ** (-2.0 / 3.0)


def test_adapt_state_rejects_non_probabilities():
    state = ToleranceAdaptState(log_epsilon=0.0)
    with pytest.raises(ParameterError):
        state.advance(-0.1)
    with pytest.raises(ParameterError):
        state.advance(1.1)


def test_tolerance_grows_while_nothing_accepts():
    state = ToleranceAdaptState(log_epsilon=-2.0, alpha_target=0.1)
    epsilons = []
    for _ in range(10):
        state = state.advance(0.0)
        epsilons.append(state.epsilon)
    assert all(b > a for a, b in zip(epsilons, epsilons[1:]))


# ---------------------------------------------------------------------------
# Fixed-tolerance chain


def test_chain_validation():
    model = GaussianLocationAbc()
    prior = UniformPrior(-2.0, 2.0)
    proposal = ProposalState.isotropic(1, sd=0.5)
    rng = substream(0, "abc")
    with pytest.raises(ParameterError):
        run_abc_mcmc(model, 0.0, prior, proposal, 10, rng)
    with pytest.raises(ParameterError):
        run_abc_mcmc(model, 1.0, prior, proposal, 0, rng)
    with pytest.raises(ParameterError):
        run_abc_mcmc(model, 1.0, prior, proposal, 10, rng, theta_init=[5.0])


def test_failing_simulator_is_wrapped():
    with pytest.raises(ModelEvaluationError, match="iteration 0"):
        run_abc_mcmc(
            _BrokenModel(),
            1.0,
            UniformPrior(-2.0, 2.0),
            ProposalState.isotropic(1, sd=0.5),
            10,
            substream(1, "abc"),
        )


def test_trace_structure_and_ball_invariant():
    trace = run_abc_mcmc(
        GaussianLocationAbc(sigma=1.0, y_star=0.3),
        0.8,
        UniformPrior(-2.0, 2.0),
        ProposalState.isotropic(1, sd=0.5),
        500,
        substream(2, "abc"),
    )
    assert len(trace) == 500
    assert trace.thetas.shape == (500, 1)
    assert trace.epsilon0 == 0.8
    assert trace.accept_count == int(trace.accepted.sum()) > 0
    # once something is accepted, every retained distance is in the ball
    first = int(np.argmax(trace.accepted))
    assert np.all(trace.distances[first:] <= 0.8)
    records = list(trace.to_records())
    assert records[0]["k"] == 1
    assert set(records[0]) == {"k", "theta", "distance", "accepted"}
    assert records[-1]["theta"] == trace.thetas[-1].tolist()


def test_chain_accepts_on_a_zero_uniform_draw():
    # u = 0.0 is a legal draw; log(u) = -inf accepts every in-ball move
    trace = run_abc_mcmc(
        GaussianLocationAbc(sigma=1.0, y_star=0.3),
        0.8,
        UniformPrior(-2.0, 2.0),
        ProposalState.isotropic(1, sd=0.5),
        50,
        ZeroUniformGenerator(4),
        theta_init=[0.3],
    )
    assert trace.accepted.any()
    first = int(np.argmax(trace.accepted))
    assert np.all(trace.distances[first:] <= 0.8)


def test_chain_targets_tolerance_smoothed_posterior():
    sigma, eps, y_star = 1.0, 1.0, 0.3
    trace = run_abc_mcmc(
        GaussianLocationAbc(sigma=sigma, y_star=y_star),
        eps,
        UniformPrior(-2.0, 2.0),
        ProposalState.isotropic(1, sd=0.8),
        20_000,
        substream(3, "abc"),
    )
    values = trace.thetas[500:, 0]
    stats = series_stats(values)
    se = math.sqrt(stats.asymptotic_variance / values.size)

    grid = np.linspace(-2.0, 2.0, 4001)
    like = gaussian_abc_likelihood(grid, sigma, eps, y_star)
    like[0] *= 0.5
    like[-1] *= 0.5
    target = float(np.sum(grid * like) / like.sum())
    assert abs(values.mean() - target) < 5.0 * se


# ---------------------------------------------------------------------------
# Tolerance adaptation


def test_adaptation_first_update_worked_example():
    result = run_tolerance_adaptation(
        _ConstantDistanceModel(0.0),
        UniformPrior(-1.0, 1.0),
        ProposalState.isotropic(1, sd=1e-12),
        n_burn=1,
        rng=substream(4, "adapt"),
        eps_init=1.0,
    )
    # acceptance probability is exactly one, so the single update moves
    # the log tolerance by 1 * (0.1 - 1.0)
    assert result.realized_alphas[0] == 1.0
    assert result.epsilons[0] == math.exp(0.1 - 1.0)
    assert result.epsilon == result.epsilons[-1]
    assert result.distance == 0.0
    assert result.proposal.frozen


def test_adaptation_recursion_matches_hand_rollout():
    result = run_tolerance_adaptation(
        _ConstantDistanceModel(0.0),
        UniformPrior(-1.0, 1.0),
        ProposalState.isotropic(1, sd=1e-12),
        n_burn=4,
        rng=substream(5, "adapt"),
        eps_init=1.0,
    )
    log_eps, expected = 0.0, []
    for step in (1, 2, 3, 4):
        log_eps = log_eps + float(step) ** (-2.0 / 3.0) * (0.1 - 1.0)
        expected.append(math.exp(log_eps))
    np.testing.assert_array_equal(result.epsilons, expected)
    np.testing.assert_array_equal(result.realized_alphas, np.ones(4))


def test_adaptation_default_tolerance_starts_at_first_distance():
    result = run_tolerance_adaptation(
        _ConstantDistanceModel(0.7),
        UniformPrior(-1.0, 1.0),
        ProposalState.isotropic(1, sd=1e-12),
        n_burn=1,
        rng=substream(6, "adapt"),
    )
    assert result.epsilons[0] == math.exp(math.log(0.7) + (0.1 - 1.0))


def test_adaptation_tolerance_floor_keeps_log_finite():
    # an exact simulator hit would put the log tolerance at -inf
    # without the floor
    result = run_tolerance_adaptation(
        _ConstantDistanceModel(0.0),
        UniformPrior(-1.0, 1.0),
        ProposalState.isotropic(1, sd=1e-12),
        n_burn=3,
        rng=substream(7, "adapt"),
        eps_init=None,
    )
    assert MIN_TOLERANCE == 1e-300
    assert np.all(result.epsilons > 0)
    assert np.all(np.isfinite(result.epsilons))


def test_adaptation_validation():
    model = _ConstantDistanceModel(0.0)
    prior = UniformPrior(-1.0, 1.0)
    proposal = ProposalState.isotropic(1, sd=0.5)
    with pytest.raises(ParameterError):
        run_tolerance_adaptation(model, prior, proposal, 0, substream(8, "adapt"))
    with pytest.raises(ParameterError):
        run_tolerance_adaptation(
            model, prior, proposal, 10, substream(8, "adapt"), alpha_target=0.0
        )
    with pytest.raises(ParameterError):
        run_tolerance_adaptation(
            model, prior, proposal, 10, substream(8, "adapt"), alpha_target=1.0
        )
    with pytest.raises(ParameterError):
        run_tolerance_adaptation(
            model, prior, proposal, 10, substream(8, "adapt"), eps_init=-1.0
        )


def test_adaptation_steers_acceptance_toward_target():
    result = run_tolerance_adaptation(
        GaussianLocationAbc(sigma=1.0, y_star=0.0),
        UniformPrior(-3.0, 3.0),
        ProposalState.isotropic(1, sd=0.5),
        n_burn=20_000,
        rng=substream(9, "adapt"),
        alpha_target=0.1,
    )
    late = result.realized_alphas[-5000:]
    assert 0.05 < late.mean() < 0.15
    assert result.proposal.frozen
    # the covariance adapted away from its initial value
    assert not np.allclose(result.proposal.covariance, 0.25 * np.eye(1))


# ---------------------------------------------------------------------------
# Post-correction


def test_post_correct_selected_averages():
    trace = _make_trace([1.0, 2.0, 3.0, 4.0], [0.5, 0.2, 0.8, 0.2])
    assert post_correct(trace, 0.5, _theta0) == (1.0 + 2.0 + 4.0) / 3
    assert post_correct(trace, 0.2, _theta0) == 3.0
    assert post_correct(trace, 1.0, _theta0) == 10.0 / 4


def test_post_correct_validation_and_empty_selection():
    trace = _make_trace([1.0, 2.0], [0.5, 0.2])
    with pytest.raises(ParameterError):
        post_correct(trace, 1.5, _theta0)
    with pytest.raises(ParameterError):
        post_correct(trace, 0.0, _theta0)
    with pytest.raises(EmptySelectionError) as err:
        post_correct(trace, 0.1, _theta0)
    assert err.value.min_distance == 0.2


def test_curve_breakpoints_and_values():
    trace = _make_trace([1.0, 2.0, 3.0, 4.0], [0.5, 0.2, 0.8, 0.2])
    curve = post_correct_curve(trace, _theta0)
    np.testing.assert_array_equal(curve.epsilons, [0.2, 0.5, 0.8])
    np.testing.assert_array_equal(curve.estimates, [3.0, 7.0 / 3, 10.0 / 4])
    pairs = list(curve)
    assert pairs[0] == (0.2, 3.0)


def test_curve_agrees_with_pointwise_bit_for_bit():
    trace = run_abc_mcmc(
        GaussianLocationAbc(sigma=1.0, y_star=0.3),
        0.9,
        UniformPrior(-2.0, 2.0),
        ProposalState.isotropic(1, sd=0.6),
        400,
        substream(10, "abc"),
    )

    def cubed(theta):
        return float(theta[0]) ** 3

    curve = post_correct_curve(trace, cubed)
    for eps, value in zip(curve.epsilons[::7], curve.estimates[::7]):
        assert post_correct(trace, float(eps), cubed) == value


def test_curve_nan_and_grid_validation():
    trace = _make_trace([1.0, 2.0], [0.5, 0.2])
    curve = post_correct_curve(trace, _theta0, grid=[0.05, 0.3])
    assert math.isnan(curve.estimates[0])
    assert curve.estimates[1] == 2.0
    with pytest.raises(ParameterError):
        post_correct_curve(trace, _theta0, grid="everything")
    empty = AbcTrace(
        thetas=np.zeros((0, 1)),
        distances=np.zeros(0),
        epsilon0=1.0,
        accepted=np.zeros(0, bool),
    )
    with pytest.raises(ParameterError):
        post_correct_curve(empty, _theta0)


def test_confidence_interval_arithmetic():
    values = np.arange(100, dtype=float) / 10.0
    distances = np.where(np.arange(100) % 2 == 0, 0.1, 0.9)
    trace = _make_trace(values, distances)
    report = abc_confidence_interval(trace, 0.5, _theta0)
    selected = values[distances <= 0.5]
    estimate = selected.mean()
    assert report.estimate == pytest.approx(estimate, rel=1e-15)
    deviations = selected - report.estimate
    assert report.function_variance == float(deviations @ deviations) / 50**2
    assert report.iact == series_stats(values).iact
    half = 1.96 * math.sqrt(report.iact * report.function_variance)
    assert report.lower == report.estimate - half
    assert report.upper == report.estimate + half
    assert report.width == report.upper - report.lower
    assert report.beta == 1.96
    assert report.epsilon == 0.5


def test_confidence_interval_validation():
    short = _make_trace(np.ones(99), np.full(99, 0.5))
    with pytest.raises(ParameterError):
        abc_confidence_interval(short, 0.5, _theta0)
    trace = _make_trace(np.ones(100), np.full(100, 0.5))
    with pytest.raises(ParameterError):
        abc_confidence_interval(trace, 2.0, _theta0)
    with pytest.raises(EmptySelectionError):
        abc_confidence_interval(trace, 0.1, _theta0)
