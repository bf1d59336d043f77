"""Randomized multilevel debiasing: level schedules, the single-term
debiased smoother estimate, cost accounting, and the two-phase driver.

Level probabilities at the two decay-exponent endpoints are dyadic
rationals, so their values are asserted exactly; the single-term
estimate is pinned against a hand-rolled replay of its documented
draw order (level, coupled run, level-0 run on one generator).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mcis.errors import (
    ParameterError,
    ResourceGuardError,
)
from mcis.mcmc import ProposalState, UniformPrior
from mcis.models.diffusion import ou_exact_lgssm, ou_level_lgssm
from mcis.models.lgssm import kalman_loglik
from mcis.multilevel import (
    CostLedger,
    LevelSchedule,
    build_schedule,
    ire,
    particle_substeps,
    randomized_smoother_estimate,
    realized_length,
    run_mlmc_is,
    sample_level,
)
from mcis.rng import KeyedStreams, substream
from mcis.smc import run_delta_pf, run_particle_filter

from conftest import OU_DRIFT, YS_OU, ou_family


def _theta_value(theta, states):
    return float(theta[0])


# ---------------------------------------------------------------------------
# Level schedules


def test_plain_pmf_is_exactly_dyadic_at_endpoints():
    flat = build_schedule(rho=0.0, n_base=4)
    assert flat.decay == 0.5
    assert float(flat.pmf(1)) == 0.5
    assert float(flat.pmf(3)) == 0.125
    steep = build_schedule(rho=1.0, n_base=4)
    assert steep.decay == 0.25
    assert float(steep.pmf(1)) == 0.75
    assert float(steep.pmf(2)) == 0.1875


def test_pmf_vectorizes_and_sums_to_one():
    for schedule in (
        build_schedule(rho=0.4, n_base=2),
        build_schedule(rho=0.4, n_base=2, variant="log_factor", eta=2.0),
    ):
        levels = np.arange(1, 300)
        mass = np.asarray(schedule.pmf(levels))
        assert mass.shape == levels.shape
        assert np.all(mass > 0)
        assert mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_particle_counts_double_with_the_exponent():
    assert build_schedule(rho=0.0, n_base=6).particle_count(9) == 6
    steep = build_schedule(rho=1.0, n_base=6)
    assert [steep.particle_count(l) for l in (1, 2, 3)] == [12, 24, 48]
    half = build_schedule(rho=0.5, n_base=6)
    assert [half.particle_count(l) for l in (1, 2, 3, 4)] == [12, 12, 24, 24]


def test_schedule_validation():
    with pytest.raises(ParameterError):
        build_schedule(rho=-0.1, n_base=4)
    with pytest.raises(ParameterError):
        build_schedule(rho=1.2, n_base=4)
    with pytest.raises(ParameterError):
        build_schedule(rho=0.5, n_base=0)
    with pytest.raises(ParameterError):
        LevelSchedule(rho=0.5, n_base=4, variant="harmonic")
    with pytest.raises(ParameterError):
        build_schedule(rho=0.5, n_base=4, variant="log_factor", eta=1.0)
    with pytest.raises(ParameterError):
        build_schedule(rho=0.5, n_base=4).pmf(0)


def test_sample_level_shapes():
    schedule = build_schedule(rho=0.5, n_base=4)
    single = sample_level(schedule, substream(0, "lvl"))
    assert isinstance(single, int) and single >= 1
    many = sample_level(schedule, substream(0, "lvl"), size=9)
    assert many.shape == (9,) and many.min() >= 1


def test_sample_level_frequencies_match_pmf():
    schedule = build_schedule(rho=0.0, n_base=4)
    draws = sample_level(schedule, substream(1, "freq"), size=100_000)
    for level in (1, 2, 3, 4):
        p = float(schedule.pmf(level))
        freq = float(np.mean(draws == level))
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(freq - p) < 4.0 * se


def test_log_factor_sampling_matches_pmf():
    schedule = build_schedule(rho=0.5, n_base=4, variant="log_factor", eta=2.0)
    draws = sample_level(schedule, substream(2, "logfreq"), size=20_000)
    for level in (1, 2, 3):
        p = float(schedule.pmf(level))
        freq = float(np.mean(draws == level))
        se = math.sqrt(p * (1 - p) / draws.size)
        assert abs(freq - p) < 4.0 * se


# ---------------------------------------------------------------------------
# Single-term debiased estimate


def test_randomized_estimate_replays_documented_draw_order():
    family = ou_family()
    schedule = build_schedule(rho=1.0, n_base=8)
    theta = [OU_DRIFT]
    phi = (lambda states: states,)

    est = randomized_smoother_estimate(
        theta, schedule, family, substream(3, "replay"), test_functions=phi
    )

    rng = substream(3, "replay")
    level = sample_level(schedule, rng)
    delta = run_delta_pf(
        family.coupled_model(theta, level),
        schedule.particle_count(level),
        rng=rng,
        test_functions=phi,
    )
    _, zero = run_particle_filter(
        family.level_model(theta, 0), schedule.n_base, rng=rng, test_functions=phi
    )
    probability = float(schedule.pmf(level))
    assert est.level == level
    assert est.value_one == delta.value_one / probability + zero.normalizer
    np.testing.assert_array_equal(est.values, delta.values / probability + zero.values)
    delta_cost = particle_substeps(schedule, level, family.n_intervals)
    assert est.cost == delta_cost + schedule.n_base * family.n_intervals


class _AtomSchedule:
    """Stub schedule whose draw is always level 1 with probability one."""

    variant = "plain"
    decay = 1e-300
    n_base = 16
    rho = 0.0

    def pmf(self, level):
        return 1.0

    def particle_count(self, level):
        return self.n_base


def test_single_term_telescopes_to_the_sampled_level():
    # When the schedule puts all its mass on level 1 the debiased
    # estimate is delta(1) + level-0, whose mean is the level-1
    # likelihood exactly (the level-0 terms cancel in expectation).
    family = ou_family()
    schedule = _AtomSchedule()
    target = math.exp(kalman_loglik(ou_level_lgssm(family, [OU_DRIFT], 1)))
    rng = substream(4, "telescope")
    reps = 2500
    values = np.empty(reps)
    for r in range(reps):
        est = randomized_smoother_estimate([OU_DRIFT], schedule, family, rng)
        assert est.level == 1
        values[r] = est.value_one
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - target) < 4.0 * se


def test_randomized_estimate_is_unbiased_for_exact_dynamics():
    family = ou_family()
    schedule = build_schedule(rho=1.0, n_base=24)
    exact = ou_exact_lgssm(family, [OU_DRIFT])
    target = math.exp(kalman_loglik(exact))
    rng = substream(5, "debias")
    reps = 2500
    values = np.empty(reps)
    for r in range(reps):
        values[r] = randomized_smoother_estimate(
            [OU_DRIFT], schedule, family, rng
        ).value_one
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - target) < 4.0 * se
    # debiased draws are signed
    assert (values < 0).any() and (values > 0).any()


def test_resource_guard_reports_requirements():
    family = ou_family()
    schedule = build_schedule(rho=0.0, n_base=4)
    # level 1 already needs 4 * 4 * 3 = 48 particle-substeps
    with pytest.raises(ResourceGuardError) as err:
        randomized_smoother_estimate(
            [OU_DRIFT], schedule, family, substream(6, "guard"), substep_guard=47
        )
    assert err.value.budget == 47
    assert err.value.level >= 1
    assert err.value.required >= 48


# ---------------------------------------------------------------------------
# Cost accounting


def test_ledger_accounting():
    ledger = CostLedger(costs=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ledger.cumulative(), [1.0, 3.0, 6.0])
    assert ledger.total_cost == 6.0
    assert ledger.mean_cost == 2.0
    assert len(ledger) == 3


def test_ledger_validation():
    with pytest.raises(ParameterError):
        CostLedger(costs=[])
    with pytest.raises(ParameterError):
        CostLedger(costs=[[1.0, 2.0]])
    with pytest.raises(ParameterError):
        CostLedger(costs=[1.0, -2.0])


def test_realized_length_prefix_semantics():
    ledger = CostLedger(costs=[1.0, 2.0, 3.0])
    assert realized_length(ledger, 0.0) == 0
    assert realized_length(ledger, 0.99) == 0
    assert realized_length(ledger, 1.0) == 1
    assert realized_length(ledger, 5.9) == 2
    assert realized_length(ledger, 6.0) == 3
    assert realized_length(ledger, 1e9) == 3
    with pytest.raises(ParameterError):
        realized_length(ledger, -1.0)


def test_ire_is_mean_cost_times_asvar():
    assert ire(CostLedger(costs=[2.0, 4.0]), 0.5) == 1.5


# ---------------------------------------------------------------------------
# Two-phase debiased driver


def _exact_posterior_mean(family, lo=-1.0, hi=0.0, n_grid=801):
    grid = np.linspace(lo, hi, n_grid)
    logw = np.array(
        [kalman_loglik(ou_exact_lgssm(family, [t])) for t in grid]
    )
    weights = np.exp(logw - logw.max())
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(np.sum(grid * weights) / weights.sum())


def test_mlmc_requires_positive_regularization():
    with pytest.raises(ParameterError):
        run_mlmc_is(
            UniformPrior(-1.0, 0.0),
            ProposalState.isotropic(1, sd=0.2),
            ou_family(),
            build_schedule(rho=1.0, n_base=8),
            eps_reg=0.0,
            n_iterations=10,
            streams=KeyedStreams(0),
            test_functions=(_theta_value,),
        )


def test_mlmc_end_to_end_recovers_exact_posterior_mean():
    family = ou_family()
    result = run_mlmc_is(
        UniformPrior(-1.0, 0.0),
        ProposalState.isotropic(1, sd=0.25),
        family,
        build_schedule(rho=1.0, n_base=16),
        eps_reg=0.01,
        n_iterations=2000,
        streams=KeyedStreams(41),
        test_functions=(_theta_value,),
        n_burn=200,
    )
    est = result.estimate
    target = _exact_posterior_mean(family)
    assert est.n_iterations == 1800
    assert abs(est.value - target) < 5.0 * est.standard_error
    assert est.asvar_total == result.asvar
    assert est.asvar_chain is None and est.asvar_correction is None
    assert 0.0 < est.ess <= est.n_iterations
    assert len(result.ledger) == 1800
    assert result.levels.shape == (len(result.jump_chain),)
    records = list(result.iteration_records())
    assert len(records) == len(result.samples)
    assert records[0]["j"] == 1
    assert set(records[0]) == {"j", "level", "holding_time", "xi_one", "xi_f"}


def test_mlmc_worker_count_does_not_change_results():
    family = ou_family()
    kwargs = dict(
        prior=UniformPrior(-1.0, 0.0),
        proposal=ProposalState.isotropic(1, sd=0.25),
        family=family,
        schedule=build_schedule(rho=1.0, n_base=8),
        eps_reg=0.01,
        n_iterations=200,
        test_functions=(_theta_value,),
    )
    one = run_mlmc_is(streams=KeyedStreams(42), n_workers=1, **kwargs)
    four = run_mlmc_is(streams=KeyedStreams(42), n_workers=4, **kwargs)
    assert one.estimate.value == four.estimate.value
    np.testing.assert_array_equal(one.levels, four.levels)
    np.testing.assert_array_equal(one.ledger.costs, four.ledger.costs)
    for a, b in zip(one.samples, four.samples):
        np.testing.assert_array_equal(a.xi_replicates, b.xi_replicates)


def test_mlmc_cost_attribution_is_exact():
    family = ou_family()
    schedule = build_schedule(rho=1.0, n_base=8)
    result = run_mlmc_is(
        UniformPrior(-1.0, 0.0),
        ProposalState.isotropic(1, sd=0.25),
        family,
        schedule,
        eps_reg=0.01,
        n_iterations=300,
        streams=KeyedStreams(43),
        test_functions=(_theta_value,),
    )
    jump = result.jump_chain
    n = family.n_intervals
    level_zero = schedule.n_base * n
    starts = np.concatenate([[0], np.cumsum(jump.holding_times)[:-1]])
    costs = result.ledger.costs
    mask = np.zeros(costs.size, bool)
    mask[starts] = True
    np.testing.assert_array_equal(costs[~mask], float(level_zero))
    for j, start in enumerate(starts):
        level = int(result.levels[j])
        delta_cost = schedule.particle_count(level) * n * (2**level + 2 ** (level - 1))
        assert costs[start] == level_zero + delta_cost


def test_mlmc_guard_applies_to_phase_two():
    family = ou_family()
    schedule = build_schedule(rho=1.0, n_base=8)
    # even a level-1 draw needs 16 * 4 * 3 = 192 substeps
    with pytest.raises(ResourceGuardError):
        run_mlmc_is(
            UniformPrior(-1.0, 0.0),
            ProposalState.isotropic(1, sd=0.25),
            family,
            schedule,
            eps_reg=0.01,
            n_iterations=50,
            streams=KeyedStreams(44),
            test_functions=(_theta_value,),
            substep_guard=191,
        )
