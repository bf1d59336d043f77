"""Randomized multilevel debiasing of discretized diffusion inference.

`debiased_increment` is the single-term estimator: it draws a random
level ``L`` from a schedule with unbounded support, runs the
coupled-difference filter at that level and divides by the level's
probability.  Its expectation is the exact-dynamics (infinite-
resolution) unnormalized smoother minus the level-0 one, so adding an
independent level-0 estimate gives an unbiased estimate of the former.

The two-phase driver is importance correction with a different weight
estimator: a level-0 marginal chain first (its likelihood is the
`ParticleSmootherRunner` over the level-0 model), then per state the
increment plus the phase-1 level-0 estimate over the regularized
level-0 likelihood: possibly negative weights, turned into samples and
an estimate by the same `mcis.is_correction` code as particle weights.
Costs are tracked in particle-substep units so efficiency
comparisons don't depend on wall-clock noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ResourceGuardError
from .is_correction import (
    IsEstimate,
    ParticleSmootherRunner,
    constant_one,
    correction_estimate,
    weighted_samples,
)
from .mcmc import JumpChain, _log_regularized, run_approx_marginal_chain
from .models.diffusion import DiffusionFamily
from .parallel import ordered_map
from .rng import KeyedStreams
from .smc import run_delta_pf

__all__ = [
    "LevelSchedule",
    "sample_level",
    "particle_substeps",
    "debiased_increment",
    "CostLedger",
    "ire",
    "MlmcIsResult",
    "run_mlmc_is",
    "DEFAULT_SUBSTEP_GUARD",
]

DEFAULT_SUBSTEP_GUARD = 1 << 31


# ---------------------------------------------------------------------------
# Level schedules


@dataclass(frozen=True, eq=False)
class LevelSchedule:
    """Probability mass over refinement levels 1, 2, 3, ...

    The plain variant is geometric: ``p(l) = (1 - q) q**(l-1)`` with
    ``q = 2**-(1 + rho)``, so every level has positive mass and the
    support is unbounded.  The log-factor variant multiplies in
    ``l * log2(l + 1)**eta`` (then renormalizes), trading slightly
    heavier level tails for finite-variance guarantees in rougher
    couplings.  Particle counts grow as ``n_base * 2**ceil(rho * l)``:
    ``rho = 0`` spends equal expected work per level; ``rho = 1``
    concentrates the draws on low levels and compensates with more
    particles per high-level run.
    """

    rho: float
    n_base: int
    variant: str = "plain"
    eta: float = 2.0
    _normalizer: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ParameterError("level exponent must lie in [0, 1]")
        if self.n_base < 1:
            raise ParameterError("base particle count must be >= 1")
        if self.variant not in ("plain", "log_factor"):
            raise ParameterError(f"unknown schedule variant {self.variant!r}")
        if self.variant == "log_factor":
            if self.eta <= 1.0:
                raise ParameterError("log-factor exponent must exceed 1")
            object.__setattr__(self, "_normalizer", self._sum_weights())

    @property
    def decay(self) -> float:
        """Geometric factor ``q`` of the plain part."""
        return 2.0 ** -(1.0 + self.rho)

    def _weight(self, level) -> float:
        base = (1.0 - self.decay) * self.decay ** (np.asarray(level) - 1)
        if self.variant == "plain":
            return base
        return base * level * np.log2(np.asarray(level) + 1.0) ** self.eta

    def _sum_weights(self) -> float:
        total = 0.0
        level = 1
        while True:
            w = float(self._weight(level))
            new_total = total + w
            if level > 8 and new_total == total:
                return new_total
            total = new_total
            level += 1

    def pmf(self, level) -> np.ndarray | float:
        """Probability of drawing ``level`` (vectorized)."""
        level = np.asarray(level)
        if np.any(level < 1):
            raise ParameterError("levels start at 1")
        return self._weight(level) / self._normalizer

    def particle_count(self, level: int) -> int:
        return self.n_base * 2 ** math.ceil(self.rho * level)


def sample_level(
    schedule: LevelSchedule, rng: np.random.Generator, size: int | None = None
):
    """Draw from the level distribution; support is unbounded.

    ``size=None`` returns a single int; an integer returns that many
    draws as an array.
    """
    if schedule.variant == "plain":
        u = rng.random(size)
        # inverse CDF of the geometric law on {1, 2, ...}
        raw = np.ceil(np.log1p(-u) / math.log(schedule.decay)).astype(np.int64)
        levels = np.maximum(raw, 1)
        return int(levels) if size is None else levels
    count = 1 if size is None else size
    out = np.empty(count, np.int64)
    for i in range(count):
        target = rng.random() * schedule._normalizer
        level, cumulative = 0, 0.0
        while cumulative < target:
            level += 1
            cumulative += float(schedule._weight(level))
        out[i] = max(level, 1)
    return int(out[0]) if size is None else out


def particle_substeps(schedule: LevelSchedule, level: int, n_intervals: int) -> int:
    """Work of one coupled run at ``level`` over ``n_intervals``
    observation intervals: each of the schedule's particles advances the
    fine path ``2**level`` and the coarse path ``2**(level - 1)``
    substeps per interval."""
    return schedule.particle_count(level) * n_intervals * (2**level + 2 ** (level - 1))


# ---------------------------------------------------------------------------
# Single-term debiased increment


def debiased_increment(
    theta,
    schedule: LevelSchedule,
    family: DiffusionFamily,
    rng: np.random.Generator,
    test_functions: Sequence[Callable] = (),
) -> tuple[int, np.ndarray]:
    """One single-term draw of the debiased level increment.

    Draws a level from ``rng``, runs the coupled-difference filter there
    on the same generator with the schedule's particle count, and
    returns ``(level, [delta_1, delta_f...] / pmf(level))``: in
    expectation the exact-dynamics minus the level-0 unnormalized
    smoother of the constant and of each test function (callables of
    ``(theta, final states)``).  Add an independent level-0 estimate
    for an unbiased estimate of the exact-dynamics smoother.
    """
    level = sample_level(schedule, rng)
    delta = run_delta_pf(
        family.coupled_model(theta, level),
        schedule.particle_count(level),
        rng=rng,
        test_functions=[partial(f, theta) for f in test_functions],
    )
    values = np.concatenate([[delta.value_one], delta.values])
    return level, values / float(schedule.pmf(level))


# ---------------------------------------------------------------------------
# Cost accounting


@dataclass(frozen=True, eq=False)
class CostLedger:
    """Per-iteration compute costs in particle-substep units.

    ``costs[k]`` is the work attributed to chain iteration ``k``:
    level-0 filtering is spread uniformly, while each state's coupled
    difference run is booked at the first iteration of its holding
    block.
    """

    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, float)
        if costs.ndim != 1 or costs.size == 0:
            raise ParameterError("ledger needs a nonempty 1-d cost sequence")
        if np.any(costs < 0):
            raise ParameterError("costs must be nonnegative")
        object.__setattr__(self, "costs", costs)

    def __len__(self) -> int:
        return self.costs.size

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())


def ire(ledger: CostLedger, asvar: float) -> float:
    """Inverse relative efficiency: mean iteration cost times the
    estimator's asymptotic variance (lower is better)."""
    return ledger.mean_cost * asvar


# ---------------------------------------------------------------------------
# Two-phase driver


def _check_levels(schedule, levels, n_intervals, guard):
    """Particle-substeps of each state's coupled run; one
    ResourceGuardError names every state (numbered from 1, as ``j`` in
    the trace) whose level needs more than ``guard``."""
    required = [particle_substeps(schedule, level, n_intervals) for level in levels]
    over = {}
    for j, (level, need) in enumerate(zip(levels, required), start=1):
        if need > guard:
            over.setdefault((level, need), []).append(j)
    if over:
        parts = "; ".join(
            f"level {level} needs {need} (jump states {', '.join(map(str, states))})"
            for (level, need), states in sorted(over.items())
        )
        level, need = max(over)
        raise ResourceGuardError(
            f"sampled levels exceed the guard budget of {guard} particle-substeps "
            f"per run: {parts}; re-seed or raise the guard",
            level=level,
            required=need,
            budget=guard,
        )
    return required


def _increment_task(task):
    family, schedule, theta, funcs, streams, index = task
    # replays the level run_mlmc_is drew and checked; holding every
    # state's generator from then on would cost ~1.8 kB per state
    return debiased_increment(
        theta, schedule, family, streams.stream("mlmc", index), funcs
    )[1]


@dataclass(frozen=True, eq=False)
class MlmcIsResult:
    """Everything the debiased two-phase sampler produced."""

    jump_chain: JumpChain
    samples: list
    estimate: IsEstimate
    ledger: CostLedger
    levels: np.ndarray

    def iteration_records(self):
        """One JSON-safe dict per distinct state (phase-2 ledger)."""
        for j, sample in enumerate(self.samples):
            yield {
                "j": j + 1,
                "level": int(self.levels[j]),
                "holding_time": sample.multiplicity,
                "xi_one": sample.xi_one,
                "xi_f": sample.xi_functions.tolist(),
            }


def run_mlmc_is(
    prior,
    proposal,
    family: DiffusionFamily,
    schedule: LevelSchedule,
    eps_reg: float,
    n_iterations: int,
    streams: KeyedStreams,
    test_functions: Sequence[Callable],
    f_index: int = 0,
    n_burn: int = 0,
    n_workers: int = 1,
    substep_guard: int = DEFAULT_SUBSTEP_GUARD,
) -> MlmcIsResult:
    """Debiased posterior inference for the exact diffusion dynamics.

    Phase 1 runs the marginal chain against the level-0 particle
    likelihood (regularized by ``eps_reg``), keeping each accepted
    state's smoother output.  Phase 2 adds one `debiased_increment` per
    distinct state (streams keyed by state index, so worker count is
    irrelevant) to that level-0 output, giving possibly negative
    debiased weights; the self-normalized ratio estimates the
    posterior mean of ``test_functions[f_index]`` under the exact
    dynamics.  Test functions are callables of ``(theta, final
    states)``.

    Every level is the first draw of its state's stream, so all of them
    are drawn and checked against ``substep_guard`` before the first
    coupled run: one `ResourceGuardError` names every offending state.
    """
    if eps_reg <= 0:
        raise ParameterError(
            "debiased weights need a positive regularization: the level-0 "
            "normalizer can vanish where the exact likelihood does not"
        )
    # the level-0 smoother estimates are the payload: phase 2 reuses
    # them verbatim, so the weight denominators are the accepted
    # acceptance-ratio terms
    level_zero = ParticleSmootherRunner(
        partial(family.level_model, level=0),
        schedule.n_base,
        test_functions=(constant_one, *test_functions),
    )
    jump = run_approx_marginal_chain(
        prior,
        proposal,
        level_zero,
        eps_reg,
        n_iterations,
        streams.stream("phase1"),
        n_burn=n_burn,
    )

    levels = [sample_level(schedule, streams.stream("mlmc", j)) for j in range(len(jump))]
    block_costs = np.array(
        _check_levels(schedule, levels, family.n_intervals, substep_guard), float
    )
    funcs = tuple(test_functions)
    tasks = [
        (family, schedule, theta, funcs, streams, j) for j, theta in enumerate(jump.thetas)
    ]
    increments = ordered_map(_increment_task, tasks, n_workers=n_workers)

    xis = []
    for j, increment in enumerate(increments):
        denominator = math.exp(_log_regularized(jump.logliks[j], eps_reg))
        xis.append(((increment + jump.payloads[j].values) / denominator).reshape(1, -1))
    samples = weighted_samples(jump, xis)

    # phase-1 filtering is one level-0 run per iteration; each coupled
    # run is charged to the first iteration of its block
    level_zero_cost = schedule.n_base * family.n_intervals
    costs = np.full(jump.total_length, float(level_zero_cost))
    starts = np.concatenate([[0], np.cumsum(jump.holding_times)[:-1]])
    costs[starts] += block_costs
    ledger = CostLedger(costs=costs)

    return MlmcIsResult(
        jump_chain=jump,
        samples=samples,
        estimate=correction_estimate(jump, samples, f_index),
        ledger=ledger,
        levels=np.array(levels, np.int64),
    )
