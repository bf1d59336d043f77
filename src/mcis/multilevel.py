"""Randomized multilevel debiasing of discretized diffusion inference.

A single-term debiased estimate draws a random level ``L`` from a
schedule with unbounded support, runs the coupled-difference filter at
that level, divides by the level's probability, and adds an independent
level-0 estimate: in expectation the telescoping sum reproduces the
exact-dynamics (infinite-resolution) unnormalized smoother.

The two-phase driver follows the importance-correction pattern: a
level-0 marginal chain first, then per-state debiased weights that may
be negative.  Costs are tracked in particle-substep units so efficiency
comparisons don't depend on wall-clock noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import series_stats
from .errors import ParameterError, ResourceGuardError
from .is_correction import (
    IsEstimate,
    IsWeightedSample,
    constant_one,
    effective_sample_size,
    self_normalized_estimate,
    weight_residual_series,
    _BoundFunction,
)
from .mcmc import JumpChain, _log_regularized, run_approx_marginal_chain
from .models.diffusion import DiffusionFamily
from .parallel import ordered_map
from .rng import KeyedStreams
from .smc import run_delta_pf, run_particle_filter

__all__ = [
    "LevelSchedule",
    "build_schedule",
    "sample_level",
    "particle_substeps",
    "RandomizedEstimate",
    "randomized_smoother_estimate",
    "CostLedger",
    "realized_length",
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
    couplings.  Particle counts grow as ``n_base * 2**ceil(rho * l)``.
    """

    rho: float
    n_base: int
    variant: str = "plain"
    eta: float = 2.0
    _normalizer: float = 0.0

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
        weight = self._weight(level)
        if self.variant == "plain":
            return weight
        return weight / self._normalizer

    def particle_count(self, level: int) -> int:
        return self.n_base * 2 ** math.ceil(self.rho * level)


def build_schedule(
    rho: float,
    n_base: int,
    variant: str = "plain",
    eta: float = 2.0,
) -> LevelSchedule:
    """Level schedule with decay exponent ``rho`` in [0, 1].

    ``rho = 0`` spends equal expected work per level; ``rho = 1``
    concentrates the draws on low levels and compensates with more
    particles per high-level run.
    """
    return LevelSchedule(rho=rho, n_base=n_base, variant=variant, eta=eta)


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


def _check_guard(schedule, level, n_intervals, guard):
    required = particle_substeps(schedule, level, n_intervals)
    if required > guard:
        raise ResourceGuardError(
            f"sampled level {level} needs {required} particle-substeps, "
            f"over the guard budget {guard}; re-seed or raise the guard",
            level=level,
            required=required,
            budget=guard,
        )
    return required


# ---------------------------------------------------------------------------
# Single-term debiased smoother estimate


@dataclass(frozen=True, eq=False)
class RandomizedEstimate:
    """Debiased functionals of the exact-dynamics unnormalized smoother.

    ``value_one`` estimates the exact-model likelihood; ``values`` the
    declared test functions' unnormalized integrals.  Either may be
    negative.  ``cost`` counts particle-substeps actually executed.
    """

    values: np.ndarray
    value_one: float
    level: int
    cost: float


def randomized_smoother_estimate(
    theta,
    schedule: LevelSchedule,
    family: DiffusionFamily,
    rng: np.random.Generator,
    test_functions: Sequence[Callable] = (),
    substep_guard: int = DEFAULT_SUBSTEP_GUARD,
) -> RandomizedEstimate:
    """One unbiased draw of the debiased smoother functionals.

    Draws a level, runs the coupled-difference filter there with the
    schedule's particle count, divides by the level probability, and
    adds an independent level-0 filter estimate — all on the supplied
    generator, in that order.  Test functions take the final states
    ``(N,)`` and return per-particle values.
    """
    level = sample_level(schedule, rng)
    delta_cost = _check_guard(schedule, level, family.n_intervals, substep_guard)
    probability = float(schedule.pmf(level))
    delta = run_delta_pf(
        family.coupled_model(theta, level),
        schedule.particle_count(level),
        rng=rng,
        test_functions=test_functions,
    )
    _, zero = run_particle_filter(
        family.level_model(theta, 0),
        schedule.n_base,
        rng=rng,
        test_functions=test_functions,
    )
    zero_cost = schedule.n_base * family.n_intervals
    values = delta.values / probability + zero.values
    value_one = delta.value_one / probability + zero.normalizer
    return RandomizedEstimate(
        values=values,
        value_one=value_one,
        level=level,
        cost=float(delta_cost + zero_cost),
    )


# ---------------------------------------------------------------------------
# Cost accounting


@dataclass(frozen=True, eq=False)
class CostLedger:
    """Per-iteration compute costs in particle-substep units.

    ``costs[k]`` is the work attributed to chain iteration ``k``:
    level-0 filtering is spread uniformly, while each state's coupled
    difference run is booked at the first iteration of its holding
    block.  Cumulative cost is exact summation, so budget truncation is
    reproducible.
    """

    costs: np.ndarray
    budget: float | None = None

    def __post_init__(self):
        costs = np.asarray(self.costs, float)
        if costs.ndim != 1 or costs.size == 0:
            raise ParameterError("ledger needs a nonempty 1-d cost sequence")
        if np.any(costs < 0):
            raise ParameterError("costs must be nonnegative")
        object.__setattr__(self, "costs", costs)

    def __len__(self) -> int:
        return self.costs.size

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.costs)

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())


def realized_length(ledger: CostLedger, kappa: float) -> int:
    """Longest prefix of the chain affordable within budget ``kappa``."""
    if kappa < 0:
        raise ParameterError("budget must be nonnegative")
    return int(np.searchsorted(ledger.cumulative(), kappa, side="right"))


def ire(ledger: CostLedger, asvar: float) -> float:
    """Inverse relative efficiency: mean iteration cost times the
    estimator's asymptotic variance (lower is better)."""
    return ledger.mean_cost * asvar


# ---------------------------------------------------------------------------
# Two-phase driver


@dataclass(frozen=True, eq=False)
class _LevelZeroLikelihood:
    """Level-0 particle likelihood for the phase-1 chain (picklable).

    The payload is the full smoother estimate — its values are reused
    verbatim in phase 2, keeping the weight denominators identical to
    the accepted acceptance-ratio terms.
    """

    family: DiffusionFamily
    n_base: int
    test_functions: tuple
    scheme: str = "systematic"

    def __call__(self, theta, rng):
        funcs = [_BoundFunction(f, theta) for f in (constant_one, *self.test_functions)]
        _, estimate = run_particle_filter(
            self.family.level_model(theta, 0),
            self.n_base,
            scheme=self.scheme,
            rng=rng,
            test_functions=funcs,
        )
        return estimate.log_normalizer, estimate


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


def _delta_task(task):
    family, schedule, theta, funcs, streams, index = task
    rng = streams.stream("mlmc", index)
    # replays the level run_mlmc_is drew and checked; holding every
    # state's generator from then on would cost ~1.8 kB per state
    level = sample_level(schedule, rng)
    bound = [_BoundFunction(f, theta) for f in funcs]
    return run_delta_pf(
        family.coupled_model(theta, level),
        schedule.particle_count(level),
        rng=rng,
        test_functions=bound,
    )


@dataclass(frozen=True, eq=False)
class MlmcIsResult:
    """Everything the debiased two-phase sampler produced."""

    jump_chain: JumpChain
    samples: list
    estimate: IsEstimate
    ledger: CostLedger
    levels: np.ndarray
    asvar: float

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
    state's smoother output.  Phase 2 draws one level per distinct
    state (streams keyed by state index, so worker count is
    irrelevant), runs the coupled-difference filter, and forms possibly
    negative debiased weights; the self-normalized ratio estimates the
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
    approx = _LevelZeroLikelihood(
        family=family, n_base=schedule.n_base, test_functions=tuple(test_functions)
    )
    jump = run_approx_marginal_chain(
        prior,
        proposal,
        approx,
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
    deltas = ordered_map(_delta_task, tasks, n_workers=n_workers)

    samples = []
    for j, (level, delta) in enumerate(zip(levels, deltas)):
        payload = jump.payloads[j]  # level-0 smoother estimate from phase 1
        denominator = math.exp(_log_regularized(jump.logliks[j], eps_reg))
        probability = float(schedule.pmf(level))
        numerators = np.concatenate(
            [[delta.value_one], delta.values]
        ) / probability + payload.values
        xi = numerators / denominator
        samples.append(
            IsWeightedSample(
                index=j,
                multiplicity=int(jump.holding_times[j]),
                xi_one=float(xi[0]),
                xi_functions=xi[1:].copy(),
                replicates=1,
                xi_replicates=xi.reshape(1, -1),
            )
        )

    value = self_normalized_estimate(samples, f_index)
    residuals = weight_residual_series(samples, f_index, value)
    asvar = float(series_stats(residuals).asymptotic_variance)
    estimate = IsEstimate(
        value=value,
        asvar_total=asvar,
        asvar_chain=None,
        asvar_correction=None,
        ess=effective_sample_size(samples),
        n_iterations=jump.total_length,
        replicates=1,
    )

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
        estimate=estimate,
        ledger=ledger,
        levels=np.array(levels, np.int64),
        asvar=asvar,
    )
