"""Particle filtering and unbiased smoother estimation.

The filter propagates ``N`` particles through a Feynman-Kac model,
resampling at every step, and carries unnormalized weights

    V_0 = G_0 / N,        V_p = V*_{p-1} * G_p / N,

where ``V*_p`` is the step total.  The final pairs ``(V^(i), X_n^(i))``
give unbiased estimates ``sum_i V^(i) phi(X_n^(i))`` of the
unnormalized smoother's final-time marginal; in particular the
normalizer estimates the likelihood.  Test functions therefore read the final states
``(N, ...)``, not whole paths.  Weights are carried in log domain and
materialized once per step.

The delta filter runs the same loop on a coupled fine/coarse model and
corrects each particle by the ratio of its ancestry's marginal
potential product to the coupled one, producing an unbiased estimate of
the difference of the two levels' unnormalized functionals.  Its output
may be negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CouplingSupportError,
    DegenerateEstimatorError,
    DegenerateWeightsError,
    ModelEvaluationError,
    ParameterError,
)
from .models.diffusion import CoupledEulerModel
from .models.fk import FeynmanKacModel

__all__ = [
    "ParticleCloud",
    "SmootherEstimate",
    "DeltaEstimate",
    "resample",
    "run_particle_filter",
    "ratio_estimate",
    "run_delta_pf",
]

RESAMPLING_SCHEMES = ("multinomial", "stratified", "residual", "systematic")


# ---------------------------------------------------------------------------
# Resampling


def _inverse_cdf(cumulative: np.ndarray, positions: np.ndarray) -> np.ndarray:
    # side="right" so that zero-width (zero-weight) intervals are never
    # selected, even when a position lands exactly on their boundary
    idx = np.searchsorted(cumulative, positions, side="right")
    return np.minimum(idx, cumulative.size - 1)


def resample(weights, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ancestor indices for one resampling step.

    Every scheme satisfies the unbiasedness condition: the expected
    number of offspring of particle ``i`` equals ``N w_i / sum(w)``.

    Parameters
    ----------
    weights : (N,) nonnegative array
        Unnormalized weights; must not sum to zero.
    scheme : {"multinomial", "stratified", "residual", "systematic"}
    rng : numpy Generator

    Returns
    -------
    (N,) integer array of ancestor indices.
    """
    weights = np.asarray(weights, float)
    count = weights.size
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise ParameterError("weights must be finite and nonnegative")
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateWeightsError("all particle weights are zero")
    probs = weights / total
    if scheme == "multinomial":
        cumulative = np.cumsum(probs)
        cumulative[-1] = 1.0
        return _inverse_cdf(cumulative, rng.random(count))
    if scheme == "stratified":
        cumulative = np.cumsum(probs)
        cumulative[-1] = 1.0
        positions = (np.arange(count) + rng.random(count)) / count
        return _inverse_cdf(cumulative, positions)
    if scheme == "systematic":
        cumulative = np.cumsum(probs)
        cumulative[-1] = 1.0
        positions = (np.arange(count) + rng.random()) / count
        return _inverse_cdf(cumulative, positions)
    if scheme == "residual":
        expected = count * probs
        copies = np.floor(expected).astype(np.int64)
        leftover = count - int(copies.sum())
        ancestors = np.repeat(np.arange(count), copies)
        if leftover > 0:
            residual = expected - copies
            residual_probs = residual / residual.sum()
            cumulative = np.cumsum(residual_probs)
            cumulative[-1] = 1.0
            extra = _inverse_cdf(cumulative, rng.random(leftover))
            ancestors = np.concatenate([ancestors, extra])
        return ancestors
    raise ParameterError(f"unknown resampling scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Output containers


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Filter output: per-step states and final weights."""

    n_particles: int
    states: list  # length n+1; states[p] has shape (N, ...)
    final_log_weights: np.ndarray
    log_normalizer: float

    @property
    def final_states(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_weights(self) -> np.ndarray:
        """Materialized final weights ``V^(i)`` (may underflow for long
        series; prefer log quantities for ratios)."""
        return np.exp(self.final_log_weights)


@dataclass(frozen=True, eq=False)
class SmootherEstimate:
    """Unbiased functionals of the unnormalized smoother.

    ``values[j]`` estimates the unnormalized integral of test function
    ``j`` of the final states; ``normalizer`` is the likelihood estimate
    (the functional of the constant 1).  ``self_normalized[j]`` =
    values[j] / normalizer, defined as 0 when the filter collapsed.
    """

    values: np.ndarray
    log_normalizer: float
    self_normalized: np.ndarray

    @property
    def normalizer(self) -> float:
        return math.exp(self.log_normalizer) if self.log_normalizer > -math.inf else 0.0


@dataclass(frozen=True, eq=False)
class DeltaEstimate:
    """Output of the coupled-difference filter at one level.

    ``value_one`` estimates the difference of the two levels'
    likelihoods; ``values[j]`` the difference of unnormalized smoother
    functionals.  Values may be negative.
    """

    level: int
    values: np.ndarray
    value_one: float


# ---------------------------------------------------------------------------
# Particle filter


def _materialize(log_weights: np.ndarray):
    """Max-shifted exponentiation; returns (weights, log_total)."""
    shift = np.max(log_weights)
    if shift == -np.inf:
        return np.zeros_like(log_weights), -np.inf
    scaled = np.exp(log_weights - shift)
    return scaled, shift + np.log(scaled.sum())


def _check_potentials(log_pot: np.ndarray, step: int):
    if np.any(np.isnan(log_pot)):
        raise ModelEvaluationError(f"NaN potential at step {step}")


def _run_filter(model, n_particles: int, scheme: str, rng, weigh) -> ParticleCloud:
    """The resample-propagate-weight loop behind both filters.

    ``weigh(p, x, parents)`` returns the checked step-``p``
    log-potentials of the states ``x``; ``parents`` holds the ancestor
    indices that step ``p``'s resampling selected, and is ``None`` at
    step 0.  Draws come from ``rng`` in a fixed order: the initial
    states, then resampling and transition at every step.
    """
    if n_particles < 1:
        raise ParameterError("need at least one particle")
    if rng is None:
        rng = np.random.default_rng()
    # np.log rather than math.log: _materialize shifts by this constant
    # and un-shifts with np.log, so a unit-potential model telescopes to
    # a normalizer of exactly 1.0
    log_count = float(np.log(n_particles))

    x = model.sample_initial(n_particles, rng)
    states = [x]
    log_weights = weigh(0, x, None) - log_count
    weights, log_total = _materialize(log_weights)

    for p in range(1, model.n + 1):
        if log_total > -np.inf:
            parents = resample(weights, scheme, rng)
        else:
            parents = np.arange(n_particles)  # collapsed: weights stay zero
        x = model.sample_transition(p, x[parents], rng)
        states.append(x)
        log_weights = (log_total - log_count) + weigh(p, x, parents)
        weights, log_total = _materialize(log_weights)

    return ParticleCloud(
        n_particles=n_particles,
        states=states,
        final_log_weights=log_weights,
        log_normalizer=log_total,
    )


def run_particle_filter(
    model: FeynmanKacModel,
    n_particles: int,
    scheme: str = "systematic",
    rng: np.random.Generator | None = None,
    test_functions: Sequence[Callable] = (),
) -> tuple[ParticleCloud, SmootherEstimate]:
    """Run the particle filter and evaluate smoother functionals.

    Resamples at every step.  If all potentials vanish at some step the
    run completes with a zero normalizer (a valid estimate, not an
    error); NaN potentials raise.

    Parameters
    ----------
    model : FeynmanKacModel
    n_particles : int
    scheme : resampling scheme name
    rng : numpy Generator
    test_functions : callables mapping the final states ``(N, ...)``
        to per-particle values ``(N,)`` (or a scalar, broadcast).

    Returns
    -------
    (ParticleCloud, SmootherEstimate)
    """

    def weigh(p, x, parents):
        log_pot = np.asarray(model.log_potential(p, x), float)
        _check_potentials(log_pot, p)
        return log_pot

    cloud = _run_filter(model, n_particles, scheme, rng, weigh)
    return cloud, _evaluate_functionals(cloud, test_functions)


def _evaluate_functionals(cloud: ParticleCloud, test_functions) -> SmootherEstimate:
    n_funcs = len(test_functions)
    if cloud.log_normalizer == -np.inf:
        zeros = np.zeros(n_funcs)
        return SmootherEstimate(values=zeros, log_normalizer=-np.inf,
                                self_normalized=zeros.copy())
    shifted = np.exp(cloud.final_log_weights - cloud.log_normalizer)
    normalizer = math.exp(cloud.log_normalizer)
    normalized = np.empty(n_funcs)
    values = np.empty(n_funcs)
    for j, func in enumerate(test_functions):
        raw = np.asarray(func(cloud.final_states), float)
        mean = float(np.sum(shifted * raw)) if raw.ndim else float(raw)
        normalized[j] = mean
        values[j] = normalizer * mean
    return SmootherEstimate(
        values=values, log_normalizer=cloud.log_normalizer, self_normalized=normalized
    )


# ---------------------------------------------------------------------------
# Ratio estimator over independent replicates


def ratio_estimate(
    estimates: Sequence[SmootherEstimate], phi_index: int
) -> tuple[float, float]:
    """Ratio of replicate-summed smoother functionals to normalizers.

    Estimates the normalized smoother functional from ``m`` independent
    filter runs; the standard error comes from the delta method over
    the replicates (NaN when ``m == 1``).
    """
    if not estimates:
        raise ParameterError("need at least one estimate")
    numerators = np.array([e.values[phi_index] for e in estimates])
    normalizers = np.array([e.normalizer for e in estimates])
    denom = normalizers.sum()
    if denom <= 0.0:
        raise DegenerateEstimatorError("all replicate normalizers are zero")
    point = numerators.sum() / denom
    m = len(estimates)
    if m == 1:
        return float(point), float("nan")
    residuals = numerators - point * normalizers
    mean_norm = denom / m
    spread = float(np.sum(residuals * residuals) / (m - 1))
    return float(point), math.sqrt(spread / m) / mean_norm


# ---------------------------------------------------------------------------
# Delta particle filter (coupled fine/coarse difference)


def run_delta_pf(
    model: CoupledEulerModel,
    n_particles: int,
    rng: np.random.Generator | None = None,
    test_functions: Sequence[Callable] = (),
    scheme: str = "multinomial",
) -> DeltaEstimate:
    """Unbiased estimate of the fine-minus-coarse unnormalized smoother.

    Runs the particle filter on the coupled model and reweights each
    particle by the ratios of its ancestry's fine (respectively coarse)
    potential product to the coupled potential product; the difference
    of the two reweighted functionals estimates the level increment.
    Multinomial resampling is the default, matching the setting in which
    the increment's variance bounds are understood.

    Test functions receive final states ``(N,)`` — they are evaluated
    separately on the fine and the coarse column.
    """
    if model.fine.level < 1:
        raise ParameterError("delta filter requires fine level >= 1")
    # running log-ratios of marginal to coupled potential products
    ratio_fine = ratio_coarse = 0.0

    def weigh(p, x, parents):
        nonlocal ratio_fine, ratio_coarse
        if parents is not None:
            ratio_fine, ratio_coarse = ratio_fine[parents], ratio_coarse[parents]
        log_fine, log_coarse = model.log_potential_pair(p, x)
        log_pot = _coupled_potential(log_fine, log_coarse, p)
        ratio_fine = _ratio_update(ratio_fine, log_fine, log_pot)
        ratio_coarse = _ratio_update(ratio_coarse, log_coarse, log_pot)
        return log_pot

    cloud = _run_filter(model, n_particles, scheme, rng, weigh)
    values = np.zeros(len(test_functions))
    if cloud.log_normalizer == -np.inf:
        return DeltaEstimate(level=model.level, values=values, value_one=0.0)

    shifted = np.exp(cloud.final_log_weights - cloud.log_normalizer)
    normalizer = math.exp(cloud.log_normalizer)
    # bounded by construction: each marginal potential is at most twice
    # the coupled one, so the ratios never exceed 2^(n+1)
    weight_fine = shifted * np.exp(ratio_fine)
    weight_coarse = shifted * np.exp(ratio_coarse)
    value_one = normalizer * float(np.sum(weight_fine - weight_coarse))
    fine, coarse = cloud.final_states[:, 0], cloud.final_states[:, 1]
    for j, func in enumerate(test_functions):
        f_fine = np.asarray(func(fine), float)
        f_coarse = np.asarray(func(coarse), float)
        values[j] = normalizer * float(
            np.sum(weight_fine * f_fine) - np.sum(weight_coarse * f_coarse)
        )
    return DeltaEstimate(level=model.level, values=values, value_one=value_one)


def _coupled_potential(log_fine, log_coarse, step):
    _check_potentials(log_fine, step)
    _check_potentials(log_coarse, step)
    log_pot = np.logaddexp(log_fine, log_coarse) - math.log(2.0)
    bad = (log_pot == -np.inf) & ((log_fine > -np.inf) | (log_coarse > -np.inf))
    if np.any(bad):
        raise CouplingSupportError(
            f"coupled potential vanished under a positive marginal at step {step}"
        )
    return log_pot


def _ratio_update(running, log_marginal, log_coupled):
    """Add one step's marginal-over-coupled log ratio; dead particles
    (zero coupled potential) get ratio zero and stay there."""
    with np.errstate(invalid="ignore"):
        step = log_marginal - log_coupled
    step = np.where(log_coupled == -np.inf, -np.inf, step)
    return running + step
