"""Importance-sampling correction of an approximate marginal chain.

The approximate chain (see `mcis.mcmc.run_approx_marginal_chain`)
targets ``prior * (L0 + eps)``.  Each of its distinct states gets an
importance weight

    xi_j(phi) = p_hat_j(phi) / (L0_hat_j + eps),

where ``p_hat_j`` is an unbiased estimate of the exact-model
unnormalized smoother at that state and ``L0_hat_j`` the cached
realized approximate likelihood.  Holding times reweight the distinct
states back to the full chain, and the self-normalized ratio of the
weighted test function to the weighted constant corrects the bias of
the approximate target.

Any unbiased estimator gives valid weights.  `compute_is_weights` uses
particle filters run by `ParticleSmootherRunner`, the one parameter-to-
filter evaluator (it is also the exact stage of PMMH and delayed
acceptance); `mcis.multilevel.run_mlmc_is` uses debiased, possibly
negative multilevel estimates.  Both turn their raw weights into
samples and an estimate through `weighted_samples` and
`correction_estimate`.

Weight computation is embarrassingly parallel across (state, replicate)
pairs; random streams are keyed by those indices, so results are
bit-identical under any worker count or evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .diagnostics import series_stats
from .errors import (
    DegenerateEstimatorError,
    ModelEvaluationError,
    ParameterError,
)
from .mcmc import JumpChain, _log_regularized
from .parallel import ordered_map
from .rng import KeyedStreams
from .smc import SmootherEstimate, run_particle_filter

__all__ = [
    "IsWeightedSample",
    "IsEstimate",
    "McmcIsResult",
    "ParticleSmootherRunner",
    "compute_is_weights",
    "weighted_samples",
    "correction_estimate",
    "self_normalized_estimate",
    "estimate_asvar_decomposition",
    "weight_residual_series",
    "effective_sample_size",
    "run_mcmc_is",
]


def constant_one(theta, states) -> float:
    """The unit test function; its weight is the likelihood ratio."""
    return 1.0


@dataclass(frozen=True, eq=False)
class IsWeightedSample:
    """Importance weights of one distinct chain state.

    ``xi_replicates`` holds the raw per-replicate weights, one row per
    replicate: column 0 is the constant-function weight, later columns
    follow the declared test functions.  ``xi_one`` and
    ``xi_functions`` are their replicate means.  Particle weights are
    nonnegative; multilevel (debiased) weights can go negative.
    """

    index: int
    multiplicity: int
    xi_one: float
    xi_functions: np.ndarray
    replicates: int
    xi_replicates: np.ndarray


@dataclass(frozen=True, eq=False)
class IsEstimate:
    """Self-normalized corrected estimate with variance attribution.

    ``asvar_total = asvar_chain + asvar_correction`` when the replicated
    decomposition is available (``replicates >= 2``); otherwise only the
    total is reported.  ``ess`` is the usual squared-sum-over-sum-of-
    squares count over the expanded per-iteration weights.
    """

    value: float
    asvar_total: float | None
    asvar_chain: float | None
    asvar_correction: float | None
    ess: float
    n_iterations: int
    replicates: int

    @property
    def standard_error(self) -> float:
        if self.asvar_total is None or self.n_iterations == 0:
            return math.nan
        return math.sqrt(self.asvar_total / self.n_iterations)


@dataclass(frozen=True, eq=False)
class McmcIsResult:
    """Everything the two-phase sampler produced."""

    jump_chain: JumpChain
    samples: list
    estimate: IsEstimate


# ---------------------------------------------------------------------------
# The particle-filter evaluator


@dataclass(frozen=True, eq=False)
class ParticleSmootherRunner:
    """Particle-filter evaluator at a parameter point (picklable, so
    usable from worker processes).

    ``model_family(theta)`` builds the Feynman-Kac model; calling the
    runner with ``(theta, rng)`` runs the filter there and returns its
    `SmootherEstimate` of ``test_functions`` (callables of ``(theta,
    final states)``).  As a Metropolis stage it gives the log
    normalizer as the log likelihood, the first test function's
    self-normalized value as the functional, and the estimate as the
    payload.
    """

    model_family: Callable
    n_particles: int
    scheme: str = "systematic"
    test_functions: tuple = ()

    def __call__(self, theta, rng) -> SmootherEstimate:
        _, estimate = run_particle_filter(
            self.model_family(theta), self.n_particles, scheme=self.scheme, rng=rng,
            test_functions=[partial(f, theta) for f in self.test_functions],
        )
        return estimate


# ---------------------------------------------------------------------------
# Weight computation (phase 2)


def _weight_task(task):
    evaluate, theta, streams, index, replicate = task
    rng = streams.stream("is_weights", index, replicate)
    try:
        return evaluate(theta, rng)
    except Exception as exc:  # attach the state's position for diagnosis
        raise ModelEvaluationError(
            f"exact-model evaluation failed at jump state {index}: {exc}"
        ) from exc


def compute_is_weights(
    jump: JumpChain,
    exact_pf: ParticleSmootherRunner,
    eps_reg: float,
    test_functions: Sequence[Callable],
    replicates: int,
    rng_streams: KeyedStreams,
    n_workers: int = 1,
) -> list[IsWeightedSample]:
    """Importance weights for every distinct state of the jump chain.

    For each state, ``replicates`` independent exact-model smoother
    estimates are computed (averaged into the reported weights) on
    random streams keyed by (state index, replicate index).
    ``exact_pf`` runs with the constant function followed by
    ``test_functions`` in place of its own test functions, so the
    constant goes through the same code path and constant-function
    cancellations are exact.

    With ``n_workers > 1`` evaluation fans out over processes, so
    ``exact_pf`` and the test functions must be picklable; results are
    reduced in (state, replicate) order and do not depend on the worker
    count.
    """
    if replicates < 1:
        raise ParameterError("need at least one replicate")
    if eps_reg < 0:
        raise ParameterError("regularization must be nonnegative")
    log_denominators = np.array(
        [_log_regularized(ll, eps_reg) for ll in jump.logliks]
    )
    if np.any(log_denominators == -math.inf):
        raise ParameterError(
            "every cached approximate likelihood must be positive after "
            "regularization; increase eps_reg"
        )
    evaluate = replace(exact_pf, test_functions=(constant_one, *test_functions))
    tasks = [
        (evaluate, jump.thetas[j], rng_streams, j, r)
        for j in range(len(jump))
        for r in range(replicates)
    ]
    estimates = list(ordered_map(_weight_task, tasks, n_workers=n_workers))
    # ratio in log domain first: the normalizers may underflow as plain
    # floats while their ratio is moderate
    xis = [
        np.array(
            [
                np.exp(e.log_normalizer - log_denominators[j]) * e.self_normalized
                for e in estimates[j * replicates : (j + 1) * replicates]
            ]
        )
        for j in range(len(jump))
    ]
    return weighted_samples(jump, xis)


def weighted_samples(jump: JumpChain, xis: Sequence[np.ndarray]) -> list[IsWeightedSample]:
    """One sample per jump state from its raw weights ``xis[j]``, an
    ``(R, 1 + F)`` array: one row per replicate, the constant function
    in column 0."""
    samples = []
    for j, xi in enumerate(xis):
        xi_mean = xi.mean(axis=0)
        samples.append(
            IsWeightedSample(
                index=j,
                multiplicity=int(jump.holding_times[j]),
                xi_one=float(xi_mean[0]),
                xi_functions=xi_mean[1:],
                replicates=xi.shape[0],
                xi_replicates=xi,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# Estimation


def _expanded(samples: Sequence[IsWeightedSample], values: np.ndarray) -> np.ndarray:
    multiplicities = np.array([s.multiplicity for s in samples], np.int64)
    return np.repeat(values, multiplicities)


def self_normalized_estimate(
    samples: Sequence[IsWeightedSample], f_index: int
) -> float:
    """Holding-time-weighted ratio of function weight to unit weight.

    Computed by expanding each state's weight to one term per chain
    iteration and summing, so it agrees bit-exactly with the estimate
    formed from the expanded full trace.
    """
    if not samples:
        raise ParameterError("no weighted samples")
    numerator = float(
        np.sum(_expanded(samples, np.array([s.xi_functions[f_index] for s in samples])))
    )
    denominator = float(
        np.sum(_expanded(samples, np.array([s.xi_one for s in samples])))
    )
    if denominator == 0.0:
        raise DegenerateEstimatorError("importance weights sum to zero")
    return numerator / denominator


def _residuals(samples: Sequence[IsWeightedSample], f_index: int, value: float) -> np.ndarray:
    """Delta-method residuals ``(xi(f) - value * xi(1)) / mean unit
    weight`` of every state and replicate, shape ``(states, R)``."""
    multiplicities = np.array([s.multiplicity for s in samples], np.int64)
    xi_one = np.array([s.xi_one for s in samples])
    mean_unit = float(np.sum(multiplicities * xi_one)) / multiplicities.sum()
    if mean_unit == 0.0:
        # only signed (debiased) weights get here: nonnegative ones that
        # sum to zero already failed in `self_normalized_estimate`
        raise DegenerateEstimatorError(
            "debiased weights average to zero; increase eps_reg or iterations"
        )
    xi = np.array([s.xi_replicates for s in samples])  # (states, R, 1 + F)
    return (xi[:, :, 1 + f_index] - value * xi[:, :, 0]) / mean_unit


def weight_residual_series(
    samples: Sequence[IsWeightedSample], f_index: int, value: float
) -> np.ndarray:
    """Replicate-mean delta-method residuals, one per chain iteration
    (each state's repeated by its holding time); their asymptotic
    variance is that of the self-normalized estimate ``value``."""
    return _expanded(samples, _residuals(samples, f_index, value).mean(axis=1))


def effective_sample_size(samples: Sequence[IsWeightedSample]) -> float:
    """Squared-sum-over-sum-of-squares count of the expanded weights."""
    weights = _expanded(samples, np.array([s.xi_one for s in samples]))
    total = weights.sum()
    square = float(np.sum(weights * weights))
    return float(total * total / square) if square > 0 else 0.0


def estimate_asvar_decomposition(
    jump: JumpChain, samples: Sequence[IsWeightedSample], f_index: int
) -> tuple[float, float | None]:
    """Split the estimator's asymptotic variance into chain and
    correction components.

    The total is that of `weight_residual_series`.  The correction
    component is the holding-time-weighted average of the within-state
    replicate variances of the residuals (divided by the replicate
    count averaged); the chain component is the total minus the
    correction component (floored at zero so both components are
    nonnegative and sum to the total).

    With a single replicate the split is unavailable and the total is
    returned alone, as ``(total, None)``.
    """
    if len(jump) != len(samples):
        raise ParameterError("jump chain and samples must align")
    replicates = {s.replicates for s in samples}
    if len(replicates) != 1:
        raise ParameterError("samples must share one replicate count")
    n_reps = replicates.pop()

    residuals = _residuals(samples, f_index, self_normalized_estimate(samples, f_index))
    total = float(
        series_stats(_expanded(samples, residuals.mean(axis=1))).asymptotic_variance
    )
    if n_reps < 2:
        return total, None
    multiplicities = np.array([s.multiplicity for s in samples], np.int64)
    within = residuals.var(axis=1, ddof=1)
    correction = float(
        np.sum(multiplicities * within) / (n_reps * int(multiplicities.sum()))
    )
    correction = min(correction, total)
    return total - correction, correction


def correction_estimate(
    jump: JumpChain, samples: Sequence[IsWeightedSample], f_index: int
) -> IsEstimate:
    """Self-normalized estimate of test function ``f_index`` from the
    weighted jump states, with its variance attribution and ESS."""
    value = self_normalized_estimate(samples, f_index)
    first, correction = estimate_asvar_decomposition(jump, samples, f_index)
    if correction is None:
        total, chain = first, None
    else:
        total, chain = first + correction, first
    return IsEstimate(
        value=value,
        asvar_total=total,
        asvar_chain=chain,
        asvar_correction=correction,
        ess=effective_sample_size(samples),
        n_iterations=jump.total_length,
        replicates=samples[0].replicates,
    )


# ---------------------------------------------------------------------------
# End-to-end driver


def run_mcmc_is(
    prior,
    proposal,
    approx_lik: Callable,
    exact_pf: ParticleSmootherRunner,
    eps_reg: float,
    n_iterations: int,
    streams: KeyedStreams,
    test_functions: Sequence[Callable],
    f_index: int = 0,
    n_burn: int = 0,
    replicates: int = 1,
    n_workers: int = 1,
) -> McmcIsResult:
    """Approximate marginal chain, then parallel weight correction.

    Phase 1 runs the Metropolis chain targeting the regularized
    approximate posterior on the ``("phase1",)`` stream; burn-in
    iterations adapt the proposal and are excluded from correction.
    Phase 2 weights the jump chain's states against the exact model and
    forms the self-normalized estimate of ``test_functions[f_index]``.
    """
    from .mcmc import run_approx_marginal_chain

    jump = run_approx_marginal_chain(
        prior,
        proposal,
        approx_lik,
        eps_reg,
        n_iterations,
        streams.stream("phase1"),
        n_burn=n_burn,
    )
    samples = compute_is_weights(
        jump, exact_pf, eps_reg, test_functions, replicates, streams,
        n_workers=n_workers,
    )
    estimate = correction_estimate(jump, samples, f_index)
    return McmcIsResult(jump_chain=jump, samples=samples, estimate=estimate)
