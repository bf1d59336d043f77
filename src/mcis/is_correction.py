"""Importance-sampling correction of an approximate marginal chain.

The approximate chain (see `mcis.mcmc.run_approx_marginal_chain`)
targets ``prior * (L0 + eps)``.  Each of its distinct states gets an
importance weight

    xi_j(phi) = p_hat_j(phi) / (L0_hat_j + eps),

where ``p_hat_j`` is an unbiased particle estimate of the exact-model
unnormalized smoother at that state and ``L0_hat_j`` the cached
realized approximate likelihood.  Holding times reweight the distinct
states back to the full chain, and the self-normalized ratio of the
weighted test function to the weighted constant corrects the bias of
the approximate target.

Weight computation is embarrassingly parallel across (state, replicate)
pairs; random streams are keyed by those indices, so results are
bit-identical under any worker count or evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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
    "self_normalized_estimate",
    "estimate_asvar_decomposition",
    "weight_residual_series",
    "effective_sample_size",
    "thin_jump_chain",
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
    ``xi_functions`` are their replicate means.  Weights are
    nonnegative here; only the multilevel variant can go negative.
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
# Exact-model smoother runner


@dataclass(frozen=True, eq=False)
class ParticleSmootherRunner:
    """Particle-filter evaluator usable from worker processes.

    ``model_family(theta)`` builds the exact Feynman-Kac model;
    calling the runner returns the smoother estimate at ``theta`` for
    the given test functions (callables of ``(theta, final states)``).
    """

    model_family: Callable
    n_particles: int
    scheme: str = "systematic"

    def __call__(self, theta, test_functions, rng) -> SmootherEstimate:
        model = self.model_family(theta)
        bound = [_BoundFunction(f, theta) for f in test_functions]
        _, estimate = run_particle_filter(
            model, self.n_particles, scheme=self.scheme, rng=rng,
            test_functions=bound,
        )
        return estimate


@dataclass(frozen=True, eq=False)
class _BoundFunction:
    """Test function with the parameter point bound in (picklable)."""

    func: Callable
    theta: np.ndarray

    def __call__(self, states):
        return self.func(self.theta, states)


# ---------------------------------------------------------------------------
# Weight computation (phase 2)


def _weight_task(task):
    exact_pf, theta, funcs, streams, index, replicate = task
    rng = streams.stream("is_weights", index, replicate)
    try:
        return exact_pf(theta, funcs, rng)
    except Exception as exc:  # attach the state's position for diagnosis
        raise ModelEvaluationError(
            f"exact-model evaluation failed at jump state {index}: {exc}"
        ) from exc


def compute_is_weights(
    jump: JumpChain,
    exact_pf: Callable,
    eps_reg: float,
    test_functions: Sequence[Callable],
    replicates: int,
    rng_streams: KeyedStreams,
    n_workers: int = 1,
) -> list[IsWeightedSample]:
    """Importance weights for every distinct state of the jump chain.

    For each state, ``replicates`` independent exact-model smoother
    estimates are computed (averaged into the reported weights) on
    random streams keyed by (state index, replicate index).  The
    constant function is always evaluated alongside ``test_functions``,
    through the same code path, so constant-function cancellations are
    exact.

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
    funcs = [constant_one, *test_functions]
    tasks = [
        (exact_pf, jump.thetas[j], funcs, rng_streams, j, r)
        for j in range(len(jump))
        for r in range(replicates)
    ]
    estimates = list(ordered_map(_weight_task, tasks, n_workers=n_workers))

    samples = []
    for j in range(len(jump)):
        block = estimates[j * replicates : (j + 1) * replicates]
        # ratio in log domain first: the normalizers may underflow as
        # plain floats while their ratio is moderate
        xi = np.array(
            [
                np.exp(e.log_normalizer - log_denominators[j]) * e.self_normalized
                for e in block
            ]
        )  # (R, 1 + F)
        xi_mean = xi.mean(axis=0)
        samples.append(
            IsWeightedSample(
                index=j,
                multiplicity=int(jump.holding_times[j]),
                xi_one=float(xi_mean[0]),
                xi_functions=xi_mean[1:],
                replicates=replicates,
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


def weight_residual_series(
    samples: Sequence[IsWeightedSample], f_index: int, value: float
) -> np.ndarray:
    """Delta-method residuals ``(xi(f) - value * xi(1)) / mean unit
    weight``, one per chain iteration (each state's repeated by its
    holding time); their asymptotic variance is that of the
    self-normalized estimate ``value``."""
    multiplicities = np.array([s.multiplicity for s in samples], np.int64)
    xi_one = np.array([s.xi_one for s in samples])
    xi_f = np.array([s.xi_functions[f_index] for s in samples])
    mean_unit = float(np.sum(multiplicities * xi_one)) / multiplicities.sum()
    if mean_unit == 0.0:
        # only signed (debiased) weights get here: nonnegative ones that
        # sum to zero already failed in `self_normalized_estimate`
        raise DegenerateEstimatorError(
            "debiased weights average to zero; increase eps_reg or iterations"
        )
    return np.repeat((xi_f - value * xi_one) / mean_unit, multiplicities)


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

    Per state, the replicate values of the delta-method residual

        g = (xi(f) - estimate * xi(1)) / mean-unit-weight

    are formed.  The correction component is the holding-time-weighted
    average of the within-state replicate variances (divided by the
    replicate count actually averaged); the chain component is the
    autocorrelation-corrected variance of the per-state means over the
    expanded chain, minus the correction component (floored at zero so
    both components are nonnegative and sum to the total).

    With a single replicate the split is unavailable and the total is
    returned alone, as ``(total, None)``.
    """
    if len(jump) != len(samples):
        raise ParameterError("jump chain and samples must align")
    replicates = {s.replicates for s in samples}
    if len(replicates) != 1:
        raise ParameterError("samples must share one replicate count")
    n_reps = replicates.pop()

    estimate = self_normalized_estimate(samples, f_index)
    multiplicities = np.array([s.multiplicity for s in samples], np.int64)
    total_length = int(multiplicities.sum())
    xi_one = np.array([s.xi_one for s in samples])
    mean_unit = float(np.sum(multiplicities * xi_one)) / total_length
    if mean_unit == 0.0:
        raise DegenerateEstimatorError("importance weights sum to zero")

    residual_means = np.empty(len(samples))
    within = np.empty(len(samples))
    for j, sample in enumerate(samples):
        rep = sample.xi_replicates
        g = (rep[:, 1 + f_index] - estimate * rep[:, 0]) / mean_unit
        residual_means[j] = g.mean()
        within[j] = g.var(ddof=1) if n_reps >= 2 else math.nan

    total = series_stats(
        np.repeat(residual_means, multiplicities)
    ).asymptotic_variance
    if n_reps < 2:
        return float(total), None
    correction = float(
        np.sum(multiplicities * within) / (n_reps * total_length)
    )
    correction = min(correction, float(total))
    chain = float(total) - correction
    return chain, correction


def thin_jump_chain(jump: JumpChain, factor: int) -> JumpChain:
    """Every ``factor``-th iteration of the expanded chain, re-grouped.

    Equivalent to thinning the full trace and rebuilding holding times;
    states whose block the thinning skips entirely drop out.
    """
    if factor < 1:
        raise ParameterError("thinning factor must be >= 1")
    if factor == 1:
        return jump
    expanded = np.repeat(np.arange(len(jump)), jump.holding_times)
    kept = expanded[::factor]
    if kept.size == 0:
        raise ParameterError("thinning removed every iteration")
    boundaries = np.flatnonzero(np.diff(kept)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [kept.size]])
    state_idx = kept[starts]
    payloads = None
    if jump.payloads is not None:
        payloads = [jump.payloads[i] for i in state_idx]
    return JumpChain(
        thetas=jump.thetas[state_idx],
        logliks=jump.logliks[state_idx],
        holding_times=(ends - starts).astype(np.int64),
        payloads=payloads,
    )


# ---------------------------------------------------------------------------
# End-to-end driver


def run_mcmc_is(
    prior,
    proposal,
    approx_lik: Callable,
    exact_pf: Callable,
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
    value = self_normalized_estimate(samples, f_index)
    chain_var, correction_var = estimate_asvar_decomposition(jump, samples, f_index)
    if correction_var is None:
        total, chain_var = chain_var, None
    else:
        total = chain_var + correction_var
    estimate = IsEstimate(
        value=value,
        asvar_total=total,
        asvar_chain=chain_var,
        asvar_correction=correction_var,
        ess=effective_sample_size(samples),
        n_iterations=jump.total_length,
        replicates=replicates,
    )
    return McmcIsResult(jump_chain=jump, samples=samples, estimate=estimate)
