"""Approximate Bayesian computation: tolerance-indicator MCMC,
tolerance adaptation, and post-hoc tolerance reduction.

The chain runs at a fixed tolerance and stores, for every iteration,
the distance of the retained simulation to the observed data.  Because
acceptance only ever compares distances against the chain tolerance,
any *smaller* tolerance can be applied after the fact by reweighting
the stored records with indicators — one chain yields the whole curve
of estimates over tolerances, plus approximate confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diagnostics import series_stats
from .errors import (
    EmptySelectionError,
    ModelEvaluationError,
    ParameterError,
)
from .mcmc import Prior, ProposalState, _log_uniform, adapt_covariance, propose
from .models.abc_model import AbcModel

__all__ = [
    "AbcTrace",
    "ToleranceAdaptState",
    "ToleranceAdaptResult",
    "AbcCiReport",
    "PostCorrectionCurve",
    "run_abc_mcmc",
    "run_tolerance_adaptation",
    "post_correct",
    "post_correct_curve",
    "abc_confidence_interval",
]

MIN_TOLERANCE = 1e-300  # floor keeping the log-domain update finite


# ---------------------------------------------------------------------------
# Containers


@dataclass(frozen=True, eq=False)
class AbcTrace:
    """Chain output: parameters with their retained simulation distances.

    After the first acceptance every stored distance is at most the
    chain tolerance; records before that carry the initialization draw,
    which may lie outside the ball.
    """

    thetas: np.ndarray
    distances: np.ndarray
    epsilon0: float
    accepted: np.ndarray

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def accept_count(self) -> int:
        return int(np.sum(self.accepted))

    def to_records(self):
        for k in range(len(self)):
            yield {
                "k": k + 1,
                "theta": self.thetas[k].tolist(),
                "distance": float(self.distances[k]),
                "accepted": bool(self.accepted[k]),
            }


@dataclass(frozen=True)
class ToleranceAdaptState:
    """Stochastic-approximation state of the log tolerance.

    ``step`` is the index of the next update; its step size is
    ``step ** (-2/3)``.  The tolerance itself stays positive because
    the update lives on the log scale.
    """

    log_epsilon: float
    alpha_target: float = 0.1
    step: int = 1

    @property
    def epsilon(self) -> float:
        return math.exp(self.log_epsilon)

    @property
    def gamma(self) -> float:
        return float(self.step) ** (-2.0 / 3.0)

    def advance(self, realized_alpha: float) -> "ToleranceAdaptState":
        """Move the log tolerance toward the target acceptance rate."""
        if not 0.0 <= realized_alpha <= 1.0:
            raise ParameterError("realized acceptance must be a probability")
        return replace(
            self,
            log_epsilon=self.log_epsilon
            + self.gamma * (self.alpha_target - realized_alpha),
            step=self.step + 1,
        )


@dataclass(frozen=True, eq=False)
class ToleranceAdaptResult:
    """Endpoint of the adaptation phase, ready to seed a fixed-tolerance
    run: final parameter and tolerance, the frozen proposal, and the
    realized trajectories for diagnosis."""

    theta: np.ndarray
    epsilon: float
    proposal: ProposalState
    epsilons: np.ndarray
    realized_alphas: np.ndarray
    distance: float


@dataclass(frozen=True, eq=False)
class PostCorrectionCurve:
    """Estimates over a grid of tolerances (NaN where nothing selects)."""

    epsilons: np.ndarray
    estimates: np.ndarray

    def __iter__(self):
        return iter(zip(self.epsilons, self.estimates))


@dataclass(frozen=True, eq=False)
class AbcCiReport:
    """Post-corrected estimate with an approximate confidence interval.

    The interval is centered at the estimate with half-width
    ``beta * sqrt(iact * function_variance)``: the chain's mixing enters
    through the IACT at the chain tolerance, the selection through the
    indicator-normalized function variance.
    """

    epsilon: float
    estimate: float
    iact: float
    function_variance: float
    beta: float
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# Samplers


def _simulate_distance(model: AbcModel, theta, rng, iteration: int) -> float:
    try:
        y = model.simulate(theta, rng)
        return float(model.distance(y, model.y_star))
    except Exception as exc:
        raise ModelEvaluationError(
            f"simulator failed at iteration {iteration}: {exc}"
        ) from exc


def _prior_ratio_alpha(log_prior_new: float, log_prior: float) -> float:
    """min(1, prior ratio) for a symmetric proposal."""
    if log_prior_new == -math.inf:
        return 0.0
    return min(1.0, math.exp(log_prior_new - log_prior))


def run_abc_mcmc(
    model: AbcModel,
    epsilon0: float,
    prior: Prior,
    proposal: ProposalState,
    n_iterations: int,
    rng: np.random.Generator,
    theta_init: np.ndarray | None = None,
) -> AbcTrace:
    """Tolerance-indicator Metropolis chain at fixed tolerance.

    Each proposal is accepted with the prior ratio times the indicator
    that its fresh simulation lands within ``epsilon0`` of the data.
    The retained simulation's distance is stored per iteration, which
    is what makes post-hoc tolerance reduction possible.  The initial
    state is drawn from the prior unless given; its simulation may lie
    outside the ball, in which case the chain sits still until the
    first acceptance.
    """
    if epsilon0 <= 0:
        raise ParameterError("chain tolerance must be positive")
    if n_iterations < 1:
        raise ParameterError("need at least one iteration")
    theta = (
        np.atleast_1d(np.asarray(theta_init, float))
        if theta_init is not None
        else np.atleast_1d(prior.sample(rng))
    )
    log_prior = prior.log_density(theta)
    if log_prior == -math.inf:
        raise ParameterError("initial state has zero prior mass")
    distance = _simulate_distance(model, theta, rng, 0)

    dim = theta.size
    thetas = np.empty((n_iterations, dim))
    distances = np.empty(n_iterations)
    accepted = np.zeros(n_iterations, bool)

    for k in range(1, n_iterations + 1):
        theta_new = propose(theta, proposal, rng)
        log_prior_new = prior.log_density(theta_new)
        if log_prior_new > -math.inf:
            distance_new = _simulate_distance(model, theta_new, rng, k)
            if distance_new <= epsilon0 and _log_uniform(rng) < (
                log_prior_new - log_prior
            ):
                theta, log_prior, distance = theta_new, log_prior_new, distance_new
                accepted[k - 1] = True
        thetas[k - 1] = theta
        distances[k - 1] = distance
    return AbcTrace(
        thetas=thetas,
        distances=distances,
        epsilon0=float(epsilon0),
        accepted=accepted,
    )


def run_tolerance_adaptation(
    model: AbcModel,
    prior: Prior,
    proposal: ProposalState,
    n_burn: int,
    rng: np.random.Generator,
    alpha_target: float = 0.1,
    eps_init: float | None = None,
) -> ToleranceAdaptResult:
    """Burn-in that steers the tolerance toward a target acceptance rate.

    Runs the tolerance-indicator chain while moving the log tolerance
    by ``step**(-2/3) * (target - realized acceptance probability)``
    after every iteration — the *probability* (prior-ratio min times
    the indicator), not the accept flag.  The proposal covariance
    adapts concurrently; both it and the tolerance freeze at the end.
    The initial tolerance defaults to the initial simulation's
    distance, so the starting state lies on the ball's boundary.
    """
    if n_burn < 1:
        raise ParameterError("need at least one adaptation iteration")
    if not 0.0 < alpha_target < 1.0:
        raise ParameterError("target acceptance must lie in (0, 1)")
    theta = np.atleast_1d(prior.sample(rng))
    log_prior = prior.log_density(theta)
    distance = _simulate_distance(model, theta, rng, 0)
    if eps_init is None:
        eps_init = max(distance, MIN_TOLERANCE)
    if eps_init <= 0:
        raise ParameterError("initial tolerance must be positive")
    state = ToleranceAdaptState(
        log_epsilon=math.log(eps_init), alpha_target=alpha_target
    )

    epsilons = np.empty(n_burn)
    alphas = np.empty(n_burn)
    for k in range(1, n_burn + 1):
        theta_new = propose(theta, proposal, rng)
        log_prior_new = prior.log_density(theta_new)
        if log_prior_new > -math.inf:
            distance_new = _simulate_distance(model, theta_new, rng, k)
            alpha = _prior_ratio_alpha(log_prior_new, log_prior) * (
                distance_new <= state.epsilon
            )
            if alpha > 0.0 and rng.random() < alpha:
                theta, log_prior, distance = theta_new, log_prior_new, distance_new
        else:
            alpha = 0.0
        state = state.advance(alpha)
        epsilons[k - 1] = state.epsilon
        alphas[k - 1] = alpha
        proposal = adapt_covariance(proposal, theta, k)

    return ToleranceAdaptResult(
        theta=theta,
        epsilon=state.epsilon,
        proposal=proposal.freeze(),
        epsilons=epsilons,
        realized_alphas=alphas,
        distance=distance,
    )


# ---------------------------------------------------------------------------
# Post-correction


def _function_values(trace: AbcTrace, f: Callable) -> np.ndarray:
    return np.array([float(f(theta)) for theta in trace.thetas])


def _sorted_cumulative(trace: AbcTrace, values: np.ndarray):
    """Distances ascending (ties by iteration), with running sums of the
    function values in that order.  Shared by the pointwise and curve
    estimators so their outputs agree bit-for-bit."""
    order = np.argsort(trace.distances, kind="stable")
    sorted_distances = trace.distances[order]
    cumulative = np.cumsum(values[order])
    return sorted_distances, cumulative


def _estimate_at(sorted_distances, cumulative, epsilon: float) -> tuple[float, int]:
    count = int(np.searchsorted(sorted_distances, epsilon, side="right"))
    if count == 0:
        return math.nan, 0
    return float(cumulative[count - 1]) / count, count


def post_correct(trace: AbcTrace, epsilon: float, f: Callable) -> float:
    """Estimate under a smaller tolerance from the recorded distances.

    Averages ``f`` over the iterations whose retained simulation lies
    within ``epsilon`` — valid for any tolerance up to the chain's.
    """
    if not 0.0 < epsilon <= trace.epsilon0:
        raise ParameterError(
            "post-correction tolerance must lie in (0, chain tolerance]"
        )
    values = _function_values(trace, f)
    sorted_distances, cumulative = _sorted_cumulative(trace, values)
    estimate, count = _estimate_at(sorted_distances, cumulative, epsilon)
    if count == 0:
        raise EmptySelectionError(
            f"no retained simulation within tolerance {epsilon}; smallest "
            f"recorded distance is {sorted_distances[0]}",
            min_distance=float(sorted_distances[0]),
        )
    return estimate


def post_correct_curve(trace: AbcTrace, f: Callable, grid="all") -> PostCorrectionCurve:
    """Post-corrected estimates over many tolerances at once.

    One sort plus running sums price the whole curve.  ``grid="all"``
    evaluates at every distinct recorded distance — the breakpoints of
    the piecewise-constant curve; otherwise at the given tolerances,
    with NaN where nothing is selected.
    """
    if not len(trace):
        raise ParameterError("empty trace")
    values = _function_values(trace, f)
    sorted_distances, cumulative = _sorted_cumulative(trace, values)
    if isinstance(grid, str):
        if grid != "all":
            raise ParameterError(f"unknown grid specification {grid!r}")
        epsilons = np.unique(sorted_distances)
    else:
        epsilons = np.asarray(grid, float)
    estimates = np.array(
        [_estimate_at(sorted_distances, cumulative, eps)[0] for eps in epsilons]
    )
    return PostCorrectionCurve(epsilons=epsilons, estimates=estimates)


def abc_confidence_interval(
    trace: AbcTrace,
    epsilon: float,
    f: Callable,
    beta: float = 1.96,
) -> AbcCiReport:
    """Post-corrected estimate with an approximate confidence interval.

    The half-width combines the chain's integrated autocorrelation time
    — computed on the full ``f`` series at the chain tolerance — with
    the indicator-normalized function variance

        S = sum over selected of (f - estimate)^2 / count^2.
    """
    if len(trace) < 100:
        raise ParameterError("need at least 100 iterations for an interval")
    values = _function_values(trace, f)
    sorted_distances, cumulative = _sorted_cumulative(trace, values)
    if not 0.0 < epsilon <= trace.epsilon0:
        raise ParameterError(
            "post-correction tolerance must lie in (0, chain tolerance]"
        )
    estimate, count = _estimate_at(sorted_distances, cumulative, epsilon)
    if count == 0:
        raise EmptySelectionError(
            f"no retained simulation within tolerance {epsilon}; smallest "
            f"recorded distance is {sorted_distances[0]}",
            min_distance=float(sorted_distances[0]),
        )
    iact = series_stats(values).iact
    selected = trace.distances <= epsilon
    deviations = values[selected] - estimate
    function_variance = float(np.sum(deviations * deviations)) / (count * count)
    half_width = beta * math.sqrt(iact * function_variance)
    return AbcCiReport(
        epsilon=float(epsilon),
        estimate=estimate,
        iact=iact,
        function_variance=function_variance,
        beta=beta,
        lower=estimate - half_width,
        upper=estimate + half_width,
    )
