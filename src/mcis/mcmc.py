"""Random-walk Metropolis kernels over particle-filter likelihoods.

One loop, ``_metropolis``, runs every chain here.  It walks a list of
acceptance stages, each a log target at a parameter point: stage 0
accepts with the ratio of ``prior * target_0`` values, each later stage
with the ratio of ``target_s / target_(s-1)`` values, and runs only
once the stage before it accepted.  The three samplers are stage lists:

* ``run_pmmh`` — one exact stage, the particle normalizer: the
  pseudo-marginal chain.
* ``run_delayed_acceptance`` — the regularized approximate likelihood
  as a screen, then the exact stage as the correction.
* ``run_approx_marginal_chain`` — the regularized approximate stage
  alone, regrouped into a jump chain for later importance-sampling
  correction.

Acceptance ratios are computed entirely in log domain and the tests
draw log-uniforms.  Proposal covariance adapts during a declared
burn-in and then freezes, so post-burn-in chains are plain Markov.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Callable

import numpy as np

from .errors import InitializationError, ParameterError, SupportConditionError
from .smc import run_particle_filter

__all__ = [
    "Prior",
    "UniformPrior",
    "GaussianPrior",
    "ProposalState",
    "propose",
    "adapt_covariance",
    "ChainTrace",
    "JumpChain",
    "LikelihoodEvaluation",
    "particle_likelihood_runner",
    "run_pmmh",
    "run_delayed_acceptance",
    "run_approx_marginal_chain",
]

ADAPT_JITTER = 1e-10
MAX_INIT_RETRIES = 100


# ---------------------------------------------------------------------------
# Priors


class Prior:
    """Parameter prior: a log density and a sampler.

    The log density must be evaluable at any point; ``-inf`` marks zero
    prior mass.
    """

    def log_density(self, theta: np.ndarray) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class UniformPrior(Prior):
    """Independent uniform components on [lower, upper]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, float))
        upper = np.atleast_1d(np.asarray(self.upper, float))
        if lower.shape != upper.shape or np.any(upper <= lower):
            raise ParameterError("uniform prior needs lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    def log_density(self, theta) -> float:
        theta = np.asarray(theta, float)
        if np.any(theta < self.lower) or np.any(theta > self.upper):
            return -math.inf
        return -float(np.sum(np.log(self.upper - self.lower)))

    def sample(self, rng) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class GaussianPrior(Prior):
    """Independent Gaussian components."""

    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, float))
        sd = np.atleast_1d(np.asarray(self.sd, float))
        sd = np.broadcast_to(sd, mean.shape).copy()
        if np.any(sd <= 0):
            raise ParameterError("prior standard deviations must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sd", sd)

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, theta) -> float:
        z = (np.asarray(theta, float) - self.mean) / self.sd
        return float(
            -0.5 * np.sum(z * z)
            - np.sum(np.log(self.sd))
            - 0.5 * self.mean.size * math.log(2.0 * math.pi)
        )

    def sample(self, rng) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(self.mean.size)


# ---------------------------------------------------------------------------
# Random-walk proposal with adaptive covariance


@dataclass(frozen=True, eq=False)
class ProposalState:
    """Gaussian random-walk proposal and its adaptation accumulators.

    ``covariance`` is the actual proposal covariance — symmetric
    positive definite by construction (a jitter floor is always mixed
    in).  ``raw_cov`` and ``mean`` are the recursive estimates the
    adaptation maintains; ``covariance = scale * raw_cov + jitter * I``.
    """

    covariance: np.ndarray
    scale: float = 0.0  # 0 → filled with 2.38^2 / dim
    step: int = 0
    frozen: bool = False
    mean: np.ndarray | None = None
    raw_cov: np.ndarray | None = None

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.covariance, float))
        dim = cov.shape[0]
        if cov.shape != (dim, dim) or not np.allclose(cov, cov.T):
            raise ParameterError("proposal covariance must be square symmetric")
        object.__setattr__(self, "covariance", cov)
        scale = self.scale if self.scale > 0 else 2.38**2 / dim
        object.__setattr__(self, "scale", float(scale))
        if self.mean is None:
            object.__setattr__(self, "mean", np.zeros(dim))
        else:
            object.__setattr__(self, "mean", np.asarray(self.mean, float))
        if self.raw_cov is None:
            object.__setattr__(self, "raw_cov", cov / scale)
        else:
            object.__setattr__(self, "raw_cov", np.asarray(self.raw_cov, float))

    @classmethod
    def isotropic(cls, dim: int, sd: float = 1.0) -> "ProposalState":
        """Proposal with covariance ``sd^2 I``, default adaptation scale."""
        return cls(covariance=sd * sd * np.eye(dim))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def freeze(self) -> "ProposalState":
        return replace(self, frozen=True)


def propose(
    current: np.ndarray, prop: ProposalState, rng: np.random.Generator
) -> np.ndarray:
    """Symmetric Gaussian random-walk step from ``current``."""
    current = np.atleast_1d(np.asarray(current, float))
    chol = np.linalg.cholesky(prop.covariance)
    return current + chol @ rng.standard_normal(prop.dim)


def adapt_covariance(
    prop: ProposalState, new_sample: np.ndarray, k: int
) -> ProposalState:
    """One stochastic-approximation update of the proposal covariance.

    Uses step size ``k**(-2/3)`` for the running mean/covariance, scales
    the covariance estimate by ``scale`` (default the classic
    ``2.38^2 / dim``), and mixes in a small identity jitter so the
    result stays positive definite.  A frozen state is returned as-is.
    """
    if prop.frozen:
        return prop
    if k < 1:
        raise ParameterError("adaptation step must be >= 1")
    gamma = float(k) ** (-2.0 / 3.0)
    x = np.atleast_1d(np.asarray(new_sample, float))
    delta = x - prop.mean
    new_mean = prop.mean + gamma * delta
    new_raw = prop.raw_cov + gamma * (np.outer(delta, delta) - prop.raw_cov)
    new_cov = prop.scale * new_raw + ADAPT_JITTER * np.eye(prop.dim)
    return replace(
        prop, covariance=new_cov, mean=new_mean, raw_cov=new_raw, step=k
    )


# ---------------------------------------------------------------------------
# Trace containers


@dataclass(frozen=True, eq=False)
class ChainTrace:
    """Per-iteration record of a Metropolis chain.

    ``thetas[k]`` is the state after iteration ``k``; ``accepted[k]``
    says whether that iteration's proposal was taken.  ``functionals``
    carries the per-iteration value of the declared test function under
    the current state's particle weights (NaN when none was declared).
    ``payloads`` holds algorithm-specific extras (e.g. the realized
    stage probabilities of delayed acceptance).
    """

    thetas: np.ndarray
    logliks: np.ndarray
    accepted: np.ndarray
    functionals: np.ndarray
    payloads: list | None = None
    n_burn: int = 0

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted)) if len(self) else 0.0

    def post_burn_in(self) -> np.ndarray:
        return self.thetas[self.n_burn:]

    def to_records(self):
        """One JSON-safe dict per iteration."""
        for k in range(len(self)):
            yield {
                "k": k + 1,
                "theta": self.thetas[k].tolist(),
                "loglik_hat": float(self.logliks[k]),
                "accepted": bool(self.accepted[k]),
            }


@dataclass(frozen=True, eq=False)
class JumpChain:
    """Distinct accepted states with holding times.

    Consecutive states are distinct and holding times are positive;
    expanding by holding times reproduces the underlying chain's state
    sequence exactly.  ``logliks`` caches the realized approximate
    log-likelihood of each state; ``payloads`` whatever the likelihood
    evaluator attached (kept so later phases can reuse the level-0
    particle output instead of recomputing it).
    """

    thetas: np.ndarray
    logliks: np.ndarray
    holding_times: np.ndarray
    payloads: list | None = None

    def __post_init__(self):
        holding = np.asarray(self.holding_times, np.int64)
        if holding.size and holding.min() < 1:
            raise ParameterError("holding times must be positive")
        object.__setattr__(self, "holding_times", holding)

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def total_length(self) -> int:
        return int(self.holding_times.sum())

    def expand_thetas(self) -> np.ndarray:
        """Reconstruct the full state sequence, one row per iteration."""
        return np.repeat(self.thetas, self.holding_times, axis=0)

    def to_records(self):
        for j in range(len(self)):
            yield {
                "j": j + 1,
                "theta": self.thetas[j].tolist(),
                "loglik0_hat": float(self.logliks[j]),
                "holding_time": int(self.holding_times[j]),
            }


# ---------------------------------------------------------------------------
# Likelihood evaluation plumbing


@dataclass(frozen=True, eq=False)
class LikelihoodEvaluation:
    """Result of one likelihood evaluation at a parameter point.

    ``functional`` is the self-normalized value of the declared test
    function under this evaluation's particle weights (NaN if no test
    function or no particles are involved); ``payload`` is retained
    verbatim (smoother output, costs, ...).
    """

    log_likelihood: float
    functional: float = math.nan
    payload: Any = None


def _as_evaluation(result) -> LikelihoodEvaluation:
    if isinstance(result, LikelihoodEvaluation):
        return result
    if isinstance(result, tuple):
        log_lik, payload = result
        return LikelihoodEvaluation(float(log_lik), payload=payload)
    return LikelihoodEvaluation(float(result))


def particle_likelihood_runner(
    model_family: Callable[[np.ndarray], Any],
    n_particles: int,
    scheme: str = "systematic",
    test_function: Callable | None = None,
):
    """Build a likelihood evaluator backed by the particle filter.

    ``model_family(theta)`` must return the Feynman-Kac model at
    ``theta``.  The returned callable maps ``(theta, rng)`` to a
    `LikelihoodEvaluation` whose payload is the smoother estimate and
    whose functional is the self-normalized value of ``test_function``
    (a callable of ``(theta, final states)`` returning per-particle
    values).
    """

    def runner(theta, rng) -> LikelihoodEvaluation:
        model = model_family(theta)
        funcs = []
        if test_function is not None:
            funcs = [lambda states: test_function(theta, states)]
        _, estimate = run_particle_filter(
            model, n_particles, scheme=scheme, rng=rng, test_functions=funcs
        )
        functional = float(estimate.self_normalized[0]) if funcs else math.nan
        return LikelihoodEvaluation(
            log_likelihood=estimate.log_normalizer,
            functional=functional,
            payload=estimate,
        )

    return runner


def _log_regularized(log_likelihood: float, eps_reg: float) -> float:
    """log(L + eps) from log L, staying in log domain."""
    if eps_reg < 0:
        raise ParameterError("regularization must be nonnegative")
    if eps_reg == 0.0:
        return log_likelihood
    if log_likelihood == -math.inf:
        return math.log(eps_reg)
    return float(np.logaddexp(log_likelihood, math.log(eps_reg)))


def _log_uniform(rng: np.random.Generator) -> float:
    """``log(u)`` for one uniform draw; ``-inf`` for ``u = 0``, where
    ``math.log`` raises (every ``u > 0`` decides as before)."""
    u = rng.random()
    return math.log(u) if u > 0.0 else -math.inf


def _accepts(rng: np.random.Generator, log_ratio: float) -> bool:
    if log_ratio >= 0.0:
        return True
    if log_ratio == -math.inf:
        return False
    return _log_uniform(rng) < log_ratio


# ---------------------------------------------------------------------------
# The Metropolis loop


def _stage(evaluate: Callable, eps_reg: float = 0.0):
    """Stage whose log target is ``log(L + eps_reg)`` for the likelihood
    ``L`` that ``evaluate(theta, rng)`` returns."""

    def stage(theta, rng):
        ev = _as_evaluation(evaluate(theta, rng))
        return _log_regularized(ev.log_likelihood, eps_reg), ev

    return stage


def _metropolis(
    prior: Prior,
    proposal: ProposalState,
    stages: list,
    n_iterations: int,
    rng: np.random.Generator,
    n_burn: int,
    what: str,
    every_stage: bool = False,
):
    """Random-walk Metropolis over a list of acceptance stages.

    Each stage maps ``(theta, rng)`` to ``(log target, evaluation)``.
    Stage 0 accepts with the ratio of ``prior * target_0`` values, stage
    ``s > 0`` with the ratio of ``target_s / target_(s-1)`` values, and
    a stage runs only once the one before accepted; the chain leaves
    ``prior * target_last`` invariant.  With ``every_stage`` every
    stage's evaluation runs on each in-support proposal, but no
    acceptance draw follows a rejection.  The start is the first prior
    draw at which every target is positive.

    Yields per iteration ``(theta, current, accepted, deltas)``: the
    state after it, that state's ``(log target, evaluation)`` per stage
    (one list per distinct state), whether the proposal was taken, and
    the log ratios of the stages that ran (``None`` when the proposal
    has zero prior mass).  The proposal adapts for ``n_burn``
    iterations, then freezes.
    """

    def start(theta):
        if prior.log_density(theta) == -math.inf:
            return None
        current = []
        for stage in stages:
            current.append(stage(theta, rng))
            if current[-1][0] == -math.inf:
                return None
        return current

    for _ in range(MAX_INIT_RETRIES):
        theta = np.atleast_1d(prior.sample(rng))
        current = start(theta)
        if current is not None:
            break
    else:
        raise InitializationError(
            f"no valid starting point for {what} in {MAX_INIT_RETRIES} prior draws"
        )
    log_prior = prior.log_density(theta)

    for k in range(1, n_iterations + 1):
        theta_new = propose(theta, proposal, rng)
        log_prior_new = prior.log_density(theta_new)
        accepted, deltas = False, None
        if log_prior_new > -math.inf:
            accepted, deltas, new = True, [], []
            for s, stage in enumerate(stages):
                if s and not (accepted or every_stage):
                    break
                target, ev = stage(theta_new, rng)
                if s == 0:
                    delta = (log_prior_new + target) - (log_prior + current[0][0])
                else:
                    if target > -math.inf and new[-1][0] == -math.inf:
                        raise SupportConditionError(
                            "approximate likelihood vanished where the exact one "
                            "is positive; use eps_reg > 0"
                        )
                    delta = (target - new[-1][0]) - (current[s][0] - current[s - 1][0])
                new.append((target, ev))
                deltas.append(delta)
                accepted = accepted and _accepts(rng, delta)
            if accepted:
                theta, log_prior, current = theta_new, log_prior_new, new
        yield theta, current, accepted, deltas
        if k <= n_burn:
            proposal = adapt_covariance(proposal, theta, k)
            if k == n_burn:
                proposal = proposal.freeze()


def _chain_trace(steps, n_burn: int, row: Callable | None = None):
    """`ChainTrace` of a chain whose last stage is exact, and the mean of
    its post-burn-in functionals; ``row(deltas)`` makes each payload."""
    thetas, logliks, accepted, functionals, payloads = [], [], [], [], []
    for theta, current, took, deltas in steps:
        ev = current[-1][1]
        thetas.append(theta)
        logliks.append(ev.log_likelihood)
        accepted.append(took)
        functionals.append(ev.functional)
        if row is not None:
            payloads.append(row(deltas))
    functionals = np.array(functionals, float)
    trace = ChainTrace(
        thetas=np.array(thetas, float),
        logliks=np.array(logliks, float),
        accepted=np.array(accepted, bool),
        functionals=functionals,
        payloads=payloads if row is not None else None,
        n_burn=n_burn,
    )
    return trace, float(np.mean(functionals[n_burn:]))


def _check_chain(n_iterations: int, eps_reg: float = 0.0) -> None:
    if n_iterations < 1:
        raise ParameterError("need at least one iteration")
    if eps_reg < 0:
        raise ParameterError("regularization must be nonnegative")


# ---------------------------------------------------------------------------
# The three samplers


def run_pmmh(
    prior: Prior,
    proposal: ProposalState,
    pf_runner: Callable,
    n_iterations: int,
    rng: np.random.Generator,
    n_burn: int = 0,
) -> tuple[ChainTrace, float]:
    """Pseudo-marginal Metropolis-Hastings over a likelihood estimator.

    ``pf_runner(theta, rng)`` returns the (unbiasedly estimated) log
    likelihood plus the current test-function value; any nonnegative
    unbiased estimator keeps the exact posterior invariant.  The chain
    estimator averages the per-iteration functional over post-burn-in
    iterations (NaN when the runner declares no test function).
    Proposal covariance adapts for ``n_burn`` iterations, then freezes.
    """
    _check_chain(n_iterations)
    stages = [_stage(pf_runner)]
    steps = _metropolis(prior, proposal, stages, n_iterations, rng, n_burn, "PMMH")
    return _chain_trace(steps, n_burn)


def run_delayed_acceptance(
    prior: Prior,
    proposal: ProposalState,
    approx_lik: Callable,
    pf_runner: Callable,
    eps_reg: float,
    n_iterations: int,
    rng: np.random.Generator,
    n_burn: int = 0,
    diagnostic_stage2: bool = False,
) -> tuple[ChainTrace, float]:
    """Two-stage Metropolis: cheap screen, exact correction.

    Stage 1 accepts with the ratio of ``prior * (approx_lik + eps_reg)``
    values; only then is the exact particle likelihood computed, and
    stage 2 accepts with the ratio of exact-to-regularized-approximate
    likelihood ratios.  With ``eps_reg = 0`` the caller asserts the
    support condition: the approximate likelihood must be positive
    wherever the exact one is.

    With ``diagnostic_stage2=True`` the exact filter also runs on
    stage-1 rejections so that every iteration's payload records all
    three realized log acceptance probabilities (stage 1, stage 2, and
    the single-stage probability from the same estimates).  The chain's
    law is unchanged; it only spends more likelihood evaluations.
    """
    _check_chain(n_iterations, eps_reg)
    stages = [_stage(approx_lik, eps_reg), _stage(pf_runner)]
    steps = _metropolis(
        prior, proposal, stages, n_iterations, rng, n_burn, "delayed acceptance",
        every_stage=diagnostic_stage2,
    )
    return _chain_trace(steps, n_burn, _da_row)


def _da_row(deltas) -> dict:
    if deltas is None:
        # zero-mass proposal: stage 1 rejects outright; the exact
        # likelihood plays no role, so the single-stage probability
        # is zero as well
        return {"log_stage1": -math.inf, "log_stage2": 0.0, "log_pmmh": -math.inf}
    row = {"log_stage1": min(0.0, deltas[0]), "log_stage2": None, "log_pmmh": None}
    if len(deltas) > 1:
        row["log_stage2"] = min(0.0, deltas[1])
        row["log_pmmh"] = min(0.0, deltas[0] + deltas[1])
    return row


def run_approx_marginal_chain(
    prior: Prior,
    proposal: ProposalState,
    approx_lik: Callable,
    eps_reg: float,
    n_iterations: int,
    rng: np.random.Generator,
    n_burn: int = 0,
) -> JumpChain:
    """Metropolis chain targeting ``prior * (approx_lik + eps_reg)``.

    Returns the post-burn-in portion in jump-chain form: one entry per
    distinct accepted state with its holding time, realized approximate
    log-likelihood, and the evaluator's payload.  The holding times sum
    to ``n_iterations - n_burn``.
    """
    _check_chain(n_iterations, eps_reg)
    if n_burn >= n_iterations:
        raise ParameterError("burn-in must leave at least one iteration")
    stages = [_stage(approx_lik, eps_reg)]
    steps = _metropolis(
        prior, proposal, stages, n_iterations, rng, n_burn, "approximate chain"
    )
    thetas, logliks, holding, payloads = [], [], [], []
    for theta, ((_, ev),), took, _ in islice(steps, n_burn, None):
        if took or not holding:  # the first kept iteration opens a block
            thetas.append(theta)
            logliks.append(ev.log_likelihood)
            holding.append(1)
            payloads.append(ev.payload)
        else:
            holding[-1] += 1
    return JumpChain(
        thetas=np.array(thetas, float),
        logliks=np.array(logliks, float),
        holding_times=np.array(holding, np.int64),
        payloads=payloads,
    )
