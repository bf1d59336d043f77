"""Euler-discretized diffusion models and their fine/coarse couplings.

A diffusion observed at unit-spaced times is approximated at level
``l`` by an Euler scheme with mesh ``h_l = interval * 2**-l``: one
substep per interval at level 0, doubling with each level.  The
coupled model advances a fine path (level ``l``) and a coarse path
(level ``l - 1``) with a shared Brownian increment sequence — each
coarse increment is the sum of the two corresponding fine increments —
and weighs particles by the average of the two marginal potentials.

The linear-drift (mean-reverting) family plays the role of an exact
oracle: composing its Euler substeps over an interval gives a linear-
Gaussian transition at every level, so per-level likelihoods, and the
exact-transition limit, are Kalman-computable (see `ou_level_lgssm`
and `ou_exact_lgssm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalOverflowError
from .fk import FeynmanKacModel
from .lgssm import LinearGaussianSSM

__all__ = [
    "DriftDiffusion",
    "LinearDrift",
    "GeometricBrownian",
    "ConstantDrift",
    "EulerDiffusionModel",
    "CoupledEulerModel",
    "DiffusionFamily",
    "coupled_euler_interval",
    "ou_level_lgssm",
    "ou_exact_lgssm",
]


class DriftDiffusion:
    """Drift/diffusion coefficient pair ``a(theta, x)``, ``b(theta, x)``.

    Implementations must vectorize over ``x`` and be cheap: they are
    called once per Euler substep.
    """

    theta_dim: int = 1

    def drift(self, theta, x):
        raise NotImplementedError

    def diffusion(self, theta, x):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearDrift(DriftDiffusion):
    """Mean-reverting linear dynamics: ``a(x) = theta[0] * x``, ``b = sigma``."""

    sigma: float = 1.0

    def drift(self, theta, x):
        return theta[0] * x

    def diffusion(self, theta, x):
        return self.sigma


@dataclass(frozen=True)
class GeometricBrownian(DriftDiffusion):
    """Multiplicative dynamics: ``a(x) = theta[0] * x``, ``b(x) = sigma * x``."""

    sigma: float = 0.2

    def drift(self, theta, x):
        return theta[0] * x

    def diffusion(self, theta, x):
        return self.sigma * x


@dataclass(frozen=True)
class ConstantDrift(DriftDiffusion):
    """State-independent dynamics ``a = theta[0]``, ``b = sigma``.

    Euler is exact for this family at every mesh, which makes it the
    reference case where all discretization levels coincide.
    """

    sigma: float = 1.0

    def drift(self, theta, x):
        return theta[0]

    def diffusion(self, theta, x):
        return self.sigma


def _check_finite(x, theta, level):
    if not np.all(np.isfinite(x)):
        raise NumericalOverflowError(
            f"Euler update produced a non-finite state at level {level}",
            state=x,
            theta=theta,
            level=level,
        )


# Increments are drawn in bounded row blocks rather than one (steps, N)
# array: a generator's stream is consumed sequentially, so the chunked
# draws are bit-identical to a single allocation while deep levels stay
# within a fixed memory footprint.
_INCREMENT_BLOCK = 1 << 20


def _increment_blocks(steps: int, width: int, sd: float, rng):
    rows = max(2, (_INCREMENT_BLOCK // max(width, 1)) & ~1)  # even row count
    start = 0
    while start < steps:
        take = min(rows, steps - start)
        yield rng.normal(0.0, sd, size=(take, width))
        start += take


@dataclass(frozen=True, eq=False)
class EulerDiffusionModel(FeynmanKacModel):
    """Euler scheme at a fixed level, observed through Gaussian noise.

    Observation ``p`` contributes a potential ``N(y_p; obs_coeff * x_p,
    obs_var)``; the first observation applies to the initial state, and
    each later one follows ``2**level`` Euler substeps spanning one
    inter-observation interval.
    """

    dynamics: DriftDiffusion = None
    theta: np.ndarray = None
    level: int = 0
    interval: float = 1.0
    init_mean: float = 0.0
    init_sd: float = 1.0
    obs_coeff: float = 1.0
    obs_var: float = 1.0
    ys: np.ndarray = None
    n: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "ys", np.asarray(self.ys, float))
        object.__setattr__(self, "n", self.ys.shape[0] - 1)
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, float)))

    @property
    def substeps(self) -> int:
        return 2**self.level

    @property
    def mesh(self) -> float:
        return self.interval * 2.0**-self.level

    def sample_initial(self, size, rng):
        return self.init_mean + self.init_sd * rng.standard_normal(size)

    def sample_transition(self, p, x, rng):
        steps = self.substeps
        h = self.mesh
        dyn, theta = self.dynamics, self.theta
        for incs in _increment_blocks(steps, x.shape[0], math.sqrt(h), rng):
            for j in range(incs.shape[0]):
                x = x + dyn.drift(theta, x) * h + dyn.diffusion(theta, x) * incs[j]
        _check_finite(x, theta, self.level)
        return x

    def log_potential(self, p, x):
        resid = self.ys[p] - self.obs_coeff * x
        return -0.5 * (resid * resid) / self.obs_var - 0.5 * math.log(
            2.0 * math.pi * self.obs_var
        )


@dataclass(frozen=True, eq=False)
class CoupledEulerModel(FeynmanKacModel):
    """Fine/coarse Euler pair driven by a common Brownian path.

    States have shape ``(N, 2)``: column 0 is the fine path (level
    ``level``), column 1 the coarse path (level ``level - 1``).  Both
    start from the same initial draw.  The model exposes the two
    marginal observation potentials (`log_potential_pair`); the delta
    filter (`mcis.smc.run_delta_pf`) weighs particles by their
    arithmetic mean, which is positive whenever either marginal is.
    """

    fine: EulerDiffusionModel = None
    coarse: EulerDiffusionModel = None
    n: int = field(default=0)

    def __post_init__(self):
        if self.fine.level < 1:
            raise ValueError("coupling requires fine level >= 1")
        if self.coarse.level != self.fine.level - 1:
            raise ValueError("coarse level must be fine level - 1")
        object.__setattr__(self, "n", self.fine.n)

    @property
    def level(self) -> int:
        return self.fine.level

    def sample_initial(self, size, rng):
        x0 = self.fine.sample_initial(size, rng)
        return np.stack([x0, x0], axis=1)

    def sample_transition(self, p, x, rng):
        x_fine, x_coarse = coupled_euler_interval(self, x[:, 0], x[:, 1], rng)
        return np.stack([x_fine, x_coarse], axis=1)

    def log_potential_pair(self, p, x):
        """Marginal log-potentials ``(fine, coarse)`` at step ``p``."""
        return self.fine.log_potential(p, x[:, 0]), self.coarse.log_potential(p, x[:, 1])


def coupled_euler_interval(model: CoupledEulerModel, x_fine, x_coarse, rng):
    """Advance both paths across one inter-observation interval.

    The fine path takes ``2**level`` substeps with independent Gaussian
    increments; the coarse path takes half as many, each increment the
    sum of the two corresponding fine increments.  Accepts scalars or
    particle vectors.
    """
    fine, coarse = model.fine, model.coarse
    scalar_in = np.ndim(x_fine) == 0
    x_f = np.atleast_1d(np.asarray(x_fine, float))
    x_c = np.atleast_1d(np.asarray(x_coarse, float))
    steps_f = fine.substeps
    h_f, h_c = fine.mesh, coarse.mesh
    dyn, theta = fine.dynamics, fine.theta
    # blocks have even row counts, so fine increments pair up within
    # each block to form the coarse increments
    for incs in _increment_blocks(steps_f, x_f.shape[0], math.sqrt(h_f), rng):
        for j in range(incs.shape[0]):
            x_f = x_f + dyn.drift(theta, x_f) * h_f + dyn.diffusion(theta, x_f) * incs[j]
        coarse_incs = incs[0::2] + incs[1::2]
        for j in range(coarse_incs.shape[0]):
            x_c = (
                x_c
                + dyn.drift(theta, x_c) * h_c
                + dyn.diffusion(theta, x_c) * coarse_incs[j]
            )
    _check_finite(x_f, theta, fine.level)
    _check_finite(x_c, theta, coarse.level)
    if scalar_in:
        return float(x_f[0]), float(x_c[0])
    return x_f, x_c


@dataclass(frozen=True, eq=False)
class DiffusionFamily:
    """Factory binding a dynamics family to data and observation noise.

    Builds the single-level and coupled Feynman-Kac models for any
    parameter point; this is the object the multilevel drivers carry.
    """

    dynamics: DriftDiffusion = None
    interval: float = 1.0
    init_mean: float = 0.0
    init_sd: float = 1.0
    obs_coeff: float = 1.0
    obs_var: float = 1.0
    ys: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "ys", np.asarray(self.ys, float))

    @property
    def n_intervals(self) -> int:
        return self.ys.shape[0] - 1

    def level_model(self, theta, level: int) -> EulerDiffusionModel:
        return EulerDiffusionModel(
            dynamics=self.dynamics,
            theta=theta,
            level=level,
            interval=self.interval,
            init_mean=self.init_mean,
            init_sd=self.init_sd,
            obs_coeff=self.obs_coeff,
            obs_var=self.obs_var,
            ys=self.ys,
        )

    def coupled_model(self, theta, level: int) -> CoupledEulerModel:
        return CoupledEulerModel(
            fine=self.level_model(theta, level),
            coarse=self.level_model(theta, level - 1),
        )


# ---------------------------------------------------------------------------
# Exact linear-Gaussian views of the linear-drift family


def _ou_interval_moments(drift_coeff: float, sigma: float, interval: float, level: int):
    """Transition coefficient and noise variance of one observed interval
    of the Euler-discretized linear-drift diffusion at a given level."""
    steps = 2**level
    h = interval / steps
    factor = 1.0 + drift_coeff * h
    coeff = factor**steps
    # var = sigma^2 h * sum_{j<steps} factor^(2j)
    ratio = factor * factor
    if abs(ratio - 1.0) < 1e-14:
        total = float(steps)
    else:
        total = (ratio**steps - 1.0) / (ratio - 1.0)
    return coeff, sigma * sigma * h * total


def _ou_exact_moments(drift_coeff: float, sigma: float, interval: float):
    """Transition coefficient and noise variance of the exact (infinite-
    resolution) transition of the linear-drift diffusion over one
    observed interval."""
    if drift_coeff == 0.0:
        return 1.0, sigma * sigma * interval
    var = sigma * sigma * math.expm1(2.0 * drift_coeff * interval) / (2.0 * drift_coeff)
    return math.exp(drift_coeff * interval), var


def ou_level_lgssm(family: DiffusionFamily, theta, level: int) -> LinearGaussianSSM:
    """Exact linear-Gaussian model of the Euler scheme at ``level``.

    Only valid for `LinearDrift` dynamics, whose Euler substeps compose
    to a linear-Gaussian transition per observed interval.
    """
    if not isinstance(family.dynamics, LinearDrift):
        raise TypeError("per-level exact models exist only for LinearDrift dynamics")
    theta = np.atleast_1d(np.asarray(theta, float))
    coeff, var = _ou_interval_moments(
        float(theta[0]), family.dynamics.sigma, family.interval, level
    )
    return LinearGaussianSSM(
        transition_matrix=coeff,
        transition_cov=var,
        observation_matrix=family.obs_coeff,
        observation_cov=family.obs_var,
        initial_mean=family.init_mean,
        initial_cov=family.init_sd**2,
        observations=family.ys,
    )


def ou_exact_lgssm(family: DiffusionFamily, theta) -> LinearGaussianSSM:
    """Exact-transition (infinite-resolution) linear-Gaussian model of
    the linear-drift diffusion over one observed interval."""
    if not isinstance(family.dynamics, LinearDrift):
        raise TypeError("exact transitions are available only for LinearDrift dynamics")
    theta = np.atleast_1d(np.asarray(theta, float))
    coeff, var = _ou_exact_moments(
        float(theta[0]), family.dynamics.sigma, family.interval
    )
    return LinearGaussianSSM(
        transition_matrix=coeff,
        transition_cov=var,
        observation_matrix=family.obs_coeff,
        observation_cov=family.obs_var,
        initial_mean=family.init_mean,
        initial_cov=family.init_sd**2,
        observations=family.ys,
    )
