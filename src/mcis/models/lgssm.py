"""Linear-Gaussian state-space model and its exact Kalman oracles.

The linear-Gaussian model is the workhorse oracle of the test suite:
its marginal likelihood and smoothed means are computable exactly with
the Kalman filter/smoother, giving ground truth for the Monte Carlo
estimators.  Scalar and multivariate models are both supported; the
bootstrap Feynman-Kac view used by the particle filter keeps a fast
path for scalar states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..errors import ParameterError
from .fk import FeynmanKacModel

__all__ = [
    "KalmanLikelihood",
    "LgssmFamily",
    "LinearGaussianSSM",
    "kalman_loglik",
    "kalman_smoother_means",
    "lgssm_feynman_kac",
]

ArrayLike = Union[float, np.ndarray]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class LinearGaussianSSM:
    """Linear-Gaussian state-space model with fixed observations.

    The latent chain is ``X_0 ~ N(initial_mean, initial_cov)`` and
    ``X_p = transition_matrix X_{p-1} + N(0, transition_cov)``; each
    observation is ``Y_p = observation_matrix X_p + N(0, observation_cov)``.
    All parameters may be scalars (univariate model) or matrices.

    Parameters
    ----------
    transition_matrix, transition_cov : scalar or (d, d) arrays
    observation_matrix : scalar or (q, d) array
    observation_cov : scalar or (q, q) array
    initial_mean : scalar or (d,) array
    initial_cov : scalar or (d, d) array
    observations : (n+1,) or (n+1, q) array
        One observation per time step ``0 .. n``.
    """

    transition_matrix: ArrayLike
    transition_cov: ArrayLike
    observation_matrix: ArrayLike
    observation_cov: ArrayLike
    initial_mean: ArrayLike
    initial_cov: ArrayLike
    observations: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "observations", np.atleast_1d(np.asarray(self.observations, float))
        )
        for name in ("transition_matrix", "observation_matrix", "initial_mean"):
            _validate_finite(getattr(self, name), name)
        _validate_cov(self.transition_cov, "transition_cov", allow_singular=True)
        _validate_cov(self.initial_cov, "initial_cov", allow_singular=True)
        _validate_cov(self.observation_cov, "observation_cov", allow_singular=False)

    @property
    def scalar(self) -> bool:
        return np.ndim(self.transition_matrix) == 0 and self.observations.ndim == 1

    @property
    def horizon(self) -> int:
        return self.observations.shape[0] - 1


def _is_0d(value) -> bool:
    # np.ndim costs microseconds on a plain float; check the common case first
    return isinstance(value, (float, int)) or np.ndim(value) == 0


def _validate_finite(value, name):
    if _is_0d(value):
        finite = math.isfinite(value)
    else:
        finite = np.isfinite(np.asarray(value, float)).all()
    if not finite:
        raise ParameterError(f"{name} must be finite")


def _validate_cov(value, name, allow_singular):
    if _is_0d(value):
        _validate_variance(float(value), name, allow_singular)
        return
    mat = np.atleast_2d(np.asarray(value, float))
    if mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ParameterError(f"{name} must be finite")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ParameterError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    floor = -1e-12 * max(1.0, float(np.max(np.abs(eigs))))
    if np.min(eigs) < floor:
        raise ParameterError(f"{name} must be positive semidefinite")
    if not allow_singular and np.min(eigs) <= 0.0:
        raise ParameterError(f"{name} must be positive definite")


def _validate_variance(value: float, name, allow_singular):
    """`_validate_cov` for a 0-d value: its only eigenvalue is itself."""
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite")
    if value < -1e-12 * max(1.0, abs(value)):
        raise ParameterError(f"{name} must be positive semidefinite")
    if not allow_singular and value <= 0.0:
        raise ParameterError(f"{name} must be positive definite")


def _as_matrices(model: LinearGaussianSSM):
    trans = np.atleast_2d(np.asarray(model.transition_matrix, float))
    d = trans.shape[0]
    q_cov = np.atleast_2d(np.asarray(model.transition_cov, float))
    obs_mat = np.asarray(model.observation_matrix, float)
    if obs_mat.ndim == 0:
        obs_mat = obs_mat.reshape(1, 1)
    elif obs_mat.ndim == 1:
        obs_mat = obs_mat.reshape(1, -1)
    r_cov = np.atleast_2d(np.asarray(model.observation_cov, float))
    mean0 = np.atleast_1d(np.asarray(model.initial_mean, float))
    cov0 = np.atleast_2d(np.asarray(model.initial_cov, float))
    ys = model.observations
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    if trans.shape != (d, d) or q_cov.shape != (d, d) or cov0.shape != (d, d):
        raise ParameterError("inconsistent latent dimensions")
    if obs_mat.shape[1] != d or r_cov.shape[0] != obs_mat.shape[0]:
        raise ParameterError("inconsistent observation dimensions")
    if ys.shape[1] != obs_mat.shape[0]:
        raise ParameterError("observation rows do not match observation dimension")
    return trans, q_cov, obs_mat, r_cov, mean0, cov0, ys


def _forward_pass(model: LinearGaussianSSM):
    """Kalman forward recursion.

    Returns the log marginal likelihood together with the filtered and
    one-step-predicted moments needed by the smoother.
    """
    trans, q_cov, obs_mat, r_cov, mean, cov, ys = _as_matrices(model)
    n_steps = ys.shape[0]
    loglik = 0.0
    filtered_means, filtered_covs = [], []
    predicted_means, predicted_covs = [], []
    for p in range(n_steps):
        if p > 0:
            mean = trans @ mean
            cov = trans @ cov @ trans.T + q_cov
        predicted_means.append(mean)
        predicted_covs.append(cov)
        # measurement update
        resid = ys[p] - obs_mat @ mean
        innov_cov = obs_mat @ cov @ obs_mat.T + r_cov
        chol = np.linalg.cholesky(innov_cov)
        white = np.linalg.solve(chol, resid)
        loglik += -0.5 * (
            resid.size * _LOG_2PI + 2.0 * np.sum(np.log(np.diag(chol))) + white @ white
        )
        gain = cov @ obs_mat.T @ np.linalg.inv(innov_cov)
        mean = mean + gain @ resid
        cov = cov - gain @ obs_mat @ cov
        cov = 0.5 * (cov + cov.T)
        filtered_means.append(mean)
        filtered_covs.append(cov)
    return float(loglik), filtered_means, filtered_covs, predicted_means, predicted_covs


def _scalar_loglik(trans, q_var, obs_gain, r_var, mean, var, ys) -> float:
    """`_forward_pass` log-likelihood of a scalar model in plain floats.

    Every step is the 1x1 matrix recursion's operation in its order:
    ``sqrt`` for the Cholesky factor, a division for the triangular
    solve, ``1 / S`` for the inverse and ``np.log`` (not ``math.log``,
    which rounds differently in rare cases).  The result is therefore
    bit-identical to the matrix path, at a small fraction of its cost.
    """
    loglik = 0.0
    for p, y in enumerate(ys):
        if p:
            mean = trans * mean
            var = trans * var * trans + q_var
        resid = y - obs_gain * mean
        innov_var = obs_gain * var * obs_gain + r_var
        if innov_var <= 0.0:
            # np.linalg.cholesky's outcome on a non-positive 1x1 matrix
            # (a NaN passes through it, as it does through math.sqrt)
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        chol = math.sqrt(innov_var)
        white = resid / chol
        loglik += -0.5 * (_LOG_2PI + 2.0 * np.log(chol) + white * white)
        gain = var * obs_gain * (1.0 / innov_var)
        mean = mean + gain * resid
        var = var - gain * obs_gain * var
    return float(loglik)


def kalman_loglik(model: LinearGaussianSSM) -> float:
    """Exact log marginal likelihood ``log p(y_{0:n})``."""
    params = (
        model.transition_matrix,
        model.transition_cov,
        model.observation_matrix,
        model.observation_cov,
        model.initial_mean,
        model.initial_cov,
    )
    if model.observations.ndim == 1 and all(_is_0d(v) for v in params):
        return _scalar_loglik(*map(float, params), model.observations.tolist())
    return _forward_pass(model)[0]


def kalman_smoother_means(model: LinearGaussianSSM) -> np.ndarray:
    """Exact smoothed means ``E[X_p | y_{0:n}]`` for ``p = 0 .. n``.

    Computed with the backward (Rauch-Tung-Striebel) recursion; returns
    an ``(n+1,)`` vector for scalar models, else ``(n+1, d)``.
    """
    trans = np.atleast_2d(np.asarray(model.transition_matrix, float))
    _, f_means, f_covs, p_means, p_covs = _forward_pass(model)
    n_steps = len(f_means)
    smoothed = [None] * n_steps
    smoothed[-1] = f_means[-1]
    for p in range(n_steps - 2, -1, -1):
        pred_cov = p_covs[p + 1]
        # gain = filtered_cov @ trans.T @ pred_cov^{-1}, with a
        # pseudo-inverse to tolerate degenerate (deterministic) models
        gain = f_covs[p] @ trans.T @ np.linalg.pinv(pred_cov)
        smoothed[p] = f_means[p] + gain @ (smoothed[p + 1] - p_means[p + 1])
    out = np.stack(smoothed)
    if model.scalar:
        return out[:, 0]
    return out


# ---------------------------------------------------------------------------
# Bootstrap Feynman-Kac view


@dataclass(frozen=True, eq=False)
class _ScalarLgssmFK(FeynmanKacModel):
    """Bootstrap filter model for a univariate linear-Gaussian SSM."""

    coeff: float = 0.0
    noise_sd: float = 0.0
    obs_coeff: float = 1.0
    obs_var: float = 1.0
    init_mean: float = 0.0
    init_sd: float = 1.0
    ys: tuple = ()
    n: int = field(default=0)

    def sample_initial(self, size, rng):
        return self.init_mean + self.init_sd * rng.standard_normal(size)

    def sample_transition(self, p, x, rng):
        return self.coeff * x + self.noise_sd * rng.standard_normal(x.shape[0])

    def log_potential(self, p, x):
        resid = self.ys[p] - self.obs_coeff * x
        return -0.5 * (resid * resid) / self.obs_var - 0.5 * math.log(
            2.0 * math.pi * self.obs_var
        )


@dataclass(frozen=True, eq=False)
class _VectorLgssmFK(FeynmanKacModel):
    """Bootstrap filter model for a multivariate linear-Gaussian SSM."""

    trans: np.ndarray = None
    trans_chol: np.ndarray = None
    obs_mat: np.ndarray = None
    obs_prec: np.ndarray = None
    obs_lognorm: float = 0.0
    init_mean: np.ndarray = None
    init_chol: np.ndarray = None
    ys: np.ndarray = None
    n: int = field(default=0)

    def sample_initial(self, size, rng):
        noise = rng.standard_normal((size, self.init_mean.size))
        return self.init_mean + noise @ self.init_chol.T

    def sample_transition(self, p, x, rng):
        noise = rng.standard_normal(x.shape)
        return x @ self.trans.T + noise @ self.trans_chol.T

    def log_potential(self, p, x):
        resid = self.ys[p] - x @ self.obs_mat.T
        quad = np.einsum("ij,jk,ik->i", resid, self.obs_prec, resid)
        return -0.5 * quad + self.obs_lognorm


def _psd_cholesky(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor tolerating exactly singular (e.g. zero) matrices."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(mat)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def lgssm_feynman_kac(model: LinearGaussianSSM) -> FeynmanKacModel:
    """Bootstrap Feynman-Kac view of a linear-Gaussian SSM.

    The transitions sample the latent chain and the potentials are the
    observation densities, so the filter's normalizer estimates the
    marginal likelihood that `kalman_loglik` computes exactly.
    """
    if model.scalar:
        return _ScalarLgssmFK(
            coeff=float(model.transition_matrix),
            noise_sd=math.sqrt(float(model.transition_cov)),
            obs_coeff=float(model.observation_matrix),
            obs_var=float(model.observation_cov),
            init_mean=float(model.initial_mean),
            init_sd=math.sqrt(float(model.initial_cov)),
            ys=tuple(float(y) for y in model.observations),
            n=model.horizon,
        )
    trans, q_cov, obs_mat, r_cov, mean0, cov0, ys = _as_matrices(model)
    chol_r = np.linalg.cholesky(r_cov)
    obs_lognorm = -0.5 * (
        ys.shape[1] * _LOG_2PI + 2.0 * float(np.sum(np.log(np.diag(chol_r))))
    )
    return _VectorLgssmFK(
        trans=trans,
        trans_chol=_psd_cholesky(q_cov),
        obs_mat=obs_mat,
        obs_prec=np.linalg.inv(r_cov),
        obs_lognorm=obs_lognorm,
        init_mean=mean0,
        init_chol=_psd_cholesky(cov0),
        ys=ys,
        n=ys.shape[0] - 1,
    )


# ---------------------------------------------------------------------------
# Parameter family (module-level, picklable, usable from worker processes)


@dataclass(frozen=True)
class LgssmFamily:
    """Scalar linear-Gaussian models indexed by the transition coefficient."""

    transition_noise: float
    observation_gain: float
    observation_noise: float
    initial_mean: float
    initial_variance: float
    observations: tuple

    def ssm(self, transition: float) -> LinearGaussianSSM:
        return LinearGaussianSSM(
            transition_matrix=transition,
            transition_cov=self.transition_noise,
            observation_matrix=self.observation_gain,
            observation_cov=self.observation_noise,
            initial_mean=self.initial_mean,
            initial_cov=self.initial_variance,
            observations=np.array(self.observations),
        )

    def __call__(self, theta):
        return lgssm_feynman_kac(self.ssm(float(np.atleast_1d(theta)[0])))


@dataclass(frozen=True)
class KalmanLikelihood:
    """Deterministic surrogate: the exact likelihood of the linear model."""

    family: LgssmFamily

    def __call__(self, theta, rng) -> float:
        return kalman_loglik(self.family.ssm(float(np.atleast_1d(theta)[0])))
