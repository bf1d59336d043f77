"""Frozen reference values and shared model builders for the test suite.

The reference log-likelihood and smoothed means below were computed by
direct joint-Gaussian evaluation of the five-observation record: build
the latent covariance matrix from the recursion
``Var(X_p) = A^2 Var(X_{p-1}) + Q`` with cross-covariances
``Cov(X_p, X_q) = A^(q-p) Var(X_p)``, add unit observation noise on the
diagonal, and evaluate the multivariate normal log-density and the
conditional mean of the states given the observations directly.  That
computation is independent of the package's Kalman recursion; the two
agree to about 1e-15, so these literals serve as an external oracle.

The longer observation records were each simulated once from the stated
model with a seeded generator and frozen here as literals, so every run
of the suite sees identical data.
"""

from __future__ import annotations

import numpy as np

from mcis.models.diffusion import DiffusionFamily, LinearDrift
from mcis.models.fk import FeynmanKacModel
from mcis.models.lgssm import LinearGaussianSSM

# ---------------------------------------------------------------------------
# Scalar linear-Gaussian reference model:
#   X_p = 0.9 X_{p-1} + N(0, 0.25),  Y_p = X_p + N(0, 1),  X_0 ~ N(0, 1)

REFERENCE_COEFF = 0.9
REFERENCE_TRANS_VAR = 0.25
REFERENCE_YS = (0.5, -0.3, 1.1, 0.2, -0.7)

# Direct joint-Gaussian evaluation of the record above.
REFERENCE_LOGLIK = -6.691585122475599
REFERENCE_SMOOTHED = (
    0.2088574643908778,
    0.1651147537245,
    0.2524051941340885,
    0.1070571350713029,
    -0.06291886274866192,
)

# Eleven observations simulated from the reference dynamics (coefficient
# 0.9, seed 20260301); used where a longer record is needed.
YS_COEFF_09 = (
    -0.2609138682172279,
    -0.06731868499679905,
    0.07341751830694354,
    -1.0432920832639536,
    0.9841532288742046,
    -0.5579553847435723,
    0.4859219257368661,
    0.8617028796499123,
    -0.06368958619826215,
    -1.401619183887831,
    0.19621991035549108,
)

# Eleven observations simulated with coefficient 0.6 (seed 20260302);
# used for parameter-inference tests so the data-generating value sits
# well inside a uniform(0, 1) prior.
YS_COEFF_06 = (
    -1.1641678861146125,
    0.21864101777801198,
    0.24665277842459665,
    -0.5846322742979091,
    0.9228369769885256,
    -0.7781258886191228,
    0.49684302746010134,
    0.7769583667188544,
    0.0981751990446666,
    -0.6171680018596725,
    -0.16412348480562117,
)

# Five observations simulated from the exact mean-reverting diffusion
# with drift coefficient -0.5, diffusion 0.5, observation variance 0.25,
# standard normal initial state, unit observation spacing (seed
# 20260303).
YS_OU = (
    0.3515341530557541,
    1.3769206649733592,
    0.24385495331789533,
    -0.6227147082664507,
    1.109761092762093,
)

OU_DRIFT = -0.5
OU_SIGMA = 0.5
OU_OBS_VAR = 0.25


def scalar_ssm(
    coeff=REFERENCE_COEFF,
    ys=REFERENCE_YS,
    trans_var=REFERENCE_TRANS_VAR,
    obs_var=1.0,
    init_mean=0.0,
    init_var=1.0,
):
    """Scalar linear-Gaussian state-space model with unit observation gain."""
    return LinearGaussianSSM(
        transition_matrix=coeff,
        transition_cov=trans_var,
        observation_matrix=1.0,
        observation_cov=obs_var,
        initial_mean=init_mean,
        initial_cov=init_var,
        observations=ys,
    )


def ou_family(ys=YS_OU, drift_sigma=OU_SIGMA, obs_var=OU_OBS_VAR):
    """Mean-reverting diffusion family bound to the frozen record."""
    return DiffusionFamily(
        dynamics=LinearDrift(sigma=drift_sigma),
        interval=1.0,
        init_mean=0.0,
        init_sd=1.0,
        obs_coeff=1.0,
        obs_var=obs_var,
        ys=np.asarray(ys),
    )


def lgssm_posterior_quadrature(ys, obs_var=1.0, n_grid=2001, inflate=1.0):
    """Posterior of the transition coefficient under a uniform(0, 1) prior.

    Dense-grid trapezoid quadrature over the exact Kalman likelihood
    (optionally with the observation variance inflated); returns
    ``(grid, normalized_weights)`` so callers can form any moment.
    """
    from mcis.models.lgssm import kalman_loglik

    grid = np.linspace(0.0, 1.0, n_grid)
    logw = np.array(
        [
            kalman_loglik(scalar_ssm(coeff=float(c), ys=ys, obs_var=obs_var * inflate))
            for c in grid
        ]
    )
    weights = np.exp(logw - logw.max())
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights /= weights.sum()
    return grid, weights


class UnitPotentialModel(FeynmanKacModel):
    """Gaussian random walk whose potential is identically one.

    The normalizer of this model is exactly 1, so the filter's
    likelihood estimate must equal 1 with zero variance for any particle
    count and any resampling scheme.
    """

    def __init__(self, n=5):
        self.n = n

    def sample_initial(self, size, rng):
        return rng.standard_normal(size)

    def sample_transition(self, p, x, rng):
        return x + rng.standard_normal(x.shape[0])

    def log_potential(self, p, x):
        return np.zeros(x.shape[0])


class ZeroUniformGenerator:
    """A numpy generator whose ``random()`` draws are all exactly 0.0.

    Every other method is the wrapped generator's.  ``random()`` can
    return 0.0 (its range is [0, 1)), so an accept/reject test built
    on ``log(u)`` must survive it.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, *args, **kwargs):
        return 0.0

    def __getattr__(self, name):
        return getattr(self._rng, name)
