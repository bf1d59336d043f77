"""Reference values computed apart from the package.

Everything here is plain floats and the standard library: a scalar
Kalman log-likelihood, the exact transition of the OU (linear-drift)
diffusion over one observation interval, and grid-quadrature posterior
means of the one parameter each benchmark workload infers.  Nothing
imports ``mcis``, so a fault in the package cannot leak into the
targets its outputs are checked against.
"""

from __future__ import annotations

import math

_LOG_2PI = math.log(2.0 * math.pi)


def normal_logpdf(x: float, mean: float, var: float) -> float:
    resid = x - mean
    return -0.5 * (_LOG_2PI + math.log(var) + resid * resid / var)


def kalman_loglik(ys, coeff, trans_var, gain=1.0, obs_var=1.0, init_mean=0.0,
                  init_var=1.0) -> float:
    """Log marginal likelihood of ``ys`` under the scalar model

    X_0 ~ N(init_mean, init_var),  X_p = coeff X_{p-1} + N(0, trans_var),
    Y_p = gain X_p + N(0, obs_var).
    """
    mean, var = init_mean, init_var
    total = 0.0
    for p, y in enumerate(ys):
        if p:
            mean = coeff * mean
            var = coeff * coeff * var + trans_var
        innov_var = gain * gain * var + obs_var
        total += normal_logpdf(y, gain * mean, innov_var)
        k = var * gain / innov_var
        mean += k * (y - gain * mean)
        var -= k * gain * var
    return total


def ou_transition(drift: float, sigma: float, interval: float):
    """Coefficient and noise variance of the exact OU transition

    dX = drift X dt + sigma dW over one interval; the variance tends to
    sigma^2 interval as drift tends to 0.
    """
    if abs(drift) < 1e-12:
        return 1.0, sigma * sigma * interval
    coeff = math.exp(drift * interval)
    return coeff, sigma * sigma * math.expm1(2.0 * drift * interval) / (2.0 * drift)


def posterior_mean(log_density, low: float, high: float, points: int = 2001) -> float:
    """Mean of the density proportional to ``exp(log_density)`` on
    [low, high] by composite Simpson quadrature (``points`` odd)."""
    if points < 3 or points % 2 == 0:
        raise ValueError("Simpson quadrature needs an odd number of points >= 3")
    step = (high - low) / (points - 1)
    grid = [low + i * step for i in range(points)]
    logs = [log_density(x) for x in grid]
    top = max(logs)
    mass = first = 0.0
    for i, (x, value) in enumerate(zip(grid, logs)):
        factor = 1.0 if i in (0, points - 1) else (4.0 if i % 2 else 2.0)
        weight = factor * math.exp(value - top)
        mass += weight
        first += weight * x
    return first / mass


def lgssm_coefficient_mean(ys, low, high, trans_var, gain=1.0, obs_var=1.0,
                           init_mean=0.0, init_var=1.0) -> float:
    """Posterior mean of the transition coefficient under a uniform
    prior on [low, high]."""
    return posterior_mean(
        lambda a: kalman_loglik(ys, a, trans_var, gain, obs_var, init_mean, init_var),
        low,
        high,
    )


def ou_drift_mean(ys, prior_mean, prior_sd, sigma, interval=1.0, gain=1.0,
                  obs_var=1.0, init_mean=0.0, init_var=1.0, width=10.0) -> float:
    """Posterior mean of the OU drift under a Gaussian prior, with the
    exact (undiscretized) transition; the grid spans ``width`` prior
    standard deviations either side of the prior mean."""

    def log_density(drift):
        coeff, var = ou_transition(drift, sigma, interval)
        return normal_logpdf(drift, prior_mean, prior_sd * prior_sd) + kalman_loglik(
            ys, coeff, var, gain, obs_var, init_mean, init_var
        )

    return posterior_mean(
        log_density, prior_mean - width * prior_sd, prior_mean + width * prior_sd
    )
