"""Models for likelihood-free (ABC) inference.

An ABC model bundles a prior, a forward simulator, a pseudo-metric and
the observed data point.  The implied likelihood at tolerance ``eps``
is the probability that a simulated draw lands within ``eps`` of the
observation; for the Gaussian location toy that probability is
available in closed form and serves as the oracle for the ABC tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError

__all__ = [
    "AbcModel",
    "GaussianLocationAbc",
    "gaussian_abc_likelihood",
]


class AbcModel:
    """Interface: prior, forward simulator, pseudo-metric, observation.

    ``simulate`` must be reproducible given the rng; ``distance`` must
    be symmetric, nonnegative and zero on the diagonal.
    """

    prior = None
    y_star = None

    def simulate(self, theta, rng: np.random.Generator):
        raise NotImplementedError

    def distance(self, y, y_other) -> float:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class GaussianLocationAbc(AbcModel):
    """Toy model ``Y ~ N(theta, sigma^2)`` with absolute-difference metric."""

    sigma: float = 1.0
    y_star: float = 0.0
    prior: object = None

    def simulate(self, theta, rng):
        theta = np.atleast_1d(theta)
        return float(theta[0] + self.sigma * rng.standard_normal())

    def distance(self, y, y_other):
        return abs(float(y) - float(y_other))


def gaussian_abc_likelihood(theta, sigma: float, epsilon: float, y_star: float):
    """Closed-form ABC likelihood of the Gaussian location toy.

    Probability that ``Y ~ N(theta, sigma^2)`` falls within ``epsilon``
    of ``y_star``; vectorizes over ``theta``.
    """
    if np.any(np.asarray(epsilon) <= 0.0):
        raise ParameterError("tolerance must be positive")
    if sigma <= 0.0:
        raise ParameterError("sigma must be positive")
    # the standard normal cdf; imported here because importing scipy
    # costs every command-line call most of its start-up time
    from scipy.special import ndtr

    theta = np.asarray(theta, float)
    hi = (y_star + epsilon - theta) / sigma
    lo = (y_star - epsilon - theta) / sigma
    out = ndtr(hi) - ndtr(lo)
    if out.ndim == 0:
        return float(out)
    return out
