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
from .gillespie import Stoichiometry, gillespie_simulate

__all__ = [
    "AbcModel",
    "GaussianLocationAbc",
    "LotkaVolterraAbc",
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


# Prey birth, predation, predator death: the classic two-species,
# three-reaction predator-prey network.
_LV_STOICHIOMETRY = Stoichiometry(
    reactants=[[1, 0], [1, 1], [0, 1]],
    changes=[[1, 0], [-1, 1], [0, -1]],
)


@dataclass(frozen=True, eq=False)
class LotkaVolterraAbc(AbcModel):
    """Predator-prey network observed as counts at fixed times.

    The parameter vector holds log reaction rates (birth, predation,
    death).  A simulated data point is the vector of species counts at
    ``obs_times``; the metric is the root-mean-square difference of
    ``log1p`` counts, which tames the heavy tails of the raw counts.
    """

    init: tuple = (50, 100)
    obs_times: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)
    y_star: np.ndarray = None
    prior: object = None
    max_events: int = 200_000

    def simulate(self, theta, rng):
        rates = np.exp(np.atleast_1d(np.asarray(theta, float)))
        path = gillespie_simulate(
            rates,
            _LV_STOICHIOMETRY,
            np.asarray(self.init, dtype=np.int64),
            t_end=float(self.obs_times[-1]),
            rng=rng,
            max_events=self.max_events,
        )
        return np.concatenate([path.state_at(t) for t in self.obs_times]).astype(float)

    def distance(self, y, y_other):
        diff = np.log1p(np.asarray(y, float)) - np.log1p(np.asarray(y_other, float))
        return float(np.sqrt(np.mean(diff * diff)))
