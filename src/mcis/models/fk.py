"""Feynman-Kac model interface.

A Feynman-Kac model is a horizon ``n``, an initial distribution, a
sequence of Markov transition samplers and a sequence of nonnegative
potential functions.  Together they define an unnormalized path
measure; its total mass is the quantity the particle filter estimates
unbiasedly.

Concrete models vectorize over particles: states are arrays whose
leading axis indexes particles, with any trailing axes owned by the
model (scalar models use shape ``(N,)``, coupled fine/coarse models
``(N, 2)``, and so on).  The filter never inspects state internals.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FeynmanKacModel"]


class FeynmanKacModel:
    """Interface for models consumed by the particle filter.

    Attributes
    ----------
    n : int
        Horizon; potentials are evaluated at steps ``0 .. n``.

    Transitions and potentials read only the current states, an array
    of shape ``(N, ...)``.
    """

    n: int = 0

    def sample_initial(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` initial states."""
        raise NotImplementedError

    def sample_transition(self, p: int, x, rng: np.random.Generator) -> np.ndarray:
        """Advance states from step ``p - 1`` to step ``p`` (``1 <= p <= n``)."""
        raise NotImplementedError

    def log_potential(self, p: int, x) -> np.ndarray:
        """Log of the step-``p`` potential, elementwise over particles.

        Must return finite values or ``-inf`` (zero potential); NaN is
        treated as a model evaluation error by the filter.
        """
        raise NotImplementedError
