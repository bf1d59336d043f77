"""Exception types shared across the library."""

from __future__ import annotations

__all__ = [
    "McisError",
    "ParameterError",
    "ModelEvaluationError",
    "NumericalOverflowError",
    "DegenerateWeightsError",
    "DegenerateEstimatorError",
    "CouplingSupportError",
    "SupportConditionError",
    "InitializationError",
    "EmptySelectionError",
    "ResourceGuardError",
    "ConfigError",
]


class McisError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(McisError, ValueError):
    """A model or algorithm parameter is outside its allowed range."""


class ModelEvaluationError(McisError):
    """A model callback returned an invalid value (e.g. NaN potential)."""


class NumericalOverflowError(McisError):
    """A state update produced a non-finite value.

    Carries the offending state, the parameter vector and the
    discretization level for post-mortem inspection.
    """

    def __init__(self, message, state=None, theta=None, level=None):
        super().__init__(message)
        self.state = state
        self.theta = theta
        self.level = level


class DegenerateWeightsError(McisError):
    """All particle weights are zero (filter collapse) where a
    resampling step required a proper distribution."""


class DegenerateEstimatorError(McisError):
    """A self-normalized estimator has a zero denominator."""


class CouplingSupportError(McisError):
    """A coupled potential vanished while a marginal potential did not,
    violating the support requirement of the coupled model."""


class SupportConditionError(McisError):
    """The approximate likelihood (plus regularization) vanished at a
    point where the exact-model estimator is positive."""


class InitializationError(McisError):
    """Could not find a valid starting point within the retry budget."""


class EmptySelectionError(McisError):
    """No recorded sample falls within the requested tolerance.

    ``min_distance`` reports the smallest achievable tolerance.
    """

    def __init__(self, message, min_distance=None):
        super().__init__(message)
        self.min_distance = min_distance


class ResourceGuardError(McisError):
    """A run at a sampled or configured level would exceed the
    configured substep budget.

    A sampled level is reported rather than silently truncated, because
    truncating the level distribution would bias the debiased
    estimator; the caller may re-seed or raise the guard.
    """

    def __init__(self, message, level=None, required=None, budget=None):
        super().__init__(message)
        self.level = level
        self.required = required
        self.budget = budget


class ConfigError(McisError):
    """An experiment configuration file is invalid."""
