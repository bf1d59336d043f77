"""Kalman filter/smoother oracles for the linear-Gaussian model.

The scalar reference record is checked against frozen values obtained
by direct joint-Gaussian evaluation (see conftest).  Beyond that, the
recursion is cross-checked against a brute-force joint-Gaussian
computation on small random models, scalar and multivariate, including
hypothesis-generated parameter points.  A scalar model's plain-float
recursion and covariance checks are compared with the matrix path on
the same model given as 1x1 arrays.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcis.errors import ParameterError
from mcis.models.lgssm import (
    LinearGaussianSSM,
    kalman_loglik,
    kalman_smoother_means,
    lgssm_feynman_kac,
)

from conftest import REFERENCE_LOGLIK, REFERENCE_SMOOTHED, REFERENCE_YS, scalar_ssm


# ---------------------------------------------------------------------------
# Brute-force oracle: joint-Gaussian evaluation of a scalar model


def _joint_gaussian_loglik_and_smooth(coeff, trans_var, obs_var, init_mean, init_var, ys):
    """Evaluate the scalar model by building the full joint covariance."""
    ys = np.asarray(ys, float)
    n = ys.size
    var = np.empty(n)
    var[0] = init_var
    for p in range(1, n):
        var[p] = coeff * coeff * var[p - 1] + trans_var
    cov_x = np.empty((n, n))
    for p in range(n):
        for q in range(n):
            lo, hi = min(p, q), max(p, q)
            cov_x[p, q] = coeff ** (hi - lo) * var[lo]
    mean_x = init_mean * coeff ** np.arange(n)
    cov_y = cov_x + obs_var * np.eye(n)
    resid = ys - mean_x
    sign, logdet = np.linalg.slogdet(cov_y)
    assert sign > 0
    solve = np.linalg.solve(cov_y, resid)
    loglik = -0.5 * (n * math.log(2.0 * math.pi) + logdet + resid @ solve)
    smoothed = mean_x + cov_x @ solve
    return loglik, smoothed


# ---------------------------------------------------------------------------
# Frozen reference record


def test_reference_loglik():
    assert kalman_loglik(scalar_ssm()) == pytest.approx(REFERENCE_LOGLIK, rel=1e-13)


def test_reference_smoothed_means():
    means = kalman_smoother_means(scalar_ssm())
    assert means.shape == (len(REFERENCE_YS),)
    np.testing.assert_allclose(means, REFERENCE_SMOOTHED, rtol=1e-12, atol=1e-14)


def test_scalar_flag_and_horizon():
    model = scalar_ssm()
    assert model.scalar
    assert model.horizon == len(REFERENCE_YS) - 1


# ---------------------------------------------------------------------------
# Cross-checks against the brute-force joint evaluation


@settings(max_examples=25, deadline=None)
@given(
    coeff=st.floats(-1.2, 1.2),
    trans_var=st.floats(0.05, 2.0),
    obs_var=st.floats(0.1, 3.0),
    init_mean=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_scalar_matches_joint_evaluation(coeff, trans_var, obs_var, init_mean, seed):
    ys = np.random.default_rng(seed).normal(size=5)
    model = LinearGaussianSSM(
        transition_matrix=coeff,
        transition_cov=trans_var,
        observation_matrix=1.0,
        observation_cov=obs_var,
        initial_mean=init_mean,
        initial_cov=1.0,
        observations=ys,
    )
    want_ll, want_smooth = _joint_gaussian_loglik_and_smooth(
        coeff, trans_var, obs_var, init_mean, 1.0, ys
    )
    assert kalman_loglik(model) == pytest.approx(want_ll, rel=1e-10, abs=1e-10)
    np.testing.assert_allclose(
        kalman_smoother_means(model), want_smooth, rtol=1e-9, atol=1e-10
    )


def test_single_observation_closed_form():
    # With one observation the likelihood is N(y; m0, P0 + obs_var).
    y, init_var, obs_var = 0.7, 1.0, 0.5
    model = LinearGaussianSSM(0.9, 0.25, 1.0, obs_var, 0.0, init_var, [y])
    total_var = init_var + obs_var
    want = -0.5 * (math.log(2 * math.pi * total_var) + y * y / total_var)
    assert kalman_loglik(model) == pytest.approx(want, rel=1e-13)
    # and the posterior mean is the usual shrinkage estimate
    want_mean = y * init_var / total_var
    assert kalman_smoother_means(model)[0] == pytest.approx(want_mean, rel=1e-13)


def test_vector_model_matches_stacked_scalar():
    # A diagonal 2-d model is two independent scalar models; its loglik
    # is the sum and its smoothed means stack the scalar ones.
    ys1 = np.array([0.5, -0.3, 1.1])
    ys2 = np.array([0.1, 0.9, -0.4])
    scalar_a = LinearGaussianSSM(0.9, 0.25, 1.0, 1.0, 0.0, 1.0, ys1)
    scalar_b = LinearGaussianSSM(0.5, 0.50, 1.0, 2.0, 0.0, 1.0, ys2)
    vector = LinearGaussianSSM(
        transition_matrix=np.diag([0.9, 0.5]),
        transition_cov=np.diag([0.25, 0.50]),
        observation_matrix=np.eye(2),
        observation_cov=np.diag([1.0, 2.0]),
        initial_mean=np.zeros(2),
        initial_cov=np.eye(2),
        observations=np.column_stack([ys1, ys2]),
    )
    assert not vector.scalar
    want = kalman_loglik(scalar_a) + kalman_loglik(scalar_b)
    assert kalman_loglik(vector) == pytest.approx(want, rel=1e-12)
    means = kalman_smoother_means(vector)
    np.testing.assert_allclose(means[:, 0], kalman_smoother_means(scalar_a), rtol=1e-12)
    np.testing.assert_allclose(means[:, 1], kalman_smoother_means(scalar_b), rtol=1e-12)


# ---------------------------------------------------------------------------
# Scalar fast path against the 1x1 matrix path


def _as_1x1(model):
    """The same model with 1x1 parameters and (n+1, 1) observations."""
    return LinearGaussianSSM(
        transition_matrix=np.array([[model.transition_matrix]]),
        transition_cov=np.array([[model.transition_cov]]),
        observation_matrix=np.array([[model.observation_matrix]]),
        observation_cov=np.array([[model.observation_cov]]),
        initial_mean=np.array([model.initial_mean]),
        initial_cov=np.array([[model.initial_cov]]),
        observations=model.observations.reshape(-1, 1),
    )


@settings(max_examples=200, deadline=None)
@given(
    coeff=st.floats(-1.5, 1.5),
    trans_var=st.floats(0.0, 4.0),
    obs_gain=st.floats(-3.0, 3.0),
    obs_var=st.floats(1e-3, 4.0),
    init_mean=st.floats(-3.0, 3.0),
    init_var=st.floats(0.0, 4.0),
    n=st.integers(0, 60),
    seed=st.integers(0, 2**16),
)
def test_scalar_path_matches_matrix_path(
    coeff, trans_var, obs_gain, obs_var, init_mean, init_var, n, seed
):
    ys = np.random.default_rng(seed).normal(scale=2.0, size=n + 1)
    model = LinearGaussianSSM(
        coeff, trans_var, obs_gain, obs_var, init_mean, init_var, ys
    )
    matrix = _as_1x1(model)
    assert model.scalar and not matrix.scalar
    assert kalman_loglik(model) == pytest.approx(kalman_loglik(matrix), rel=1e-12)


def test_scalar_path_fails_like_matrix_path():
    # non-finite parameters fail at construction, before either path runs
    for bad in ({"coeff": math.nan}, {"trans_var": -math.inf}):
        with pytest.raises(ParameterError, match="must be finite"):
            scalar_ssm(**bad)
    # an overflowing coefficient propagates to a NaN likelihood on both paths
    model = scalar_ssm(coeff=1e200)
    assert math.isnan(kalman_loglik(model))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(kalman_loglik(_as_1x1(model)))
    # a non-positive innovation variance fails in the Cholesky factor
    model = scalar_ssm(init_var=-1e-12, obs_var=1e-13)
    for form in (model, _as_1x1(model)):
        with pytest.raises(np.linalg.LinAlgError):
            kalman_loglik(form)


def _construction_outcome(field, value):
    args = dict(
        transition_matrix=0.9,
        transition_cov=0.25,
        observation_matrix=1.0,
        observation_cov=1.0,
        initial_mean=0.0,
        initial_cov=1.0,
        observations=REFERENCE_YS,
    )
    args[field] = value
    try:
        LinearGaussianSSM(**args)
    except ParameterError as err:
        return str(err)
    return None


@pytest.mark.parametrize("field", ["transition_cov", "observation_cov", "initial_cov"])
@pytest.mark.parametrize("value", [-0.25, -1e-13, 0.0, math.nan, math.inf, -math.inf])
def test_variance_checks_agree_for_0d_and_1x1(field, value):
    scalar = _construction_outcome(field, value)
    assert scalar == _construction_outcome(field, np.array([[value]]))
    assert scalar == _construction_outcome(field, np.float64(value))
    if value == -0.25 or not math.isfinite(value):
        assert scalar is not None


_FIELDS = [
    "transition_matrix", "transition_cov", "observation_matrix", "observation_cov",
    "initial_mean", "initial_cov",
]


@pytest.mark.parametrize("field", _FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected_at_construction(field, value):
    # 0-d, numpy scalar and array forms alike; the array form of the
    # initial mean is a vector, of every other parameter a 1x1 matrix
    array = np.array([value]) if field == "initial_mean" else np.array([[value]])
    for form in (value, np.float64(value), array):
        assert _construction_outcome(field, form) == f"{field} must be finite"


# ---------------------------------------------------------------------------
# Validation


def test_negative_variance_rejected():
    with pytest.raises(ParameterError):
        LinearGaussianSSM(0.9, -0.25, 1.0, 1.0, 0.0, 1.0, REFERENCE_YS)


def test_zero_observation_cov_rejected():
    with pytest.raises(ParameterError):
        LinearGaussianSSM(0.9, 0.25, 1.0, 0.0, 0.0, 1.0, REFERENCE_YS)


def test_asymmetric_cov_rejected():
    with pytest.raises(ParameterError):
        LinearGaussianSSM(
            np.eye(2),
            np.array([[1.0, 0.5], [0.0, 1.0]]),
            np.eye(2),
            np.eye(2),
            np.zeros(2),
            np.eye(2),
            np.zeros((3, 2)),
        )


def test_mismatched_observation_dimension_rejected():
    model = LinearGaussianSSM(
        np.eye(2),
        np.eye(2),
        np.eye(2),
        np.eye(2),
        np.zeros(2),
        np.eye(2),
        np.zeros((3, 3)),
    )
    with pytest.raises(ParameterError):
        kalman_loglik(model)


# ---------------------------------------------------------------------------
# Bootstrap Feynman-Kac view


def test_feynman_kac_view_shapes_and_potential():
    model = scalar_ssm()
    fk = lgssm_feynman_kac(model)
    assert fk.n == model.horizon
    rng = np.random.default_rng(0)
    x0 = fk.sample_initial(100, rng)
    assert x0.shape == (100,)
    x1 = fk.sample_transition(1, x0, rng)
    assert x1.shape == (100,)
    # bootstrap potential at step p is the observation density at y_p
    logpot = fk.log_potential(0, x0)
    resid = REFERENCE_YS[0] - x0
    want = -0.5 * resid**2 - 0.5 * math.log(2 * math.pi)
    np.testing.assert_allclose(logpot, want, rtol=1e-12)


def test_feynman_kac_transition_moments():
    # Transition draws should have mean coeff*x and the stated variance.
    model = scalar_ssm()
    fk = lgssm_feynman_kac(model)
    rng = np.random.default_rng(7)
    x = np.full(200_000, 1.5)
    nxt = fk.sample_transition(1, x, rng)
    assert nxt.mean() == pytest.approx(0.9 * 1.5, abs=4 * 0.5 / math.sqrt(x.size))
    assert nxt.var() == pytest.approx(0.25, rel=0.02)
