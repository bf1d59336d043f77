"""Forward models: Euler-discretized diffusions and the likelihood-free
toys.

The mean-reverting linear-drift diffusion doubles as an exact oracle:
its Euler substeps compose to a linear-Gaussian transition per observed
interval, so the per-level moments here are checked against that closed
form, and the update arithmetic itself is checked bit-for-bit against a
hand-rolled replay of the same increment draws.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcis.errors import NumericalOverflowError, ParameterError
from mcis.models.abc_model import (
    GaussianLocationAbc,
    gaussian_abc_likelihood,
)
from mcis.models.diffusion import (
    ConstantDrift,
    CoupledEulerModel,
    EulerDiffusionModel,
    GeometricBrownian,
    coupled_euler_interval,
    ou_exact_lgssm,
    ou_level_lgssm,
)
from mcis.rng import substream
from mcis.smc import _coupled_potential

from conftest import OU_DRIFT, YS_OU, ou_family


# ---------------------------------------------------------------------------
# Euler updates


def test_mesh_and_substeps():
    model = ou_family().level_model([OU_DRIFT], level=3)
    assert model.substeps == 8
    assert model.mesh == 0.125
    assert model.n == len(YS_OU) - 1


def test_transition_moments_match_per_level_closed_form():
    # Composed Euler substeps of the linear-drift family are exactly
    # linear-Gaussian per observed interval; check mean and variance of
    # the sampled transition against that closed form.
    family = ou_family()
    level = 2
    model = family.level_model([OU_DRIFT], level)
    lgssm = ou_level_lgssm(family, [OU_DRIFT], level)
    coeff = float(lgssm.transition_matrix)
    var = float(lgssm.transition_cov)
    size = 200_000
    x = np.full(size, 1.2)
    out = model.sample_transition(1, x, substream(5, "moments"))
    se = math.sqrt(var / size)
    assert out.mean() == pytest.approx(coeff * 1.2, abs=4 * se)
    assert out.var() == pytest.approx(var, rel=0.03)


def test_zero_drift_interval_variance_is_exact():
    # With zero drift the per-interval variance telescopes to
    # sigma^2 * interval at every level.
    family = ou_family(drift_sigma=0.5)
    for level in (0, 1, 4):
        lgssm = ou_level_lgssm(family, [0.0], level)
        assert float(lgssm.transition_matrix) == 1.0
        assert float(lgssm.transition_cov) == pytest.approx(0.25, rel=1e-12)


def test_exact_transition_moments():
    family = ou_family(drift_sigma=0.5)
    lgssm = ou_exact_lgssm(family, [OU_DRIFT])
    assert float(lgssm.transition_matrix) == pytest.approx(math.exp(-0.5), rel=1e-14)
    want_var = 0.25 * (1.0 - math.exp(-1.0)) / 1.0
    assert float(lgssm.transition_cov) == pytest.approx(want_var, rel=1e-12)


def test_per_level_moments_converge_to_exact():
    family = ou_family()
    exact = ou_exact_lgssm(family, [OU_DRIFT])
    gaps = []
    for level in (2, 5, 8):
        approx = ou_level_lgssm(family, [OU_DRIFT], level)
        gaps.append(
            abs(float(approx.transition_matrix) - float(exact.transition_matrix))
            + abs(float(approx.transition_cov) - float(exact.transition_cov))
        )
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_per_level_oracle_requires_linear_drift():
    family = ou_family()
    bad = type(family)(
        dynamics=ConstantDrift(sigma=0.5),
        interval=family.interval,
        init_mean=family.init_mean,
        init_sd=family.init_sd,
        obs_coeff=family.obs_coeff,
        obs_var=family.obs_var,
        ys=family.ys,
    )
    with pytest.raises(TypeError):
        ou_level_lgssm(bad, [0.0], 1)
    with pytest.raises(TypeError):
        ou_exact_lgssm(bad, [0.0])


# ---------------------------------------------------------------------------
# Fine/coarse coupling


def test_coupled_interval_replays_increment_draws():
    # Replay the exact increment draws by hand: the fine path consumes
    # one row per substep and each coarse increment is the sum of the
    # two corresponding fine increments.
    family = ou_family(drift_sigma=0.4)
    model = family.coupled_model([OU_DRIFT], level=2)
    x_f = np.array([0.3, -0.2, 1.5])
    x_c = x_f.copy()
    got_f, got_c = coupled_euler_interval(model, x_f, x_c, substream(9, "replay"))

    h_f, h_c = model.fine.mesh, model.coarse.mesh
    incs = substream(9, "replay").normal(0.0, math.sqrt(h_f), size=(4, 3))
    want_f = x_f.copy()
    for j in range(4):
        want_f = want_f + OU_DRIFT * want_f * h_f + 0.4 * incs[j]
    coarse_incs = incs[0::2] + incs[1::2]
    want_c = x_c.copy()
    for j in range(2):
        want_c = want_c + OU_DRIFT * want_c * h_c + 0.4 * coarse_incs[j]
    assert np.array_equal(got_f, want_f)
    assert np.array_equal(got_c, want_c)


def test_coupled_interval_scalar_roundtrip():
    model = ou_family().coupled_model([OU_DRIFT], level=1)
    out_f, out_c = coupled_euler_interval(model, 0.5, 0.5, substream(1, "s"))
    assert isinstance(out_f, float) and isinstance(out_c, float)


def test_coupled_paths_coincide_for_state_independent_dynamics():
    # With constant drift and constant diffusion the fine and coarse
    # paths accumulate the same total increment, so they stay within
    # float-summation error of each other at every observation time.
    family = ou_family()
    fam = type(family)(
        dynamics=ConstantDrift(sigma=1.0),
        interval=1.0,
        init_mean=0.0,
        init_sd=1.0,
        obs_coeff=1.0,
        obs_var=0.25,
        ys=np.asarray(YS_OU),
    )
    model = fam.coupled_model([0.3], level=3)
    rng = substream(2, "const")
    x = model.sample_initial(64, rng)
    for p in range(1, model.n + 1):
        x = model.sample_transition(p, x, rng)
    np.testing.assert_allclose(x[:, 0], x[:, 1], rtol=1e-12, atol=1e-12)


def test_coupled_potential_is_log_mean_of_marginals():
    model = ou_family().coupled_model([OU_DRIFT], level=1)
    x = np.column_stack([np.array([0.1, 2.0]), np.array([-0.4, 1.0])])
    log_f, log_c = model.log_potential_pair(0, x)
    want = np.logaddexp(log_f, log_c) - math.log(2.0)
    np.testing.assert_array_equal(_coupled_potential(log_f, log_c, 0), want)


def test_coupling_level_validation():
    family = ou_family()
    with pytest.raises(ValueError):
        CoupledEulerModel(
            fine=family.level_model([OU_DRIFT], 0),
            coarse=family.level_model([OU_DRIFT], 0),
        )
    with pytest.raises(ValueError):
        CoupledEulerModel(
            fine=family.level_model([OU_DRIFT], 3),
            coarse=family.level_model([OU_DRIFT], 1),
        )


def test_overflowing_update_raises_with_context():
    model = EulerDiffusionModel(
        dynamics=GeometricBrownian(sigma=0.2),
        theta=[1e160],
        level=0,
        interval=1.0,
        init_mean=0.0,
        init_sd=1.0,
        obs_coeff=1.0,
        obs_var=1.0,
        ys=[0.0, 0.0],
    )
    with np.errstate(over="ignore"), pytest.raises(NumericalOverflowError) as err:
        model.sample_transition(1, np.array([1e160]), substream(0, "ovf"))
    assert err.value.level == 0


# ---------------------------------------------------------------------------
# Likelihood-free toys


def test_gaussian_abc_likelihood_closed_form_at_center():
    # At theta = y_star the hit probability is erf(eps / (sigma * sqrt 2)).
    for eps in (0.1, 0.5, 2.0):
        want = math.erf(eps / math.sqrt(2.0))
        got = gaussian_abc_likelihood(0.0, sigma=1.0, epsilon=eps, y_star=0.0)
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(-5.0, 5.0),
    sigma=st.floats(0.1, 3.0),
    eps=st.floats(0.01, 4.0),
    y_star=st.floats(-2.0, 2.0),
)
def test_gaussian_abc_likelihood_is_a_probability(theta, sigma, eps, y_star):
    lik = gaussian_abc_likelihood(theta, sigma, eps, y_star)
    assert 0.0 <= lik <= 1.0
    wider = gaussian_abc_likelihood(theta, sigma, eps * 1.5, y_star)
    assert wider >= lik  # monotone in the tolerance
    mirrored = gaussian_abc_likelihood(2 * y_star - theta, sigma, eps, y_star)
    assert mirrored == pytest.approx(lik, rel=1e-9, abs=1e-12)


def test_gaussian_abc_likelihood_vectorizes():
    thetas = np.linspace(-1, 1, 7)
    vec = gaussian_abc_likelihood(thetas, 1.0, 0.5, 0.0)
    scal = [gaussian_abc_likelihood(t, 1.0, 0.5, 0.0) for t in thetas]
    np.testing.assert_allclose(vec, scal, rtol=1e-14)


def test_gaussian_abc_likelihood_validation():
    with pytest.raises(ParameterError):
        gaussian_abc_likelihood(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        gaussian_abc_likelihood(0.0, -1.0, 0.5, 0.0)


def test_gaussian_location_simulate_and_distance():
    model = GaussianLocationAbc(sigma=0.5, y_star=0.3)
    draws = np.array(
        [model.simulate([1.0], substream(6, "sim", i)) for i in range(4000)]
    )
    assert draws.mean() == pytest.approx(1.0, abs=4 * 0.5 / math.sqrt(4000))
    assert draws.std() == pytest.approx(0.5, rel=0.05)
    assert model.distance(0.8, 0.8) == 0.0
    assert model.distance(0.2, 0.9) == model.distance(0.9, 0.2)
    assert model.distance(0.2, 0.9) == pytest.approx(0.7)
