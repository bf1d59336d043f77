"""End-to-end acceptance gate.

Thirteen statistical and exactness criteria, each with its stated
replicate budget and tolerance, each printing a single machine-
greppable ``criterion NN PASS/FAIL`` line.  Statistical checks compare
Monte Carlo means against closed-form linear-Gaussian or quadrature
oracles at a multiple of the measured standard error; exactness checks
assert bit-level identities.  Budgets follow the suite's design sizes,
so this module is the slow part of the test run (several minutes).
"""

from __future__ import annotations

import json
import math

import numpy as np

from mcis.abc import (
    abc_confidence_interval,
    post_correct,
    post_correct_curve,
    run_abc_mcmc,
    run_tolerance_adaptation,
)
from mcis.cli import run_experiment
from mcis.diagnostics import compare_chains, series_stats
from mcis.is_correction import ParticleSmootherRunner, run_mcmc_is
from mcis.mcmc import (
    ProposalState,
    UniformPrior,
    run_delayed_acceptance,
    run_pmmh,
)
from mcis.models.abc_model import GaussianLocationAbc, gaussian_abc_likelihood
from mcis.models.diffusion import ou_exact_lgssm, ou_level_lgssm
from mcis.models.lgssm import (
    KalmanLikelihood,
    LgssmFamily,
    kalman_loglik,
    kalman_smoother_means,
    lgssm_feynman_kac,
)
from mcis.multilevel import LevelSchedule, debiased_increment
from mcis.rng import KeyedStreams, substream
from mcis.smc import RESAMPLING_SCHEMES, ratio_estimate, run_delta_pf, run_particle_filter

from conftest import (
    OU_DRIFT,
    REFERENCE_TRANS_VAR,
    YS_COEFF_06,
    YS_COEFF_09,
    UnitPotentialModel,
    lgssm_posterior_quadrature,
    ou_family,
    scalar_ssm,
)

SEED = 20260816


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# Shared model plumbing (module-level so worker processes can pickle it)


# The linear-Gaussian family and Kalman surrogate the command line builds,
# on the record simulated with coefficient 0.6
FAMILY_06 = LgssmFamily(
    transition_noise=REFERENCE_TRANS_VAR,
    observation_gain=1.0,
    observation_noise=1.0,
    initial_mean=0.0,
    initial_variance=1.0,
    observations=YS_COEFF_06,
)
KALMAN_06 = KalmanLikelihood(FAMILY_06)


def _final_state(states):
    return states


def _coeff_value(theta, states):
    return float(np.atleast_1d(theta)[0])


def _theta0(theta):
    return float(np.atleast_1d(theta)[0])


def _abc_posterior_mean(epsilon, sigma=1.0, y_star=0.3, lo=-2.0, hi=2.0, n_grid=4001):
    grid = np.linspace(lo, hi, n_grid)
    like = gaussian_abc_likelihood(grid, sigma, epsilon, y_star)
    like[0] *= 0.5
    like[-1] *= 0.5
    return float(np.sum(grid * like) / like.sum())


def _chain_se(series: np.ndarray) -> float:
    stats = series_stats(series)
    return math.sqrt(stats.asymptotic_variance / series.size)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_filter_unbiasedness():
    ssm = scalar_ssm(coeff=0.9, ys=YS_COEFF_09)
    model = lgssm_feynman_kac(ssm)
    target = math.exp(kalman_loglik(ssm))
    rng = substream(SEED, "acc01")
    reps = 50_000
    normalizers = np.empty(reps)
    for r in range(reps):
        _, estimate = run_particle_filter(model, 64, rng=rng)
        normalizers[r] = estimate.normalizer
    se = normalizers.std(ddof=1) / math.sqrt(reps)
    error = abs(normalizers.mean() - target)
    ok = error <= 3.0 * se
    _report(1, ok, f"|mean - exact likelihood| = {error:.3e} vs 3*SE = {3 * se:.3e}")
    assert ok


def test_criterion_02_unit_potential_identity():
    worst = 0.0
    exact = True
    for scheme in RESAMPLING_SCHEMES:
        for n_particles in (1, 7, 64):
            _, estimate = run_particle_filter(
                UnitPotentialModel(n=7),
                n_particles,
                scheme=scheme,
                rng=substream(SEED, "acc02", scheme, n_particles),
            )
            exact &= estimate.normalizer == 1.0 and estimate.log_normalizer == 0.0
            worst = max(worst, abs(estimate.normalizer - 1.0))
    _report(
        2,
        exact,
        f"unit-potential estimate equals 1 bit-exactly for "
        f"{len(RESAMPLING_SCHEMES)} schemes x 3 particle counts (max dev {worst:.1e})",
    )
    assert exact


def test_criterion_03_ratio_smoother_consistency():
    ssm = scalar_ssm(coeff=0.9, ys=YS_COEFF_09)
    model = lgssm_feynman_kac(ssm)
    target = float(np.asarray(kalman_smoother_means(ssm))[-1])
    rng = substream(SEED, "acc03")
    estimates = [
        run_particle_filter(model, 64, rng=rng, test_functions=(_final_state,))[1]
        for _ in range(200)
    ]
    point, se = ratio_estimate(estimates, 0)
    error = abs(point - target)
    ok = error <= 3.0 * se
    _report(3, ok, f"|smoothed mean - exact| = {error:.3e} vs 3*SE = {3 * se:.3e}")
    assert ok


def test_criterion_04_coupled_increment_unbiasedness():
    family = ou_family()
    theta = np.array([OU_DRIFT])
    target = math.exp(kalman_loglik(ou_level_lgssm(family, theta, 2))) - math.exp(
        kalman_loglik(ou_level_lgssm(family, theta, 1))
    )
    coupled = family.coupled_model(theta, 2)
    rng = substream(SEED, "acc04")
    reps = 50_000
    values = np.empty(reps)
    for r in range(reps):
        values[r] = run_delta_pf(coupled, 128, rng=rng).value_one
    se = values.std(ddof=1) / math.sqrt(reps)
    error = abs(values.mean() - target)
    ok = error <= 3.0 * se
    _report(4, ok, f"|mean increment - exact difference| = {error:.3e} vs 3*SE = {3 * se:.3e}")
    assert ok


def test_criterion_05_randomized_debiasing():
    family = ou_family()
    theta = np.array([OU_DRIFT])
    target = math.exp(kalman_loglik(ou_exact_lgssm(family, theta)))
    reps = 100_000
    details = []
    ok = True
    for rho in (0.0, 1.0):
        schedule = LevelSchedule(rho=rho, n_base=8)
        level_zero = family.level_model(theta, 0)
        rng = substream(SEED, "acc05", int(rho))
        values = np.empty(reps)
        for r in range(reps):
            # the increment mlmc-is adds to its phase-1 level-0 estimate,
            # plus an independent level-0 run on the same generator
            increment = debiased_increment(theta, schedule, family, rng)[1]
            zero = run_particle_filter(level_zero, schedule.n_base, rng=rng)[1]
            values[r] = increment[0] + zero.normalizer
        se = values.std(ddof=1) / math.sqrt(reps)
        error = abs(values.mean() - target)
        ok &= error <= 4.0 * se
        details.append(f"rho={rho:g}: |err| = {error:.3e} vs 4*SE = {4 * se:.3e}")
    _report(5, ok, "; ".join(details))
    assert ok


def test_criterion_06_increment_variance_decay():
    family = ou_family()
    theta = np.array([OU_DRIFT])
    levels = np.arange(1, 7)
    reps = 2000
    log2_moments = []
    for level in levels:
        coupled = family.coupled_model(theta, int(level))
        rng = substream(SEED, "acc06", int(level))
        values = np.empty(reps)
        for r in range(reps):
            values[r] = run_delta_pf(coupled, 64, rng=rng).value_one
        log2_moments.append(math.log2(float(np.mean(values * values))))
    slope = float(np.polyfit(levels, log2_moments, 1)[0])
    ok = slope <= -0.8
    _report(6, ok, f"log2 second-moment slope over levels 1..6 = {slope:.3f} <= -0.8")
    assert ok


def test_criterion_07_posterior_agreement():
    family, kalman = FAMILY_06, KALMAN_06
    prior = UniformPrior(0.0, 1.0)
    proposal = ProposalState.isotropic(1, sd=0.15)
    m, n_burn, n_particles, eps_reg = 200_000, 20_000, 32, 0.01
    grid, weights = lgssm_posterior_quadrature(YS_COEFF_06)
    target = float(np.sum(grid * weights))

    runner = ParticleSmootherRunner(family, n_particles)
    pmmh_trace, _ = run_pmmh(
        prior, proposal, runner, m, substream(SEED, "acc07", "pm"), n_burn=n_burn
    )
    pmmh_series = pmmh_trace.thetas[n_burn:, 0]
    pmmh_mean, pmmh_se = float(pmmh_series.mean()), _chain_se(pmmh_series)

    da_trace, _ = run_delayed_acceptance(
        prior, proposal, kalman, runner, eps_reg, m,
        substream(SEED, "acc07", "da"), n_burn=n_burn,
    )
    da_series = da_trace.thetas[n_burn:, 0]
    da_mean, da_se = float(da_series.mean()), _chain_se(da_series)

    is_result = run_mcmc_is(
        prior,
        proposal,
        kalman,
        ParticleSmootherRunner(model_family=family, n_particles=n_particles),
        eps_reg,
        m,
        KeyedStreams(SEED + 7),
        (_coeff_value,),
        n_burn=n_burn,
    )
    is_mean, is_se = is_result.estimate.value, is_result.estimate.standard_error

    checks = {
        "pmmh": abs(pmmh_mean - target) <= 3.0 * pmmh_se,
        "da": abs(da_mean - target) <= 3.0 * da_se,
        "weighted": abs(is_mean - target) <= 3.0 * is_se,
        "cross": abs(is_mean - pmmh_mean) <= 3.0 * math.hypot(is_se, pmmh_se),
    }
    ok = all(checks.values())
    _report(
        7,
        ok,
        f"quadrature mean {target:.5f}; pmmh {pmmh_mean:.5f}±{pmmh_se:.5f}, "
        f"da {da_mean:.5f}±{da_se:.5f}, weighted {is_mean:.5f}±{is_se:.5f}; "
        f"checks {checks}",
    )
    assert ok, checks


def test_criterion_08_stage_product_inequality():
    family = FAMILY_06
    trace, _ = run_delayed_acceptance(
        UniformPrior(0.0, 1.0),
        ProposalState.isotropic(1, sd=0.15),
        KALMAN_06,
        ParticleSmootherRunner(family, 32),
        0.01,
        2000,
        substream(SEED, "acc08"),
        diagnostic_stage2=True,
    )
    filled = sum(
        1
        for p in trace.payloads
        if p["log_stage2"] is not None and p["log_pmmh"] is not None
    )
    holds = sum(
        1
        for p in trace.payloads
        if p["log_stage1"] + p["log_stage2"] <= p["log_pmmh"]
    )
    ok = filled == len(trace) and holds == len(trace)
    _report(
        8,
        ok,
        f"stage-probability product <= single-stage probability on "
        f"{holds}/{len(trace)} iterations ({filled} fully recorded)",
    )
    assert ok


def test_criterion_09_variance_ordering():
    family, kalman = FAMILY_06, KALMAN_06
    prior = UniformPrior(0.0, 1.0)
    proposal = ProposalState.isotropic(1, sd=0.15)
    m, n_burn = 3000, 500
    runner = ParticleSmootherRunner(family, 16)
    favourable = 0
    pairs = 50
    for r in range(pairs):
        pmmh_trace, _ = run_pmmh(
            prior, proposal, runner, m, substream(SEED, "acc09", r, "pm"), n_burn=n_burn
        )
        da_trace, _ = run_delayed_acceptance(
            prior, proposal, kalman, runner, 0.01, m,
            substream(SEED, "acc09", r, "da"), n_burn=n_burn,
        )
        report = compare_chains(
            {
                "da": [da_trace.thetas[n_burn:, 0]],
                "pmmh": [pmmh_trace.thetas[n_burn:, 0]],
            }
        )
        # asvar(pmmh) <= asvar(da) + 2 * combined spread
        if report["pairs"][0]["second_within_first"]:
            favourable += 1
    ok = favourable >= 45
    _report(9, ok, f"pseudo-marginal variance within bound in {favourable}/{pairs} pairs")
    assert ok


def test_criterion_10_abc_post_correction():
    trace = run_abc_mcmc(
        GaussianLocationAbc(sigma=1.0, y_star=0.3),
        1.0,
        UniformPrior(-2.0, 2.0),
        ProposalState.isotropic(1, sd=0.5),
        50_000,
        substream(SEED, "acc10"),
    )
    report = abc_confidence_interval(trace, 0.3, _theta0, beta=3.0)
    target = _abc_posterior_mean(0.3)
    within = report.lower <= target <= report.upper

    curve = post_correct_curve(trace, _theta0)
    agree = all(
        post_correct(trace, float(eps), _theta0) == value
        for eps, value in zip(curve.epsilons[::971], curve.estimates[::971])
    )
    ok = within and agree
    _report(
        10,
        ok,
        f"estimate {report.estimate:.4f} vs quadrature {target:.4f} within 3*SE "
        f"({report.lower:.4f}, {report.upper:.4f}); curve/pointwise bit-agreement: {agree}",
    )
    assert ok


def test_criterion_11_tolerance_adaptation_target():
    result = run_tolerance_adaptation(
        GaussianLocationAbc(sigma=1.0, y_star=0.3),
        UniformPrior(-2.0, 2.0),
        ProposalState.isotropic(1, sd=0.5),
        n_burn=50_000,
        rng=substream(SEED, "acc11"),
        alpha_target=0.1,
    )
    tail_mean = float(result.realized_alphas[-10_000:].mean())
    ok = 0.07 <= tail_mean <= 0.13
    _report(
        11,
        ok,
        f"mean realized acceptance over final 10000 adaptation steps = "
        f"{tail_mean:.4f} in [0.07, 0.13]",
    )
    assert ok


def test_criterion_12_interval_coverage():
    model = GaussianLocationAbc(sigma=1.0, y_star=0.3)
    prior = UniformPrior(-2.0, 2.0)
    proposal = ProposalState.isotropic(1, sd=0.5)
    epsilon = 0.7
    target = _abc_posterior_mean(epsilon)
    covered = 0
    runs = 100
    for r in range(runs):
        trace = run_abc_mcmc(
            model, 1.0, prior, proposal, 4000, substream(SEED, "acc12", r)
        )
        report = abc_confidence_interval(trace, epsilon, _theta0)
        covered += report.lower <= target <= report.upper
    ok = covered >= 85
    _report(12, ok, f"nominal 95% interval covered the quadrature truth {covered}/{runs} times")
    assert ok


def test_criterion_13_determinism_across_workers(tmp_path):
    config = tmp_path / "experiment.ini"
    config.write_text(
        """\
[experiment]
algorithm = mcmc-is
seed = 20260816

[model]
family = lgssm
transition = 0.6
transition_noise = 0.25
simulate = 8

[prior]
kind = uniform
low = 0.0
high = 1.0

[sampler]
n_iterations = 400
n_burn = 50
n_particles = 16
eps_reg = 0.01
proposal_sd = 0.2
replicates = 2
""",
        encoding="utf-8",
    )
    outputs = {}
    for workers in (1, 4, 16):
        out_dir = tmp_path / f"w{workers}"
        code = run_experiment(config, output_dir=out_dir, workers=workers)
        assert code == 0
        outputs[workers] = {
            name: (out_dir / name).read_bytes()
            for name in ("summary.json", "trace.jsonl")
        }
        assert json.loads((out_dir / "timing.json").read_text())["workers"] == workers
    identical = outputs[1] == outputs[4] == outputs[16]
    _report(
        13,
        identical,
        "summary.json and trace.jsonl byte-identical at worker counts 1, 4, 16",
    )
    assert identical
