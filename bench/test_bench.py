"""Tests of the benchmark's own parts: oracle, work counter, tracer."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from tracer import HIGHER_IS_BETTER, layer_metrics, unit_of
from workloads import WORKLOADS, RunOutputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

YS = (0.5, -0.3, 1.1, 0.2, -0.7)


# ---------------------------------------------------------------------------
# Oracle against closed forms


def test_single_observation_is_the_marginal_normal():
    for y, mean0, var0, obs_var in ((0.7, 0.0, 1.0, 1.0), (-1.3, 0.4, 2.5, 0.3)):
        got = oracle.kalman_loglik([y], 0.9, 0.25, 1.0, obs_var, mean0, var0)
        assert got == pytest.approx(oracle.normal_logpdf(y, mean0, var0 + obs_var), abs=1e-14)


def test_zero_coefficient_gives_independent_terms():
    trans_var, obs_var = 0.25, 1.5
    expected = oracle.normal_logpdf(YS[0], 0.0, 1.0 + obs_var) + sum(
        oracle.normal_logpdf(y, 0.0, trans_var + obs_var) for y in YS[1:]
    )
    assert oracle.kalman_loglik(YS, 0.0, trans_var, 1.0, obs_var) == pytest.approx(
        expected, abs=1e-13
    )


def test_ou_variance_tends_to_brownian_limit():
    sigma, interval = 1.3, 0.7
    assert oracle.ou_transition(0.0, sigma, interval) == (1.0, sigma * sigma * interval)
    for drift in (1e-6, -1e-6):
        coeff, var = oracle.ou_transition(drift, sigma, interval)
        assert coeff == pytest.approx(1.0, abs=1e-5)
        assert var == pytest.approx(sigma * sigma * interval, rel=1e-5)
    # and the stationary variance for a strongly mean-reverting drift
    assert oracle.ou_transition(-50.0, 1.0, 1.0)[1] == pytest.approx(1.0 / 100.0)


def test_quadrature_recovers_a_gaussian_mean():
    mean = oracle.posterior_mean(lambda x: -0.5 * (x - 0.3) ** 2 / 0.04, -2.0, 2.0)
    assert mean == pytest.approx(0.3, abs=1e-10)


def test_oracle_agrees_with_the_package_kalman_filter():
    from mcis.models.lgssm import LinearGaussianSSM, kalman_loglik

    for coeff in (0.0, 0.35, 0.9):
        ssm = LinearGaussianSSM(
            transition_matrix=coeff, transition_cov=0.25, observation_matrix=1.0,
            observation_cov=1.0, initial_mean=0.0, initial_cov=1.0, observations=YS,
        )
        assert oracle.kalman_loglik(YS, coeff, 0.25) == pytest.approx(
            kalman_loglik(ssm), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Workload inputs


def test_inputs_depend_on_seed_and_round_only(tmp_path):
    workload = WORKLOADS["mcmc-is-lgssm"]
    assert workload.simulate(3, 0) == workload.simulate(3, 0)
    assert workload.simulate(3, 0) != workload.simulate(4, 0)
    assert workload.simulate(3, 0) != workload.simulate(3, 1)
    assert len(workload.simulate(3, 0)) == workload.n_obs
    config = workload.write_inputs(tmp_path, 3, 0)
    assert "observations = obs0.txt" in config.read_text()


# ---------------------------------------------------------------------------
# Substep counter against the traced run


def _small(workload):
    sampler = dict(workload.sampler, n_iterations=120, n_burn=20)
    return dataclasses.replace(workload, sampler=sampler)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_substep_counter_matches_traced_filter_calls(name, tmp_path):
    workload = _small(WORKLOADS[name])
    config = workload.write_inputs(tmp_path, 11, 0)
    out, spans_path = tmp_path / "out", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MCIS_WORKERS", None)
    done = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(config), str(out), str(spans_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    outputs = RunOutputs.read(out)
    metrics = layer_metrics(json.loads(spans_path.read_text()))
    counted = workload.substeps(outputs)
    assert counted > 0
    assert counted == metrics["smc.pf_substeps"] + metrics["smc.delta_substeps"]
    results = outputs.results
    if workload.algorithm == "mcmc-is":
        assert metrics["smc.pf_calls"] == results["n_jump_states"] * results["replicates"]
    if workload.algorithm == "mlmc-is":
        assert metrics["smc.delta_calls"] == results["n_jump_states"]
        assert metrics["models.diffusion.coupled_substeps"] == metrics["smc.delta_substeps"]
    if workload.algorithm == "da":
        exact = sum(1 for r in outputs.trace if r["log_stage2"] is not None
                    and r["log_stage1"] is not None)
        assert metrics["mcmc.stage2_runs"] == exact
    assert metrics["mcmc.iterations"] == workload.sampler["n_iterations"]


def test_substep_formula_on_a_hand_made_mlmc_trace():
    workload = WORKLOADS["mlmc-is-ou"]
    outputs = RunOutputs(b"", {}, [{"level": 1}, {"level": 4}])
    n, n_base = workload.horizon, 16
    level_one = n * n_base * 2 * (2 + 1)  # ceil(0.5) = 1
    level_four = n * n_base * 4 * (16 + 8)  # ceil(2.0) = 2
    phase1 = (workload.sampler["n_iterations"] + 1) * n_base * n
    assert workload.substeps(outputs) == level_one + level_four + phase1


# ---------------------------------------------------------------------------
# The benchmark's declaration and entry point


def test_declared_metrics_match_what_the_runs_report():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m for m in declared["per_layer"]}
    reported = set(layer_metrics([])) | {"trace.overhead_s"}
    assert set(per_layer) == reported
    for name, metric in per_layer.items():
        assert metric["unit"] == unit_of(name)
        assert metric["better"] == ("higher" if name in HIGHER_IS_BETTER else "lower")
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == {
        "wall_s", "setup_s", "substeps_per_s", "peak_rss_mb"
    }


def test_refuses_to_run_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mcmc-is-lgssm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no package source" in done.stderr
