"""Configuration loading, validation reporting, experiment execution,
and the output file contract of the command-line front end.

Every run here is tiny — the point is the plumbing (schema errors,
exit codes, file layout, reproducibility across worker counts), not
the statistics, which the algorithm test modules cover.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcis
from mcis.cli import load_config, main, run_experiment, validate_config
from mcis.errors import ConfigError


def _write(tmp_path, text, name="experiment.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


_PF_CONFIG = """\
[experiment]
algorithm = pf
seed = 2026

[model]
family = lgssm
transition = 0.9
transition_noise = 0.25
simulate = 6

[sampler]
n_particles = 16
"""


def _mcmc_is_config(seed=202608):
    return f"""\
[experiment]
algorithm = mcmc-is
seed = {seed}

[model]
family = lgssm
transition = 0.6
transition_noise = 0.25
simulate = 6

[prior]
kind = uniform
low = 0.0
high = 1.0

[sampler]
n_iterations = 120
n_burn = 20
n_particles = 8
eps_reg = 0.01
proposal_sd = 0.2
replicates = 2
"""


_MLMC_CONFIG = """\
[experiment]
algorithm = mlmc-is
seed = 11

[model]
family = ou
drift = -0.5
sigma = 0.5
obs_var = 0.25
simulate = 5

[prior]
kind = uniform
low = -1.0
high = 0.0

[sampler]
n_iterations = 150
n_burn = 20
eps_reg = 0.01
proposal_sd = 0.25

[schedule]
rho = 1.0
n_base = 8
"""


_ABC_CONFIG = """\
[experiment]
algorithm = abc-mcmc
seed = 7

[model]
family = gaussian
y_star = 0.3

[prior]
kind = uniform
low = -2.0
high = 2.0

[sampler]
n_iterations = 400
epsilon0 = 1.0
epsilon_post = 0.5
proposal_sd = 0.5
"""


_ABC_ADAPTIVE_CONFIG = """\
[experiment]
algorithm = abc-adaptive
seed = 7

[model]
family = gaussian
y_star = 0.3

[prior]
kind = uniform
low = -2.0
high = 2.0

[sampler]
n_iterations = 400
n_burn = 400
alpha_target = 0.1
proposal_sd = 0.5
"""


# ---------------------------------------------------------------------------
# Loading and validation


def test_load_config_applies_defaults(tmp_path):
    path = _write(tmp_path, _PF_CONFIG)
    config = load_config(path)
    assert config.algorithm == "pf"
    assert config.seed == 2026
    assert config.workers is None
    assert config.output_dir == tmp_path / "experiment_out"
    assert config.sampler["scheme"] == "systematic"
    assert config.sampler["eps_reg"] == 1e-6
    assert config.model["observation_noise"] == 1.0
    assert config.observation_count == 6
    assert config.config_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_json_config_is_equivalent(tmp_path):
    ini = load_config(_write(tmp_path, _PF_CONFIG))
    payload = {
        "experiment": {"algorithm": "pf", "seed": 2026},
        "model": {
            "family": "lgssm",
            "transition": 0.9,
            "transition_noise": 0.25,
            "simulate": 6,
        },
        "sampler": {"n_particles": 16},
    }
    json_path = tmp_path / "experiment.json"
    json_path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_config(json_path)
    assert loaded.model == ini.model
    assert loaded.sampler == ini.sampler
    assert loaded.seed == ini.seed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(ConfigError, match="object of section objects"):
        load_config(bad)


def test_unknown_names_are_rejected(tmp_path):
    path = _write(tmp_path, _PF_CONFIG + "typo_field = 3\n")
    with pytest.raises(ConfigError, match=r"unknown field sampler\.typo_field"):
        load_config(path)
    path = _write(tmp_path, _PF_CONFIG + "\n[extra]\nx = 1\n", "s.ini")
    with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
        load_config(path)
    path = _write(tmp_path, _PF_CONFIG.replace("= pf", "= annealing"), "a.ini")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        load_config(path)


def test_type_errors_name_the_field(tmp_path):
    path = _write(tmp_path, _PF_CONFIG.replace("seed = 2026", "seed = soon"))
    with pytest.raises(ConfigError, match=r"experiment\.seed: expected an integer"):
        load_config(path)
    path = _write(
        tmp_path, _PF_CONFIG.replace("transition = 0.9", "transition = fast"), "t.ini"
    )
    with pytest.raises(ConfigError, match=r"model\.transition: expected a number"):
        load_config(path)


def test_exactly_one_data_source(tmp_path):
    both = _PF_CONFIG.replace("simulate = 6", "simulate = 6\nobservations = ys.txt")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, both))
    neither = _PF_CONFIG.replace("simulate = 6\n", "")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, neither, "n.ini"))
    short = _PF_CONFIG.replace("simulate = 6", "simulate = 1")
    with pytest.raises(ConfigError, match=r"model\.simulate: must be >= 2"):
        load_config(_write(tmp_path, short, "o.ini"))


def test_chain_budget_requirements(tmp_path):
    text = _mcmc_is_config()
    with pytest.raises(ConfigError, match=r"missing required field sampler\.n_particles"):
        load_config(_write(tmp_path, text.replace("n_particles = 8\n", "")))
    with pytest.raises(ConfigError, match="at least 10 post-burn-in"):
        load_config(
            _write(tmp_path, text.replace("n_burn = 20", "n_burn = 115"), "b.ini")
        )


def test_family_and_field_pairing(tmp_path):
    mismatched = _mcmc_is_config().replace("algorithm = mcmc-is", "algorithm = mlmc-is")
    with pytest.raises(ConfigError, match="not supported by algorithm"):
        load_config(_write(tmp_path, mismatched))
    stray = _PF_CONFIG.replace("simulate = 6", "simulate = 6\ndrift = -0.5")
    with pytest.raises(ConfigError, match=r"model\.drift is not used by family"):
        load_config(_write(tmp_path, stray, "d.ini"))


def test_prior_validation(tmp_path):
    text = _mcmc_is_config()
    with pytest.raises(ConfigError, match=r"prior\.kind: unknown kind"):
        load_config(_write(tmp_path, text.replace("kind = uniform", "kind = cauchy")))
    with pytest.raises(ConfigError, match="componentwise below"):
        load_config(
            _write(tmp_path, text.replace("high = 1.0", "high = -1.0"), "h.ini")
        )
    gaussian = text.replace(
        "kind = uniform\nlow = 0.0\nhigh = 1.0",
        "kind = gaussian\nmean = 0.5\nsd = -1.0",
    )
    with pytest.raises(ConfigError, match="sd must be positive"):
        load_config(_write(tmp_path, gaussian, "g.ini"))


def test_schedule_validation(tmp_path):
    with pytest.raises(
        ConfigError, match=r"schedule\.rho: 1.5 outside the allowed range \[0, 1\]"
    ):
        load_config(_write(tmp_path, _MLMC_CONFIG.replace("rho = 1.0", "rho = 1.5")))
    with pytest.raises(ConfigError, match=r"only used by algorithm mlmc-is"):
        load_config(
            _write(tmp_path, _PF_CONFIG + "\n[schedule]\nrho = 0.5\n", "s.ini")
        )
    with pytest.raises(ConfigError, match=r"schedule\.variant: unknown variant"):
        load_config(_write(tmp_path, _MLMC_CONFIG + "variant = harmonic\n", "v.ini"))
    with pytest.raises(ConfigError, match=r"schedule\.eta: must exceed 1"):
        load_config(
            _write(tmp_path, _MLMC_CONFIG + "variant = log_factor\neta = 1.0\n", "e.ini")
        )


def test_seed_is_mandatory(tmp_path):
    path = _write(tmp_path, _PF_CONFIG.replace("seed = 2026\n", ""))
    with pytest.raises(ConfigError, match=r"missing required field experiment\.seed"):
        load_config(path)


def test_validate_subcommand(tmp_path, capsys):
    assert main(["validate", str(_write(tmp_path, _MLMC_CONFIG))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert "level pmf head" in out
    assert "admissible" in out

    bad = _write(tmp_path, _MLMC_CONFIG.replace("rho = 1.0", "rho = 2.0"), "bad.ini")
    assert validate_config(bad) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Execution and outputs


def test_run_writes_the_output_contract(tmp_path, capsys):
    path = _write(tmp_path, _PF_CONFIG)
    assert main(["run", str(path)]) == 0
    out_dir = tmp_path / "experiment_out"
    assert "summary.json" in capsys.readouterr().out

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["algorithm"] == "pf"
    assert summary["seed"] == 2026
    assert summary["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert "particle-substeps" in summary["cost_unit"]
    assert summary["files"]["trace"] == "trace.jsonl"
    results = summary["results"]
    assert results["n_observations"] == 6
    assert np.isfinite(results["loglik_hat"])

    lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6
    assert set(json.loads(lines[0])) == {"p", "state_mean"}

    timing = json.loads((out_dir / "timing.json").read_text())
    assert timing["workers"] == 1
    assert timing["wall_clock_seconds"] >= 0.0


def test_observation_files_are_read_relative_to_config(tmp_path):
    (tmp_path / "ys.txt").write_text("0.5\n-0.3\n1.1\n0.2\n-0.7\n")
    text = _PF_CONFIG.replace("simulate = 6", "observations = ys.txt")
    assert run_experiment(_write(tmp_path, text)) == 0
    summary = json.loads((tmp_path / "experiment_out" / "summary.json").read_text())
    assert summary["results"]["n_observations"] == 5

    missing = text.replace("ys.txt", "nowhere.txt")
    assert run_experiment(_write(tmp_path, missing, "m.ini")) == 2


def test_output_dir_and_worker_flags(tmp_path):
    path = _write(tmp_path, _PF_CONFIG)
    target = tmp_path / "elsewhere"
    assert main(["run", str(path), "--output-dir", str(target), "--workers", "3"]) == 0
    assert (target / "summary.json").exists()
    timing = json.loads((target / "timing.json").read_text())
    assert timing["workers"] == 3


def test_worker_count_leaves_outputs_byte_identical(tmp_path):
    path = _write(tmp_path, _mcmc_is_config())
    one, four = tmp_path / "w1", tmp_path / "w4"
    assert main(["run", str(path), "--output-dir", str(one), "--workers", "1"]) == 0
    assert main(["run", str(path), "--output-dir", str(four), "--workers", "4"]) == 0
    for name in ("summary.json", "trace.jsonl"):
        assert (one / name).read_bytes() == (four / name).read_bytes()
    assert json.loads((one / "timing.json").read_text())["workers"] == 1
    assert json.loads((four / "timing.json").read_text())["workers"] == 4


def test_compare_subcommand_writes_comparison_table(tmp_path, capsys):
    text = _mcmc_is_config().replace("algorithm = mcmc-is", "algorithm = pmmh")
    text = text.replace("n_iterations = 120", "n_iterations = 150")
    path = _write(tmp_path, text)
    assert main(["compare", str(path)]) == 0
    out_dir = tmp_path / "experiment_out"

    table = (out_dir / "comparison.csv").read_text().splitlines()
    assert table[0] == "sampler,asvar,asvar_se,iact,n_series"
    samplers = {row.split(",")[0] for row in table[1:]}
    assert samplers == {"da", "mcmc_is", "pmmh"}

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["algorithm"] == "compare"
    assert set(summary["results"]) >= {"comparison", "pmmh", "da", "mcmc_is"}
    assert "pmmh" in capsys.readouterr().out


def test_abc_runs_write_curve_and_adaptation_files(tmp_path):
    assert run_experiment(_write(tmp_path, _ABC_CONFIG), output_dir=tmp_path / "fixed") == 0
    summary = json.loads((tmp_path / "fixed" / "summary.json").read_text())
    assert summary["results"]["epsilon"] == 0.5
    assert summary["results"]["epsilon_chain"] == 1.0
    assert {"iact", "ci_lower", "ci_upper"} <= set(summary["results"])
    curve = (tmp_path / "fixed" / "curve.csv").read_text().splitlines()
    assert curve[0] == "epsilon,estimate"
    assert len(curve) > 10

    assert (
        run_experiment(
            _write(tmp_path, _ABC_ADAPTIVE_CONFIG, "a.ini"), output_dir=tmp_path / "ad"
        )
        == 0
    )
    summary = json.loads((tmp_path / "ad" / "summary.json").read_text())
    assert summary["results"]["adapted_epsilon"] > 0
    assert summary["results"]["n_adaptation"] == 400
    rows = (tmp_path / "ad" / "adaptation.csv").read_text().splitlines()
    assert rows[0] == "k,epsilon,realized_alpha"
    assert len(rows) == 401


def test_mlmc_run_writes_level_table(tmp_path):
    assert run_experiment(_write(tmp_path, _MLMC_CONFIG)) == 0
    out_dir = tmp_path / "experiment_out"
    summary = json.loads((out_dir / "summary.json").read_text())
    results = summary["results"]
    assert results["total_cost"] > 0
    assert results["max_level"] >= 1
    assert results["ire"] > 0
    levels = (out_dir / "levels.csv").read_text().splitlines()
    assert levels[0] == "level,count,total_cost"
    assert len(levels) == len(results["level_counts"]) + 1


def test_resource_guard_exit_code(tmp_path, capsys):
    text = _MLMC_CONFIG + "\n[guard]\nsubsteps = 1\n"
    assert run_experiment(_write(tmp_path, text)) == 4
    assert "resource guard" in capsys.readouterr().err


def test_runtime_failure_exit_code(tmp_path, capsys):
    text = _ABC_CONFIG.replace("epsilon_post = 0.5", "epsilon_post = 1e-12")
    assert run_experiment(_write(tmp_path, text)) == 3
    assert "runtime error" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; no command needs it
    env = dict(os.environ, PYTHONPATH=str(Path(mcis.__file__).parents[1]))
    code = "import sys, mcis.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_da_counts_only_exact_stage2_evaluations(tmp_path):
    # a wide proposal under a U(0, 1) prior: many proposals miss the
    # support, are rejected before stage 1 and must not count as stage 2
    text = _mcmc_is_config().replace("algorithm = mcmc-is", "algorithm = da")
    text = text.replace("proposal_sd = 0.2", "proposal_sd = 1.0")
    text = text.replace("replicates = 2\n", "")
    # well below the likelihood (~1e-3 here), so stage 1 also rejects
    text = text.replace("eps_reg = 0.01", "eps_reg = 1e-10")
    assert run_experiment(_write(tmp_path, text)) == 0
    out_dir = tmp_path / "experiment_out"
    results = json.loads((out_dir / "summary.json").read_text())["results"]
    records = [
        json.loads(line) for line in (out_dir / "trace.jsonl").read_text().splitlines()
    ]
    prior_rejected = [r for r in records if r["log_stage1"] is None]
    exact = [
        r["log_stage2"] for r in records
        if r["log_stage1"] is not None and r["log_stage2"] is not None
    ]
    screened_out = [
        r for r in records if r["log_stage1"] is not None and r["log_stage2"] is None
    ]
    assert prior_rejected and screened_out and exact
    assert results["stage2_evaluations"] == len(exact)
    assert results["mean_stage2_probability"] == pytest.approx(
        np.mean([math.exp(v) for v in exact]), rel=1e-12
    )
