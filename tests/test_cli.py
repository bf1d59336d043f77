"""Configuration loading, validation reporting, experiment execution,
and the output file contract of the command-line front end.

Every run here is tiny — the point is the plumbing (schema errors,
exit codes, file layout, reproducibility across worker counts), not
the statistics, which the algorithm test modules cover.
"""

from __future__ import annotations

import configparser
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


def _sections(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _edited(text: str, edits: dict) -> str:
    """``text`` with ``{"section.key": value}`` applied; ``None`` deletes
    the key, and a bare section name with ``None`` deletes the section."""
    sections = _sections(text)
    for where, value in edits.items():
        section, _, key = where.partition(".")
        if not key:
            del sections[section]
        elif value is None:
            sections[section].pop(key, None)
        else:
            sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        for name, values in sections.items()
    )


_GAUSSIAN_PRIOR = {
    "prior.low": None, "prior.high": None, "prior.kind": "gaussian",
    "prior.mean": "0.5", "prior.sd": "0.2",
}

# one single-fault config per distinct message load_config raises, with
# the message in full
_CONFIG_FAULTS = [
    ("int", _PF_CONFIG, {"experiment.seed": "soon"},
     "field experiment.seed: expected an integer, got 'soon'"),
    ("float", _PF_CONFIG, {"model.transition": "fast"},
     "field model.transition: expected a number, got 'fast'"),
    ("vector", _MLMC_CONFIG, {"prior.low": "a, b"},
     "field prior.low: expected numbers, got 'a, b'"),
    ("section", _PF_CONFIG, {"extra.x": "1"}, "unknown section [extra]"),
    ("field", _PF_CONFIG, {"sampler.typo": "3"}, "unknown field sampler.typo"),
    ("no-experiment", _PF_CONFIG, {"experiment": None},
     "missing required section [experiment]"),
    ("no-algorithm", _PF_CONFIG, {"experiment.algorithm": None},
     "missing required field experiment.algorithm"),
    ("algorithm", _PF_CONFIG, {"experiment.algorithm": "annealing"},
     "field experiment.algorithm: unknown algorithm 'annealing'; choose one of "
     "pf, pmmh, da, mcmc-is, mlmc-is, abc-mcmc, abc-adaptive, compare"),
    ("no-seed", _PF_CONFIG, {"experiment.seed": None},
     "missing required field experiment.seed"),
    ("seed-negative", _PF_CONFIG, {"experiment.seed": "-1"},
     "field experiment.seed: must fit in 64 bits"),
    ("seed-wide", _PF_CONFIG, {"experiment.seed": str(2**64)},
     "field experiment.seed: must fit in 64 bits"),
    ("workers", _PF_CONFIG, {"experiment.workers": "0"},
     "field experiment.workers: must be >= 1"),
    ("no-family", _PF_CONFIG, {"model.family": None},
     "missing required field model.family"),
    ("family", _PF_CONFIG, {"model.family": "arma"},
     "field model.family: unknown family 'arma'; choose one of gaussian, lgssm, ou"),
    ("family-field", _PF_CONFIG, {"model.drift": "-0.5"},
     "field model.drift is not used by family 'lgssm'"),
    ("two-sources", _PF_CONFIG, {"model.observations": "ys.txt"},
     "model: give exactly one of model.observations (a file) or model.simulate "
     "(a count)"),
    ("no-source", _MLMC_CONFIG, {"model.simulate": None},
     "model: give exactly one of model.observations (a file) or model.simulate "
     "(a count)"),
    ("simulate", _PF_CONFIG, {"model.simulate": "1"},
     "field model.simulate: must be >= 2"),
    ("no-transition", _PF_CONFIG, {"model.transition": None},
     "missing required field model.transition"),
    ("no-transition-noise", _PF_CONFIG, {"model.transition_noise": None},
     "missing required field model.transition_noise"),
    ("transition-noise", _PF_CONFIG, {"model.transition_noise": "-0.1"},
     "field model.transition_noise: must be >= 0"),
    ("observation-noise", _PF_CONFIG, {"model.observation_noise": "0"},
     "field model.observation_noise: must be > 0"),
    ("initial-variance", _PF_CONFIG, {"model.initial_variance": "-1"},
     "field model.initial_variance: must be >= 0"),
    ("no-drift", _MLMC_CONFIG, {"model.drift": None},
     "missing required field model.drift"),
    ("no-sigma", _MLMC_CONFIG, {"model.sigma": None},
     "missing required field model.sigma"),
    ("sigma-ou", _MLMC_CONFIG, {"model.sigma": "0"}, "field model.sigma: must be > 0"),
    ("interval", _MLMC_CONFIG, {"model.interval": "0"},
     "field model.interval: must be > 0"),
    ("init-sd", _MLMC_CONFIG, {"model.init_sd": "-1"},
     "field model.init_sd: must be >= 0"),
    ("obs-var", _MLMC_CONFIG, {"model.obs_var": "0"},
     "field model.obs_var: must be > 0"),
    ("level", _MLMC_CONFIG, {"experiment.algorithm": "pf", "schedule": None,
                             "sampler.n_particles": "8", "model.level": "-1"},
     "field model.level: must be >= 0"),
    ("no-y-star", _ABC_CONFIG, {"model.y_star": None},
     "missing required field model.y_star"),
    ("sigma-gaussian", _ABC_CONFIG, {"model.sigma": "-1"},
     "field model.sigma: must be > 0"),
    ("thinning", _PF_CONFIG, {"sampler.thinning": "0"},
     "field sampler.thinning: must be >= 1"),
    ("replicates", _mcmc_is_config(), {"sampler.replicates": "0"},
     "field sampler.replicates: must be >= 1"),
    ("eps-reg", _mcmc_is_config(), {"sampler.eps_reg": "-1e-3"},
     "field sampler.eps_reg: must be >= 0"),
    ("beta", _ABC_CONFIG, {"sampler.beta": "0"}, "field sampler.beta: must be > 0"),
    ("alpha-target-high", _ABC_ADAPTIVE_CONFIG, {"sampler.alpha_target": "1"},
     "field sampler.alpha_target: must lie in (0, 1)"),
    ("alpha-target-low", _ABC_ADAPTIVE_CONFIG, {"sampler.alpha_target": "0"},
     "field sampler.alpha_target: must lie in (0, 1)"),
    ("proposal-sd", _mcmc_is_config(), {"sampler.proposal_sd": "0"},
     "field sampler.proposal_sd: must be > 0"),
    ("scheme", _PF_CONFIG, {"sampler.scheme": "bogus"},
     "field sampler.scheme: unknown scheme 'bogus'; choose one of multinomial, "
     "stratified, residual, systematic"),
    ("no-particles", _mcmc_is_config(), {"sampler.n_particles": None},
     "missing required field sampler.n_particles"),
    ("particles", _PF_CONFIG, {"sampler.n_particles": "0"},
     "field sampler.n_particles: must be >= 1"),
    ("no-iterations", _mcmc_is_config(), {"sampler.n_iterations": None},
     "missing required field sampler.n_iterations"),
    ("iterations", _ABC_CONFIG, {"sampler.n_iterations": "0"},
     "field sampler.n_iterations: must be >= 1"),
    ("burn", _mcmc_is_config(), {"sampler.n_burn": "-1"},
     "field sampler.n_burn: must be >= 0"),
    ("post-burn-in", _mcmc_is_config(), {"sampler.n_burn": "111"},
     "sampler: need at least 10 post-burn-in iterations"),
    ("eps-reg-mlmc", _MLMC_CONFIG, {"sampler.eps_reg": "0"},
     "field sampler.eps_reg: must be > 0 for mlmc-is (the level-0 normalizer can "
     "vanish)"),
    ("no-epsilon0", _ABC_CONFIG, {"sampler.epsilon0": None},
     "missing required field sampler.epsilon0"),
    ("epsilon0", _ABC_CONFIG, {"sampler.epsilon0": "0"},
     "field sampler.epsilon0: must be > 0"),
    ("epsilon0-adaptive", _ABC_ADAPTIVE_CONFIG, {"sampler.epsilon0": "-1"},
     "field sampler.epsilon0: must be > 0"),
    ("adaptation", _ABC_ADAPTIVE_CONFIG, {"sampler.n_burn": "0"},
     "field sampler.n_burn: the adaptation phase needs >= 1 iterations"),
    ("epsilon-post", _ABC_CONFIG, {"sampler.epsilon_post": "0"},
     "field sampler.epsilon_post: must be > 0"),
    ("pairing", _mcmc_is_config(), {"experiment.algorithm": "mlmc-is"},
     "model.family 'lgssm' is not supported by algorithm 'mlmc-is' (expected ou)"),
    ("no-kind", _mcmc_is_config(), {"prior.kind": None},
     "missing required field prior.kind"),
    ("kind", _mcmc_is_config(), {"prior.kind": "cauchy"},
     "field prior.kind: unknown kind 'cauchy'; choose uniform or gaussian"),
    ("no-low", _mcmc_is_config(), {"prior.low": None}, "missing required field prior.low"),
    ("no-high", _mcmc_is_config(), {"prior.high": None},
     "missing required field prior.high"),
    ("low-high", _mcmc_is_config(), {"prior.high": "0.0"},
     "prior: low must be componentwise below high"),
    ("no-mean", _mcmc_is_config(), {**_GAUSSIAN_PRIOR, "prior.mean": None},
     "missing required field prior.mean"),
    ("no-sd", _mcmc_is_config(), {**_GAUSSIAN_PRIOR, "prior.sd": None},
     "missing required field prior.sd"),
    ("sd", _mcmc_is_config(), {**_GAUSSIAN_PRIOR, "prior.sd": "0.2, 0.2"},
     "prior: sd must be positive (scalar or one per mean)"),
    ("no-rho", _MLMC_CONFIG, {"schedule.rho": None},
     "missing required field schedule.rho"),
    ("rho", _MLMC_CONFIG, {"schedule.rho": "-0.5"},
     "field schedule.rho: -0.5 outside the allowed range [0, 1]"),
    ("no-n-base", _MLMC_CONFIG, {"schedule.n_base": None},
     "missing required field schedule.n_base"),
    ("n-base", _MLMC_CONFIG, {"schedule.n_base": "0"},
     "field schedule.n_base: must be >= 1"),
    ("variant", _MLMC_CONFIG, {"schedule.variant": "harmonic"},
     "field schedule.variant: unknown variant 'harmonic'; choose plain or log_factor"),
    ("eta", _MLMC_CONFIG, {"schedule.variant": "log_factor", "schedule.eta": "0.5"},
     "field schedule.eta: must exceed 1 for the log_factor variant"),
    ("schedule", _ABC_CONFIG, {"schedule.rho": "0.5"},
     "section [schedule] is only used by algorithm mlmc-is"),
    ("guard", _MLMC_CONFIG, {"guard.substeps": "0"},
     "field guard.substeps: must be >= 1"),
]


@pytest.mark.parametrize(
    "base, edits, message",
    [case[1:] for case in _CONFIG_FAULTS],
    ids=[case[0] for case in _CONFIG_FAULTS],
)
def test_every_config_error_message(tmp_path, base, edits, message):
    path = _write(tmp_path, _edited(base, edits))
    assert _sections(base) != _sections(path.read_text())
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == message


def test_unreadable_config_files(tmp_path):
    with pytest.raises(ConfigError, match=r"^cannot read config file .*nowhere\.ini: "):
        load_config(tmp_path / "nowhere.ini")
    with pytest.raises(ConfigError, match=r"^cannot parse config: "):
        load_config(_write(tmp_path, "seed = 1\n[experiment]\n"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  oops\n}", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    assert str(excinfo.value) == (
        "invalid JSON config (line 2): Expecting property name enclosed in double quotes"
    )


def test_validate_subcommand(tmp_path, capsys):
    assert main(["validate", str(_write(tmp_path, _MLMC_CONFIG))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert "level pmf head" in out
    assert "admissible" in out

    bad = _write(tmp_path, _MLMC_CONFIG.replace("rho = 1.0", "rho = 2.0"), "bad.ini")
    assert validate_config(bad) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"model.transition": "nan"}, "field model.transition: must be finite, got 'nan'"),
        ({"model.transition_noise": "inf"},
         "field model.transition_noise: must be finite, got 'inf'"),
        ({"prior.low": "-inf"}, "field prior.low: must be finite, got '-inf'"),
        ({"sampler.eps_reg": "-Infinity"},
         "field sampler.eps_reg: must be finite, got '-Infinity'"),
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, edits, message):
    path = _write(tmp_path, _edited(_mcmc_is_config(), edits))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {message}\n") == 2


def test_validate_reports_guard_headroom_per_run(tmp_path, capsys):
    # 101 observations: a level-l run advances its particles over 100
    # intervals, so level 4 needs 16 * 4 * 100 * (16 + 8) = 153,600
    # particle-substeps, over the guard, although one interval fits
    edits = {"model.simulate": "101", "schedule.rho": "0.5", "schedule.n_base": "16",
             "guard.substeps": "100000"}
    path = _write(tmp_path, _edited(_MLMC_CONFIG, edits))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "guard            100000 particle-substeps per run (levels 1..3 admissible)" in out
    from mcis.multilevel import build_schedule, particle_substeps

    schedule = build_schedule(rho=0.5, n_base=16)
    assert particle_substeps(schedule, 3, 100) <= 100_000 < particle_substeps(schedule, 4, 100)


def test_validate_reads_the_observation_file(tmp_path, capsys):
    text = _MLMC_CONFIG.replace("simulate = 5", "observations = ys.txt")
    path = _write(tmp_path, text)
    assert validate_config(path) == 2
    assert "field model.observations: cannot read" in capsys.readouterr().err

    (tmp_path / "ys.txt").write_text("0.5\nfast\n")
    assert validate_config(path) == 2
    assert run_experiment(path) == 2
    assert capsys.readouterr().err.count("field model.observations: cannot read") == 2

    (tmp_path / "ys.txt").write_text("0.5\n")
    assert validate_config(path) == 2
    assert "one column with >= 2 values" in capsys.readouterr().err

    (tmp_path / "ys.txt").write_text("0.5\nnan\n")
    assert validate_config(path) == 2
    assert run_experiment(path) == 2
    assert capsys.readouterr().err.count("holds a non-finite value") == 2

    (tmp_path / "ys.txt").write_text("0.5\n-0.3\n1.1\n")
    guarded = _write(tmp_path, text + "\n[guard]\nsubsteps = 100\n", "g.ini")
    assert validate_config(guarded) == 0
    # rho = 1, n_base = 8: level 1 needs 16 particles * 2 intervals * 3 = 96
    assert "(levels 1..1 admissible)" in capsys.readouterr().out


def test_validate_warns_when_eps_reg_swamps_the_likelihood(tmp_path, capsys):
    # 11 observations: the Kalman likelihood stays below 1e-8 at every
    # prior decile, so with eps_reg = 0.01 the phase-1 chain samples the
    # prior (its sd is that of U(0, 1))
    swamped = _edited(_mcmc_is_config(), {"model.simulate": "11"})
    warning = "warning          log(eps_reg) = -4.605 exceeds the log-likelihood"
    for algorithm in ("mcmc-is", "da", "compare"):
        text = _edited(swamped, {"experiment.algorithm": algorithm})
        assert validate_config(_write(tmp_path, text)) == 0
        out = capsys.readouterr().out
        assert warning in out and "(largest -19.29)" in out
    gaussian = _edited(swamped, _GAUSSIAN_PRIOR)
    assert validate_config(_write(tmp_path, gaussian)) == 0
    assert warning in capsys.readouterr().out
    # mlmc-is probes the level-0 Euler model of the ou family
    assert validate_config(_write(tmp_path, _MLMC_CONFIG)) == 0
    assert "(largest -6.066)" in capsys.readouterr().out

    quiet = [
        _edited(swamped, {"sampler.eps_reg": "1e-10"}),
        _edited(swamped, {"experiment.algorithm": "pmmh"}),
        _edited(_MLMC_CONFIG, {"sampler.eps_reg": "1e-5"}),
    ]
    for text in quiet:
        assert validate_config(_write(tmp_path, text)) == 0
        assert "warning" not in capsys.readouterr().out


def test_normal_deciles_are_the_standard_normal_quantiles():
    from statistics import NormalDist

    from mcis.cli import _NORMAL_DECILES

    want = [NormalDist().inv_cdf(k / 10) for k in range(1, 10)]
    assert _NORMAL_DECILES == pytest.approx(want, abs=1e-15)


def _readme() -> str:
    return (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_validates(tmp_path, capsys):
    quick_start = _readme().split("## Quick start", 1)[1]
    block = quick_start.split("```ini\n", 1)[1].split("```", 1)[0]
    assert validate_config(_write(tmp_path, block)) == 0
    assert capsys.readouterr().out.startswith("OK")


def _reference_row(field) -> str:
    from mcis.cli import ALGORITHM_FAMILIES

    kind = {int: "integer", float: "number", tuple: "numbers", str: "text"}[field.kind]
    if field.required:
        default = "required"
    else:
        default = "" if field.default is None else f"`{field.default}`"
    allowed = str(field.range) if field.range else ", ".join(field.choices)
    scope = field.families or field.algorithms or ("all",)
    others = [name for name in ALGORITHM_FAMILIES if name not in scope]
    scope = f"all but {others[0]}" if len(others) == 1 else ", ".join(scope)
    return f"| {field.section} | `{field.key}` | {kind} | {default} | {allowed} | {scope} |"


def test_readme_reference_lists_every_field():
    from mcis.cli import FIELDS

    lines = set(_readme().splitlines())
    missing = [row for row in map(_reference_row, FIELDS) if row not in lines]
    assert not missing


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


def test_thinning_applies_to_pf_and_mlmc_traces(tmp_path):
    # 6 filter steps and 69 jump states, every fifth record kept
    for name, text, kept in (("pf", _PF_CONFIG, 2), ("mlmc", _MLMC_CONFIG, 14)):
        thinned = _edited(text, {"sampler.thinning": "5"})
        out_dir = tmp_path / name
        assert run_experiment(_write(tmp_path, thinned, f"{name}.ini"), output_dir=out_dir) == 0
        assert len((out_dir / "trace.jsonl").read_text().splitlines()) == kept
    summary = json.loads((tmp_path / "mlmc" / "summary.json").read_text())
    assert summary["results"]["n_jump_states"] == 69


def test_mlmc_guard_names_every_offender_before_any_coupled_run(
    tmp_path, capsys, monkeypatch
):
    import mcis.multilevel as multilevel
    from mcis.rng import KeyedStreams

    chains, coupled_runs = [], []
    chain = multilevel.run_approx_marginal_chain

    def recorded_chain(*args, **kwargs):
        chains.append(chain(*args, **kwargs))
        return chains[-1]

    monkeypatch.setattr(multilevel, "run_approx_marginal_chain", recorded_chain)
    monkeypatch.setattr(
        multilevel, "run_delta_pf", lambda *args, **kwargs: coupled_runs.append(1)
    )
    edits = {"model.simulate": "101", "schedule.rho": "0.5", "schedule.n_base": "16",
             "guard.substeps": "100000"}
    path = _write(tmp_path, _edited(_MLMC_CONFIG, edits))
    assert run_experiment(path, workers=1) == 4
    assert coupled_runs == []
    err = capsys.readouterr().err

    schedule = multilevel.build_schedule(rho=0.5, n_base=16)
    streams = KeyedStreams(11)
    offenders = {}
    for j in range(len(chains[0])):
        level = multilevel.sample_level(schedule, streams.stream("mlmc", j))
        if multilevel.particle_substeps(schedule, level, 100) > 100_000:
            offenders.setdefault(level, []).append(j + 1)
    assert len(offenders) >= 2
    for level, states in offenders.items():
        need = multilevel.particle_substeps(schedule, level, 100)
        assert f"level {level} needs {need} (jump states {', '.join(map(str, states))})" in err
    assert err.count("level ") == len(offenders)


# summary.json and trace.jsonl SHA-256 of the test configs (compare
# writes no trace); a change that moves random streams or rounding must
# update these openly
_PINNED_SUMMARIES = [
    ("pf", _PF_CONFIG,
     "443da2b1dcf90e47a41357e74f24c0cb14271a18f4f0b425b3b4350bcfd3a3d5",
     "59b718a48cefb7b491ca3cc5cceec0faadef4a24e091da3938c64fb9b65b6005"),
    ("pf-ou", _edited(_MLMC_CONFIG, {"experiment.algorithm": "pf", "schedule": None,
                                     "sampler.n_particles": "8", "model.level": "2"}),
     "31af3b2f0c2474e8090c2ccce5ad8df40804b873cbfab7ffc2ef4e794ada8b06",
     "5dcacd4cda6fb7ab97806cf27aaf02d90a45e7d78f41aa71239a2a7d0db68a4c"),
    ("pmmh", _mcmc_is_config().replace("algorithm = mcmc-is", "algorithm = pmmh"),
     "0e406fa5ea2f3d61a87f95b2538426c83153f5bfd312d92522000782fd4b1cfd",
     "557cd62f15e1523778ccd212b54f35950043b469bfb95b9d71e93c68fec118b3"),
    ("da", _mcmc_is_config().replace("algorithm = mcmc-is", "algorithm = da"),
     "5e292f21c179abcf19da4e66028a809e6b0d43d566e96c88020f153e95579447",
     "42a01c3678835244c866e4b0b0bc495d96853fb40788b20afe089f74274b6f70"),
    ("mcmc-is", _mcmc_is_config(),
     "d578b20509d4b06984aae83e78ad67577f2fbcd0681911e992b9808e70f05cd7",
     "bef745bc72ab9891d716b705785aa54e688ca148dcb28653883528a75f03332f"),
    ("mlmc-is", _MLMC_CONFIG,
     "25b9f90e81bdc670bb9a94aab6123afcef2685ab697acd9c7ec716d510ec1894",
     "051a1dcfc5dd03cd9df4453fd593a9296f1c2ee122c989c6a12a09986a9a5d75"),
    ("abc-mcmc", _ABC_CONFIG,
     "7e6e2c39abff55f10559baca022c644ef4f71f9b4c70b79fedbf02875fc73c5e",
     "9dfb405ca71b31ca7f51e56414783bff29a9e73f3e4ef9c00ed43beab31c4aed"),
    ("abc-adaptive", _ABC_ADAPTIVE_CONFIG,
     "0abf99837ec430cbb98b52bc2bf2940a1f5d43c0e387990411d2eec49b70b6ea",
     "5196fd2eeaf71fc0ba3ce22799cc441dcba3fc3008126c21339be28098b8a90f"),
    ("compare", _mcmc_is_config().replace("algorithm = mcmc-is", "algorithm = compare")
     .replace("n_iterations = 120", "n_iterations = 150"),
     "99cc9312e644441823af8e8f2c1dc3c5a0b954d46d6fdb18b750f57fd71cb7ec",
     None),
]


@pytest.mark.parametrize(
    "name, text, digest, trace_digest",
    _PINNED_SUMMARIES,
    ids=[p[0] for p in _PINNED_SUMMARIES],
)
def test_summary_bytes_are_pinned(tmp_path, capsys, name, text, digest, trace_digest):
    out_dir = tmp_path / "out"
    assert run_experiment(_write(tmp_path, text), output_dir=out_dir) == 0
    assert hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest() == digest
    trace = out_dir / "trace.jsonl"
    if trace_digest is None:
        assert not trace.exists()
    else:
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest


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
