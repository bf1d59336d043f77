"""Command-line front end: configuration, execution, output emission.

An experiment is described by a sectioned config file (INI key-value
syntax, or the same schema as a JSON object).  The seed is mandatory —
results must never depend on the wall clock — and all randomness flows
through keyed substreams, so reruns are byte-identical regardless of
the worker count.  Outputs per run:

``summary.json``
    Deterministic results: estimates, variances, intervals, cost
    ledger totals, plus the config hash, package version and seed.
``timing.json``
    Wall-clock and worker count — everything allowed to vary between
    identical runs lives here, keeping ``summary.json`` reproducible.
``trace.jsonl``
    One JSON record per iteration (or per distinct chain state).
``*.csv``
    Plot-ready tables (tolerance curves, level tables, comparisons).

Exit codes: 0 success, 2 configuration error, 3 degenerate-estimator
runtime failure, 4 resource-guard abort.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .abc import (
    abc_confidence_interval,
    post_correct,
    post_correct_curve,
    run_abc_mcmc,
    run_tolerance_adaptation,
)
from .diagnostics import compare_chains, format_comparison, series_stats
from .errors import (
    ConfigError,
    CouplingSupportError,
    DegenerateEstimatorError,
    DegenerateWeightsError,
    EmptySelectionError,
    InitializationError,
    ModelEvaluationError,
    NumericalOverflowError,
    ParameterError,
    ResourceGuardError,
    SupportConditionError,
)
from .is_correction import ParticleSmootherRunner, run_mcmc_is, weight_residual_series
from .mcmc import (
    GaussianPrior,
    ProposalState,
    UniformPrior,
    run_delayed_acceptance,
    run_pmmh,
)
from .models.abc_model import GaussianLocationAbc
from .models.diffusion import DiffusionFamily, LinearDrift, ou_level_lgssm
from .models.diffusion import _ou_exact_moments
from .models.lgssm import KalmanLikelihood, LgssmFamily, kalman_loglik
from .multilevel import DEFAULT_SUBSTEP_GUARD, LevelSchedule, ire, run_mlmc_is
from .multilevel import particle_substeps
from .parallel import worker_count
from .rng import KeyedStreams
from .smc import RESAMPLING_SCHEMES, run_particle_filter

__all__ = ["ExperimentConfig", "load_config", "run_experiment", "main"]

COST_UNIT = "particle-substeps (one particle advanced one transition substep)"

_RUNTIME_ERRORS = (
    DegenerateWeightsError,
    DegenerateEstimatorError,
    InitializationError,
    EmptySelectionError,
    CouplingSupportError,
    SupportConditionError,
    ModelEvaluationError,
    NumericalOverflowError,
)


# ---------------------------------------------------------------------------
# Schema

# the model families each algorithm runs on
ALGORITHM_FAMILIES = {
    "pf": ("lgssm", "ou"),
    "pmmh": ("lgssm",),
    "da": ("lgssm",),
    "mcmc-is": ("lgssm",),
    "mlmc-is": ("ou",),
    "abc-mcmc": ("gaussian",),
    "abc-adaptive": ("gaussian",),
    "compare": ("lgssm",),
}

# algorithms that sample the parameter: all but pf
_SAMPLING = tuple(name for name in ALGORITHM_FAMILIES if name != "pf")
_PARTICLE = ("pf", "pmmh", "da", "mcmc-is", "compare")
_LGSSM, _OU, _SSM = ("lgssm",), ("ou",), ("lgssm", "ou")


@dataclass(frozen=True)
class Range:
    """Interval a number field must lie in.

    ``ends`` holds the bracket at each end: ``[`` / ``]`` closed,
    ``(`` / ``)`` open.  ``text`` replaces the generated error text and
    may use ``{value}`` and ``{range}``.
    """

    low: float
    high: float = math.inf
    ends: str = "[)"
    text: str = ""

    def __contains__(self, value) -> bool:
        above = value >= self.low if self.ends[0] == "[" else value > self.low
        below = value <= self.high if self.ends[1] == "]" else value < self.high
        return above and below

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>=' if self.ends[0] == '[' else '>'} {self.low}"
        return f"{self.ends[0]}{self.low}, {self.high}{self.ends[1]}"

    def error(self, value) -> str:
        if self.text:
            return self.text.format(value=value, range=self)
        return f"must be {self}" if self.high == math.inf else f"must lie in {self}"


_AT_LEAST_0 = Range(0)
_AT_LEAST_1 = Range(1)
_POSITIVE = Range(0, ends="()")


@dataclass(frozen=True)
class Field:
    """One config field: where it lives, what it holds, where it applies.

    ``kind`` is ``int``, ``float``, ``tuple`` (comma-separated floats)
    or ``str``.  The field applies to the model ``families`` and the
    ``algorithms`` listed (``None``: all of them).  Where it applies, a
    missing field takes ``default``, or is an error when ``required``,
    and a present one must lie in ``range`` or among ``choices``.  A
    model field given for a family it does not apply to is an error; a
    field of another section is ignored where it does not apply.  A key
    may have several entries for disjoint families or algorithms.
    """

    section: str
    key: str
    kind: type = float
    default: object = None
    required: bool = False
    range: Range | None = None
    choices: tuple = ()
    families: tuple | None = None
    algorithms: tuple | None = None

    def applies(self, algorithm: str, family: str) -> bool:
        return (self.families is None or family in self.families) and (
            self.algorithms is None or algorithm in self.algorithms
        )


_ALGORITHM = Field(
    "experiment", "algorithm", str, required=True, choices=tuple(ALGORITHM_FAMILIES)
)
_FAMILY = Field("model", "family", str, required=True, choices=("gaussian", "lgssm", "ou"))

# the whole schema; the order is the order of the checks
FIELDS = (
    _ALGORITHM,
    Field("experiment", "seed", int, required=True,
          range=Range(0, 2**64, text="must fit in 64 bits")),
    Field("experiment", "output_dir", str),
    Field("experiment", "workers", int, range=_AT_LEAST_1),
    _FAMILY,
    Field("model", "transition", required=True, families=_LGSSM),
    Field("model", "transition_noise", required=True, range=_AT_LEAST_0,
          families=_LGSSM),
    Field("model", "observation_gain", default=1.0, families=_LGSSM),
    Field("model", "observation_noise", default=1.0, range=_POSITIVE, families=_LGSSM),
    Field("model", "initial_mean", default=0.0, families=_LGSSM),
    Field("model", "initial_variance", default=1.0, range=_AT_LEAST_0, families=_LGSSM),
    Field("model", "drift", required=True, families=_OU),
    Field("model", "sigma", required=True, range=_POSITIVE, families=_OU),
    Field("model", "interval", default=1.0, range=_POSITIVE, families=_OU),
    Field("model", "init_mean", default=0.0, families=_OU),
    Field("model", "init_sd", default=1.0, range=_AT_LEAST_0, families=_OU),
    Field("model", "obs_gain", default=1.0, families=_OU),
    Field("model", "obs_var", default=1.0, range=_POSITIVE, families=_OU),
    Field("model", "level", int, default=0, range=_AT_LEAST_0, families=_OU),
    Field("model", "sigma", default=1.0, range=_POSITIVE, families=("gaussian",)),
    Field("model", "y_star", required=True, families=("gaussian",)),
    Field("model", "observations", str, families=_SSM),
    Field("model", "simulate", int, range=Range(2), families=_SSM),
    Field("sampler", "n_particles", int, required=True, range=_AT_LEAST_1,
          algorithms=_PARTICLE),
    Field("sampler", "n_iterations", int, required=True, range=_AT_LEAST_1,
          algorithms=_SAMPLING),
    Field("sampler", "n_burn", int, default=0, range=_AT_LEAST_0, algorithms=_SAMPLING),
    Field("sampler", "scheme", str, default="systematic", choices=RESAMPLING_SCHEMES),
    Field("sampler", "eps_reg", default=1e-6, range=_AT_LEAST_0),
    Field("sampler", "alpha_target", default=0.1, range=Range(0, 1, "()")),
    Field("sampler", "beta", default=1.96, range=_POSITIVE),
    Field("sampler", "replicates", int, default=1, range=_AT_LEAST_1),
    Field("sampler", "thinning", int, default=1, range=_AT_LEAST_1),
    Field("sampler", "epsilon0", required=True, range=_POSITIVE,
          algorithms=("abc-mcmc",)),
    Field("sampler", "epsilon0", range=_POSITIVE, algorithms=("abc-adaptive",)),
    Field("sampler", "epsilon_post", range=_POSITIVE),
    Field("sampler", "proposal_sd", default=0.1, range=_POSITIVE),
    Field("prior", "kind", str, required=True, choices=("uniform", "gaussian"),
          algorithms=_SAMPLING),
    Field("prior", "low", tuple, algorithms=_SAMPLING),
    Field("prior", "high", tuple, algorithms=_SAMPLING),
    Field("prior", "mean", tuple, algorithms=_SAMPLING),
    Field("prior", "sd", tuple, algorithms=_SAMPLING),
    Field("schedule", "rho", required=True,
          range=Range(0, 1, "[]", text="{value} outside the allowed range {range}"),
          algorithms=("mlmc-is",)),
    Field("schedule", "n_base", int, required=True, range=_AT_LEAST_1,
          algorithms=("mlmc-is",)),
    Field("schedule", "variant", str, default="plain", choices=("plain", "log_factor"),
          algorithms=("mlmc-is",)),
    Field("schedule", "eta", default=2.0, algorithms=("mlmc-is",)),
    Field("guard", "substeps", int, default=DEFAULT_SUBSTEP_GUARD, range=_AT_LEAST_1),
)

_KINDS = {(field.section, field.key): field.kind for field in FIELDS}
_SECTIONS = tuple(dict.fromkeys(field.section for field in FIELDS))


def _coerce(section: str, key: str, value) -> object:
    kind = _KINDS[section, key]
    where = f"field {section}.{key}"
    if kind is str:
        return str(value).strip()
    if kind is int:
        try:
            return int(str(value).strip())
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {value!r}") from None
    if kind is float:
        parts, expected = [value], "a number"
    else:
        parts = list(value) if isinstance(value, (list, tuple)) else str(value).split(",")
        expected = "numbers"
    try:
        numbers = tuple(float(str(part).strip()) for part in parts)
    except ValueError:
        raise ConfigError(f"{where}: expected {expected}, got {value!r}") from None
    if not all(math.isfinite(number) for number in numbers):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return numbers[0] if kind is float else numbers


def _settle(field: Field, values: dict):
    """Apply ``field``'s default or requirement to ``values``; check and
    return its value."""
    where = f"{field.section}.{field.key}"
    if field.key not in values:
        if field.required:
            raise ConfigError(f"missing required field {where}")
        if field.default is None:
            return None
        values[field.key] = field.default
    value = values[field.key]
    if field.range is not None and value not in field.range:
        raise ConfigError(f"field {where}: {field.range.error(value)}")
    if field.choices and value not in field.choices:
        choices = field.choices
        options = (
            " or ".join(choices) if len(choices) == 2 else "one of " + ", ".join(choices)
        )
        raise ConfigError(f"field {where}: unknown {field.key} {value!r}; choose {options}")
    return value


def _require(values: dict, section: str, key: str):
    if key not in values:
        raise ConfigError(f"missing required field {section}.{key}")
    return values[key]


def _load_raw(path: Path) -> dict:
    """Read the config file into {section: {key: value}} without coercion."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config (line {exc.lineno}): {exc.msg}")
        if not isinstance(data, dict) or not all(
            isinstance(v, dict) for v in data.values()
        ):
            raise ConfigError("JSON config must be an object of section objects")
        return {str(s): dict(v) for s, v in data.items()}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``model``/``prior``/``sampler``/``schedule``/``guard`` hold the
    coerced per-section values with defaults applied; paths are
    resolved relative to the config file's directory.
    """

    algorithm: str
    seed: int
    output_dir: Path
    workers: int | None
    model: dict
    prior: dict
    sampler: dict
    schedule: dict
    guard: dict
    config_path: Path
    config_sha256: str

    @property
    def observation_count(self) -> int | None:
        return self.model.get("simulate")


def load_config(path, algorithm_override: str | None = None) -> ExperimentConfig:
    """Parse and fully validate a config file (no execution)."""
    path = Path(path)
    raw = _load_raw(path)
    for section, values in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in values:
            if (section, key) not in _KINDS:
                raise ConfigError(f"unknown field {section}.{key}")
    sections = {
        name: {key: _coerce(name, key, value) for key, value in raw.get(name, {}).items()}
        for name in _SECTIONS
    }
    experiment, model, prior = sections["experiment"], sections["model"], sections["prior"]
    sampler, schedule = sections["sampler"], sections["schedule"]
    if not experiment:
        raise ConfigError("missing required section [experiment]")
    if algorithm_override:
        experiment["algorithm"] = algorithm_override
    algorithm = _settle(_ALGORITHM, experiment)
    family = _settle(_FAMILY, model)
    used = {f.key for f in FIELDS if f.section == "model" and f.applies(algorithm, family)}
    for key in model:
        if key not in used:
            raise ConfigError(f"field model.{key} is not used by family {family!r}")
    if family not in ALGORITHM_FAMILIES[algorithm]:
        raise ConfigError(
            f"model.family {family!r} is not supported by algorithm {algorithm!r} "
            f"(expected {', '.join(ALGORITHM_FAMILIES[algorithm])})"
        )
    if schedule and algorithm != "mlmc-is":
        raise ConfigError("section [schedule] is only used by algorithm mlmc-is")
    for field in FIELDS:
        if field.applies(algorithm, family):
            _settle(field, sections[field.section])

    # rules that tie several fields together
    if family in _SSM and ("observations" in model) == ("simulate" in model):
        raise ConfigError(
            "model: give exactly one of model.observations (a file) "
            "or model.simulate (a count)"
        )
    # a parameter chain over a state-space model
    if algorithm in _SAMPLING and family in _SSM:
        if sampler["n_iterations"] - sampler["n_burn"] < 10:
            raise ConfigError("sampler: need at least 10 post-burn-in iterations")
    if algorithm == "mlmc-is" and sampler["eps_reg"] <= 0:
        raise ConfigError(
            "field sampler.eps_reg: must be > 0 for mlmc-is (the level-0 "
            "normalizer can vanish)"
        )
    if algorithm == "abc-adaptive" and sampler["n_burn"] < 1:
        raise ConfigError(
            "field sampler.n_burn: the adaptation phase needs >= 1 iterations"
        )
    if algorithm in _SAMPLING and prior["kind"] == "uniform":
        low = _require(prior, "prior", "low")
        high = _require(prior, "prior", "high")
        if len(low) != len(high) or any(h <= l for l, h in zip(low, high)):
            raise ConfigError("prior: low must be componentwise below high")
    if algorithm in _SAMPLING and prior["kind"] == "gaussian":
        mean = _require(prior, "prior", "mean")
        sd = _require(prior, "prior", "sd")
        if len(sd) not in (1, len(mean)) or any(s <= 0 for s in sd):
            raise ConfigError("prior: sd must be positive (scalar or one per mean)")
    if schedule.get("variant") == "log_factor" and schedule["eta"] <= 1.0:
        raise ConfigError("field schedule.eta: must exceed 1 for the log_factor variant")

    output_dir = Path(experiment.get("output_dir", path.stem + "_out"))
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir
    return ExperimentConfig(
        algorithm=algorithm,
        seed=experiment["seed"],
        output_dir=output_dir,
        workers=experiment.get("workers"),
        model=model,
        prior=prior,
        sampler=sampler,
        schedule=schedule,
        guard=sections["guard"],
        config_path=path,
        config_sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
    )


# ---------------------------------------------------------------------------
# Model assembly (module-level, picklable, usable from worker processes)


@dataclass(frozen=True)
class ParameterCoordinate:
    """Test function returning one parameter coordinate; chain test
    functions also receive the final states, which it ignores."""

    index: int = 0

    def __call__(self, theta, states=None) -> float:
        return float(np.atleast_1d(theta)[self.index])


def final_state(states):
    """Test function of the final states: the states themselves."""
    return states


def _read_observations(config: ExperimentConfig) -> np.ndarray:
    obs_path = Path(config.model["observations"])
    if not obs_path.is_absolute():
        obs_path = config.config_path.parent / obs_path
    try:
        data = np.loadtxt(obs_path, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"field model.observations: cannot read {obs_path}: {exc}")
    if data.ndim != 1 or data.size < 2:
        raise ConfigError(
            "field model.observations: expected one column with >= 2 values"
        )
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"field model.observations: {obs_path} holds a non-finite value")
    return data.astype(float)


def _simulate(count: int, rng, coeff, trans_sd, gain, obs_sd, init_mean, init_sd):
    """Observations of a scalar linear-Gaussian state-space model."""
    x = init_mean + init_sd * rng.standard_normal()
    ys = np.empty(count)
    for p in range(count):
        if p:
            x = coeff * x + trans_sd * rng.standard_normal()
        ys[p] = gain * x + obs_sd * rng.standard_normal()
    return ys


def _load_observations(config: ExperimentConfig, streams: KeyedStreams) -> np.ndarray:
    model = config.model
    if "observations" in model:
        return _read_observations(config)
    rng = streams.stream("data")
    if model["family"] == "lgssm":
        return _simulate(
            model["simulate"], rng, model["transition"],
            math.sqrt(model["transition_noise"]), model["observation_gain"],
            math.sqrt(model["observation_noise"]), model["initial_mean"],
            math.sqrt(model["initial_variance"]),
        )
    factor, var = _ou_exact_moments(model["drift"], model["sigma"], model["interval"])
    return _simulate(
        model["simulate"], rng, factor, math.sqrt(var), model["obs_gain"],
        math.sqrt(model["obs_var"]), model["init_mean"], model["init_sd"],
    )


class _Setup(NamedTuple):
    """What every driver starts from."""

    ys: np.ndarray | None  # None for the likelihood-free family
    family: object  # LgssmFamily, DiffusionFamily or GaussianLocationAbc
    prior: object | None  # None for pf, which samples no parameter
    proposal: ProposalState | None


def _set_up(config: ExperimentConfig, streams: KeyedStreams) -> _Setup:
    model = config.model
    ys = None
    if model["family"] == "lgssm":
        ys = _load_observations(config, streams)
        family = LgssmFamily(
            transition_noise=model["transition_noise"],
            observation_gain=model["observation_gain"],
            observation_noise=model["observation_noise"],
            initial_mean=model["initial_mean"],
            initial_variance=model["initial_variance"],
            observations=tuple(float(y) for y in ys),
        )
    elif model["family"] == "ou":
        ys = _load_observations(config, streams)
        family = DiffusionFamily(
            dynamics=LinearDrift(sigma=model["sigma"]),
            interval=model["interval"],
            init_mean=model["init_mean"],
            init_sd=model["init_sd"],
            obs_coeff=model["obs_gain"],
            obs_var=model["obs_var"],
            ys=ys,
        )
    else:
        family = GaussianLocationAbc(sigma=model["sigma"], y_star=model["y_star"])
    if config.algorithm not in _SAMPLING:
        return _Setup(ys, family, None, None)
    spec = config.prior
    if spec["kind"] == "uniform":
        prior = UniformPrior(lower=np.array(spec["low"]), upper=np.array(spec["high"]))
    else:
        prior = GaussianPrior(mean=np.array(spec["mean"]), sd=np.array(spec["sd"]))
    proposal = ProposalState.isotropic(prior.dim, sd=config.sampler["proposal_sd"])
    return _Setup(ys, family, prior, proposal)


# ---------------------------------------------------------------------------
# Output helpers


def _jsonable(obj):
    """Recursively convert to JSON-safe types; non-finite floats → null."""
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_summary(config: ExperimentConfig, results: dict, files: dict):
    payload = {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "config_sha256": config.config_sha256,
        "version": __version__,
        "cost_unit": COST_UNIT,
        "timing_file": "timing.json",
        "files": files,
        "results": _jsonable(results),
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_text(config.output_dir / "summary.json", text)


def _write_timing(config: ExperimentConfig, seconds: float, workers: int):
    payload = {"wall_clock_seconds": seconds, "workers": workers}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_text(config.output_dir / "timing.json", text)


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(config: ExperimentConfig, name: str, header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    _write_text(config.output_dir / name, "\n".join(lines) + "\n")
    return name


def _write_trace(config: ExperimentConfig, records) -> str:
    """Write every ``sampler.thinning``-th record to ``trace.jsonl``."""
    kept = islice(records, 0, None, config.sampler["thinning"])
    lines = [json.dumps(_jsonable(rec), sort_keys=True) for rec in kept]
    text = "\n".join(lines) + ("\n" if lines else "")
    _write_text(config.output_dir / "trace.jsonl", text)
    return "trace.jsonl"


# ---------------------------------------------------------------------------
# Per-algorithm drivers: each takes (config, setup, streams, n_workers) and
# returns the results dict + extra files


def _drive_pf(config, setup, streams, n_workers):
    if config.model["family"] == "lgssm":
        model = setup.family(np.array([config.model["transition"]]))
    else:
        model = setup.family.level_model(
            np.array([config.model["drift"]]), config.model["level"]
        )
        required = config.sampler["n_particles"] * model.n * model.substeps
        guard = config.guard["substeps"]
        if required > guard:
            raise ResourceGuardError(
                f"level {model.level} needs {required} particle-substeps, over the "
                f"guard budget {guard}; lower model.level or raise the guard",
                level=model.level,
                required=required,
                budget=guard,
            )
    cloud, estimate = run_particle_filter(
        model,
        config.sampler["n_particles"],
        scheme=config.sampler["scheme"],
        rng=streams.stream("pf"),
        test_functions=(final_state,),
    )
    results = {
        "loglik_hat": estimate.log_normalizer,
        "likelihood_hat": estimate.normalizer,
        "final_state_mean": float(estimate.self_normalized[0]),
        "n_observations": int(setup.ys.size),
        "n_particles": config.sampler["n_particles"],
        "scheme": config.sampler["scheme"],
    }
    records = (
        {"p": p, "state_mean": float(np.mean(states))}
        for p, states in enumerate(cloud.states)
    )
    return results, {"trace": _write_trace(config, records)}


def _chain_results(trace, n_burn: int) -> dict:
    stats = [series_stats(column) for column in trace.thetas[n_burn:].T]
    return {
        "posterior_mean": [s.mean for s in stats],
        "posterior_sd": [math.sqrt(s.variance) for s in stats],
        "iact": [s.iact for s in stats],
        "asvar": [s.asymptotic_variance for s in stats],
        "se": [s.standard_error for s in stats],
        "acceptance_rate": trace.acceptance_rate,
        "n_iterations": len(trace),
        "n_burn": n_burn,
    }


def _chain_records(trace):
    payloads = trace.payloads or [None] * len(trace)
    for record, payload in zip(trace.to_records(), payloads):
        if payload is not None:
            record.update(payload)
        yield record


def _particle_runner(config: ExperimentConfig, setup: _Setup):
    return ParticleSmootherRunner(
        setup.family, config.sampler["n_particles"], scheme=config.sampler["scheme"]
    )


def _pmmh(config: ExperimentConfig, setup: _Setup, rng):
    sampler = config.sampler
    trace, _ = run_pmmh(
        setup.prior, setup.proposal, _particle_runner(config, setup),
        sampler["n_iterations"], rng, n_burn=sampler["n_burn"],
    )
    return trace


def _da(config: ExperimentConfig, setup: _Setup, rng):
    sampler = config.sampler
    trace, _ = run_delayed_acceptance(
        setup.prior, setup.proposal, KalmanLikelihood(setup.family),
        _particle_runner(config, setup), sampler["eps_reg"], sampler["n_iterations"],
        rng, n_burn=sampler["n_burn"],
    )
    return trace


def _mcmc_is(config: ExperimentConfig, setup: _Setup, streams: KeyedStreams, n_workers):
    sampler = config.sampler
    return run_mcmc_is(
        setup.prior,
        setup.proposal,
        KalmanLikelihood(setup.family),
        _particle_runner(config, setup),
        sampler["eps_reg"],
        sampler["n_iterations"],
        streams,
        (ParameterCoordinate(0),),
        n_burn=sampler["n_burn"],
        replicates=sampler["replicates"],
        n_workers=n_workers,
    )


def _drive_pmmh(config, setup, streams, n_workers):
    trace = _pmmh(config, setup, streams.stream("chain"))
    results = _chain_results(trace, config.sampler["n_burn"])
    return results, {"trace": _write_trace(config, _chain_records(trace))}


def _drive_da(config, setup, streams, n_workers):
    trace = _da(config, setup, streams.stream("chain"))
    results = _chain_results(trace, config.sampler["n_burn"])
    stage1 = np.array([math.exp(p["log_stage1"]) for p in trace.payloads], dtype=float)
    # a prior-rejected proposal records log_stage2 = 0.0 but runs no filter
    stage2 = np.array(
        [
            math.exp(p["log_stage2"])
            for p in trace.payloads
            if p["log_stage1"] > -math.inf and p["log_stage2"] is not None
        ],
        dtype=float,
    )
    results["mean_stage1_probability"] = float(stage1.mean())
    results["mean_stage2_probability"] = float(stage2.mean()) if stage2.size else None
    results["stage2_evaluations"] = int(stage2.size)
    return results, {"trace": _write_trace(config, _chain_records(trace))}


def _is_estimate_results(estimate) -> dict:
    return {
        "estimate": estimate.value,
        "asvar_total": estimate.asvar_total,
        "asvar_chain": estimate.asvar_chain,
        "asvar_correction": estimate.asvar_correction,
        "ess": estimate.ess,
        "se": estimate.standard_error,
        "n_iterations": estimate.n_iterations,
        "replicates": estimate.replicates,
    }


def _weighted_records(jump, samples):
    for record, sample in zip(jump.to_records(), samples):
        record["xi_one"] = sample.xi_one
        record["xi_f"] = sample.xi_functions.tolist()
        yield record


def _drive_mcmc_is(config, setup, streams, n_workers):
    result = _mcmc_is(config, setup, streams, n_workers)
    results = _is_estimate_results(result.estimate)
    results["n_jump_states"] = len(result.jump_chain)
    records = _weighted_records(result.jump_chain, result.samples)
    return results, {"trace": _write_trace(config, records)}


def _drive_mlmc_is(config, setup, streams, n_workers):
    schedule = LevelSchedule(**config.schedule)
    sampler = config.sampler
    result = run_mlmc_is(
        setup.prior, setup.proposal, setup.family, schedule, sampler["eps_reg"],
        sampler["n_iterations"], streams, (ParameterCoordinate(0),),
        n_burn=sampler["n_burn"], n_workers=n_workers,
        substep_guard=config.guard["substeps"],
    )
    results = _is_estimate_results(result.estimate)
    results["n_jump_states"] = len(result.jump_chain)
    results["total_cost"] = result.ledger.total_cost
    results["mean_cost"] = result.ledger.mean_cost
    results["ire"] = ire(result.ledger, result.estimate.asvar_total)
    results["max_level"] = int(result.levels.max())
    unique_levels, counts = np.unique(result.levels, return_counts=True)
    results["level_counts"] = [
        [int(level), int(count)] for level, count in zip(unique_levels, counts)
    ]

    def merged_records():
        for record, extras in zip(
            result.jump_chain.to_records(), result.iteration_records()
        ):
            record.update(extras)
            yield record

    files = {"trace": _write_trace(config, merged_records())}
    level_rows = []
    for level, count in zip(unique_levels.tolist(), counts.tolist()):
        run_cost = particle_substeps(schedule, level, setup.family.n_intervals)
        level_rows.append((level, count, float(run_cost * count)))
    files["levels"] = _write_csv(
        config, "levels.csv", ("level", "count", "total_cost"), level_rows
    )
    return results, files


def _abc_common(config, trace, epsilon: float) -> tuple[dict, dict]:
    f = ParameterCoordinate(0)
    results = {
        "epsilon_chain": trace.epsilon0,
        "epsilon": epsilon,
        "acceptance_rate": trace.accept_count / len(trace),
        "n_iterations": len(trace),
        "estimate": post_correct(trace, epsilon, f),
    }
    if len(trace) >= 100:
        report = abc_confidence_interval(
            trace, epsilon, f, beta=config.sampler["beta"]
        )
        results.update(
            {
                "iact": report.iact,
                "function_variance": report.function_variance,
                "ci_lower": report.lower,
                "ci_upper": report.upper,
                "ci_beta": report.beta,
            }
        )
    curve = post_correct_curve(trace, f)
    files = {
        "curve": _write_csv(
            config,
            "curve.csv",
            ("epsilon", "estimate"),
            zip(curve.epsilons, curve.estimates),
        )
    }
    return results, files


def _drive_abc_mcmc(config, setup, streams, n_workers):
    trace = run_abc_mcmc(
        setup.family,
        config.sampler["epsilon0"],
        setup.prior,
        setup.proposal,
        config.sampler["n_iterations"],
        streams.stream("abc"),
    )
    epsilon = config.sampler.get("epsilon_post", trace.epsilon0)
    results, files = _abc_common(config, trace, epsilon)
    files["trace"] = _write_trace(config, trace.to_records())
    return results, files


def _drive_abc_adaptive(config, setup, streams, n_workers):
    adapted = run_tolerance_adaptation(
        setup.family,
        setup.prior,
        setup.proposal,
        config.sampler["n_burn"],
        streams.stream("adapt"),
        alpha_target=config.sampler["alpha_target"],
        eps_init=config.sampler.get("epsilon0"),
    )
    trace = run_abc_mcmc(
        setup.family,
        adapted.epsilon,
        setup.prior,
        adapted.proposal,
        config.sampler["n_iterations"],
        streams.stream("abc"),
        theta_init=adapted.theta,
    )
    epsilon = config.sampler.get("epsilon_post", adapted.epsilon)
    results, files = _abc_common(config, trace, min(epsilon, adapted.epsilon))
    tail = max(1, len(adapted.realized_alphas) // 5)
    results.update(
        {
            "adapted_epsilon": adapted.epsilon,
            "alpha_target": config.sampler["alpha_target"],
            "mean_realized_alpha_tail": float(adapted.realized_alphas[-tail:].mean()),
            "n_adaptation": config.sampler["n_burn"],
        }
    )
    files["adaptation"] = _write_csv(
        config,
        "adaptation.csv",
        ("k", "epsilon", "realized_alpha"),
        (
            (k + 1, eps, alpha)
            for k, (eps, alpha) in enumerate(
                zip(adapted.epsilons, adapted.realized_alphas)
            )
        ),
    )
    files["trace"] = _write_trace(config, trace.to_records())
    return results, files


def _drive_compare(config, setup, streams, n_workers):
    pmmh_trace = _pmmh(config, setup, streams.stream("pmmh"))
    da_trace = _da(config, setup, streams.stream("da"))
    is_result = _mcmc_is(config, setup, streams.scoped("mcmc_is"), n_workers)

    n_burn = config.sampler["n_burn"]
    series = {
        "pmmh": [pmmh_trace.thetas[n_burn:, 0]],
        "da": [da_trace.thetas[n_burn:, 0]],
        "mcmc_is": [
            weight_residual_series(is_result.samples, 0, is_result.estimate.value)
        ],
    }
    report = compare_chains(series)
    results = {
        "comparison": report,
        "pmmh": _chain_results(pmmh_trace, n_burn),
        "da": _chain_results(da_trace, n_burn),
        "mcmc_is": _is_estimate_results(is_result.estimate),
    }
    rows = [
        (name, row["asvar_mean"], row["asvar_se"], row["iact_mean"], row["n_series"])
        for name, row in sorted(report["series"].items())
    ]
    header = ("sampler", "asvar", "asvar_se", "iact", "n_series")
    files = {"comparison": _write_csv(config, "comparison.csv", header, rows)}
    print(format_comparison(report))
    return results, files


_DRIVERS = {
    "pf": _drive_pf,
    "pmmh": _drive_pmmh,
    "da": _drive_da,
    "mcmc-is": _drive_mcmc_is,
    "mlmc-is": _drive_mlmc_is,
    "abc-mcmc": _drive_abc_mcmc,
    "abc-adaptive": _drive_abc_adaptive,
    "compare": _drive_compare,
}


# ---------------------------------------------------------------------------
# Validation report

# algorithms whose approximate chain targets prior * (L + eps_reg)
_REGULARIZED = ("da", "mcmc-is", "mlmc-is", "compare")
# standard normal quantiles at 0.1, 0.2, ..., 0.9
_NORMAL_DECILES = (
    -1.2815515655446004, -0.8416212335729143, -0.5244005127080407,
    -0.2533471031357997, 0.0, 0.2533471031357997, 0.5244005127080407,
    0.8416212335729143, 1.2815515655446004,
)


def _eps_reg_warning(config: ExperimentConfig) -> str | None:
    """A warning when ``eps_reg`` exceeds the approximate likelihood ``L``
    at every prior decile: the Kalman likelihood for lgssm, that of the
    level-0 Euler model for ou.  The regularized target
    ``prior * (L + eps_reg)`` is then close to the prior."""
    eps_reg = config.sampler["eps_reg"]
    if eps_reg == 0.0:
        return None
    setup = _set_up(config, KeyedStreams(config.seed))
    prior = setup.prior
    if isinstance(prior, UniformPrior):
        points = [prior.lower + k / 10 * (prior.upper - prior.lower) for k in range(1, 10)]
    else:
        points = [prior.mean + z * prior.sd for z in _NORMAL_DECILES]
    if isinstance(setup.family, LgssmFamily):
        logliks = [KalmanLikelihood(setup.family)(theta, None) for theta in points]
    else:
        logliks = [kalman_loglik(ou_level_lgssm(setup.family, t, 0)) for t in points]
    largest = max((v for v in logliks if not math.isnan(v)), default=math.inf)
    if math.log(eps_reg) <= largest:
        return None
    return (
        f"warning          log(eps_reg) = {math.log(eps_reg):.4g} exceeds the "
        f"log-likelihood at every prior decile (largest {largest:.4g}); the "
        "approximate chain samples mostly the prior"
    )


def _derived_lines(config: ExperimentConfig) -> list[str]:
    lines = [
        f"algorithm        {config.algorithm}",
        f"seed             {config.seed}",
        f"output directory {config.output_dir}",
    ]
    model = config.model
    if "simulate" in model:
        n_observations = model["simulate"]
        lines.append(
            f"observations     {n_observations} simulated "
            f"(horizon n={n_observations - 1})"
        )
    elif "observations" in model:
        n_observations = _read_observations(config).size
        lines.append(f"observations     file {model['observations']}")
    if config.algorithm == "mlmc-is":
        schedule = LevelSchedule(**config.schedule)
        head = range(1, 9)
        pmf = ", ".join(f"{float(schedule.pmf(level)):.4g}" for level in head)
        particles = ", ".join(str(schedule.particle_count(level)) for level in head)
        substeps = ", ".join(str(2**level + 2 ** (level - 1)) for level in head)
        lines.append(f"level pmf head   {pmf}")
        lines.append(f"particle counts  {particles}")
        lines.append(f"substeps/window  {substeps}")
        guard = config.guard["substeps"]
        admissible = 0
        while admissible < 63 and (
            particle_substeps(schedule, admissible + 1, n_observations - 1) <= guard
        ):
            admissible += 1
        lines.append(
            f"guard            {guard} particle-substeps per run "
            f"(levels 1..{admissible} admissible)"
        )
    if config.algorithm in _REGULARIZED:
        warning = _eps_reg_warning(config)
        if warning is not None:
            lines.append(warning)
    return lines


# ---------------------------------------------------------------------------
# Entry points


def run_experiment(
    config_path,
    output_dir=None,
    workers: int | None = None,
    algorithm_override: str | None = None,
) -> int:
    """Execute the configured experiment; returns the process exit code."""
    try:
        config = load_config(config_path, algorithm_override=algorithm_override)
        if output_dir is not None:
            config = replace(config, output_dir=Path(output_dir))
        n_workers = worker_count(
            workers if workers is not None else config.workers
        )
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    streams = KeyedStreams(config.seed)
    started = time.perf_counter()
    try:
        setup = _set_up(config, streams)
        results, files = _DRIVERS[config.algorithm](config, setup, streams, n_workers)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    files["summary"] = "summary.json"
    _write_summary(config, results, files)
    _write_timing(config, elapsed, n_workers)
    print(f"wrote {config.output_dir / 'summary.json'}")
    return 0


def validate_config(config_path) -> int:
    """Parse and validate without executing; prints a derived-value table."""
    try:
        config = load_config(config_path)
        lines = _derived_lines(config)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("OK")
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcis",
        description="Run, validate, or compare Monte Carlo inference experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "run": "execute an experiment config",
        "validate": "check a config without running",
        "compare": "run the sampler comparison on a config",
    }
    for name, text in commands.items():
        command = sub.add_parser(name, help=text)
        command.add_argument("config", help="path to the experiment config file")
        if name != "validate":
            command.add_argument("--output-dir", help="override the output directory")
            command.add_argument(
                "--workers", type=int, help="worker process count (overrides config and env)"
            )

    args = parser.parse_args(argv)
    if args.command == "validate":
        return validate_config(args.config)
    override = "compare" if args.command == "compare" else None
    return run_experiment(
        args.config,
        output_dir=args.output_dir,
        workers=args.workers,
        algorithm_override=override,
    )


if __name__ == "__main__":
    sys.exit(main())
