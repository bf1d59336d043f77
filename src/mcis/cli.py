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
from pathlib import Path

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
from .is_correction import ParticleSmootherRunner, run_mcmc_is
from .mcmc import (
    GaussianPrior,
    ProposalState,
    UniformPrior,
    particle_likelihood_runner,
    run_delayed_acceptance,
    run_pmmh,
)
from .models.abc_model import GaussianLocationAbc
from .models.diffusion import DiffusionFamily, LinearDrift
from .models.lgssm import KalmanLikelihood, LgssmFamily
from .multilevel import DEFAULT_SUBSTEP_GUARD, build_schedule, ire, run_mlmc_is
from .parallel import worker_count
from .rng import KeyedStreams
from .smc import RESAMPLING_SCHEMES, run_particle_filter

__all__ = ["ExperimentConfig", "load_config", "run_experiment", "main"]

ALGORITHMS = (
    "pf",
    "pmmh",
    "da",
    "mcmc-is",
    "mlmc-is",
    "abc-mcmc",
    "abc-adaptive",
    "compare",
)

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


_SECTION_FIELDS = {
    "experiment": ("algorithm", "seed", "output_dir", "workers"),
    "model": (
        "family",
        # linear-Gaussian state space
        "transition",
        "transition_noise",
        "observation_gain",
        "observation_noise",
        "initial_mean",
        "initial_variance",
        # diffusion
        "drift",
        "sigma",
        "interval",
        "init_mean",
        "init_sd",
        "obs_gain",
        "obs_var",
        "level",
        # likelihood-free location toy (shares "sigma")
        "y_star",
        # data source (exactly one)
        "observations",
        "simulate",
    ),
    "prior": ("kind", "low", "high", "mean", "sd"),
    "sampler": (
        "n_iterations",
        "n_burn",
        "n_particles",
        "scheme",
        "eps_reg",
        "alpha_target",
        "beta",
        "replicates",
        "thinning",
        "epsilon0",
        "epsilon_post",
        "proposal_sd",
    ),
    "schedule": ("rho", "n_base", "variant", "eta"),
    "guard": ("substeps",),
}

_INT_FIELDS = {
    ("experiment", "seed"),
    ("experiment", "workers"),
    ("model", "simulate"),
    ("model", "level"),
    ("sampler", "n_iterations"),
    ("sampler", "n_burn"),
    ("sampler", "n_particles"),
    ("sampler", "replicates"),
    ("sampler", "thinning"),
    ("schedule", "n_base"),
    ("guard", "substeps"),
}

_FLOAT_FIELDS = {
    ("model", name)
    for name in (
        "transition",
        "transition_noise",
        "observation_gain",
        "observation_noise",
        "initial_mean",
        "initial_variance",
        "drift",
        "sigma",
        "interval",
        "init_mean",
        "init_sd",
        "obs_gain",
        "obs_var",
        "y_star",
    )
} | {
    ("sampler", "eps_reg"),
    ("sampler", "alpha_target"),
    ("sampler", "beta"),
    ("sampler", "epsilon0"),
    ("sampler", "epsilon_post"),
    ("sampler", "proposal_sd"),
    ("schedule", "rho"),
    ("schedule", "eta"),
}

_VECTOR_FIELDS = {
    ("prior", "low"),
    ("prior", "high"),
    ("prior", "mean"),
    ("prior", "sd"),
}

_MODEL_FAMILY_FIELDS = {
    "lgssm": (
        "transition",
        "transition_noise",
        "observation_gain",
        "observation_noise",
        "initial_mean",
        "initial_variance",
        "observations",
        "simulate",
    ),
    "ou": (
        "drift",
        "sigma",
        "interval",
        "init_mean",
        "init_sd",
        "obs_gain",
        "obs_var",
        "level",
        "observations",
        "simulate",
    ),
    "gaussian": ("sigma", "y_star"),
}

# algorithms whose inference loop is a parameter chain over an SSM
_CHAIN_ALGORITHMS = ("pmmh", "da", "mcmc-is", "mlmc-is", "compare")


def _fail(message: str) -> ConfigError:
    return ConfigError(message)


def _coerce(section: str, key: str, value) -> object:
    where = f"{section}.{key}"
    if (section, key) in _INT_FIELDS:
        if isinstance(value, bool) or isinstance(value, float):
            raise _fail(f"field {where}: expected an integer, got {value!r}")
        try:
            return int(str(value).strip())
        except ValueError:
            raise _fail(f"field {where}: expected an integer, got {value!r}")
    if (section, key) in _FLOAT_FIELDS:
        if isinstance(value, bool):
            raise _fail(f"field {where}: expected a number, got {value!r}")
        try:
            return float(str(value).strip())
        except ValueError:
            raise _fail(f"field {where}: expected a number, got {value!r}")
    if (section, key) in _VECTOR_FIELDS:
        if isinstance(value, (list, tuple)):
            parts = list(value)
        else:
            parts = str(value).split(",")
        try:
            return tuple(float(str(p).strip()) for p in parts)
        except ValueError:
            raise _fail(f"field {where}: expected numbers, got {value!r}")
    return str(value).strip()


def _load_raw(path: Path) -> dict:
    """Read the config file into {section: {key: value}} without coercion."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _fail(f"cannot read config file {path}: {exc}")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _fail(f"invalid JSON config (line {exc.lineno}): {exc.msg}")
        if not isinstance(data, dict) or not all(
            isinstance(v, dict) for v in data.values()
        ):
            raise _fail("JSON config must be an object of section objects")
        return {str(s): dict(v) for s, v in data.items()}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise _fail(f"cannot parse config: {exc}")
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
        if "simulate" in self.model:
            return self.model["simulate"]
        if "observations" in self.model:
            return None  # resolved when the file is loaded
        return None


_SAMPLER_DEFAULTS = {
    "n_burn": 0,
    "scheme": "systematic",
    "eps_reg": 1e-6,
    "alpha_target": 0.1,
    "beta": 1.96,
    "replicates": 1,
    "thinning": 1,
    "proposal_sd": 0.1,
}

_MODEL_DEFAULTS = {
    "lgssm": {
        "observation_gain": 1.0,
        "observation_noise": 1.0,
        "initial_mean": 0.0,
        "initial_variance": 1.0,
    },
    "ou": {
        "interval": 1.0,
        "init_mean": 0.0,
        "init_sd": 1.0,
        "obs_gain": 1.0,
        "obs_var": 1.0,
        "level": 0,
    },
    "gaussian": {"sigma": 1.0},
}


def _require(mapping: dict, section: str, key: str):
    if key not in mapping:
        raise _fail(f"missing required field {section}.{key}")
    return mapping[key]


def _check_range(ok: bool, message: str):
    if not ok:
        raise _fail(message)


def load_config(path, algorithm_override: str | None = None) -> ExperimentConfig:
    """Parse and fully validate a config file (no execution)."""
    path = Path(path)
    raw = _load_raw(path)

    for section in raw:
        if section not in _SECTION_FIELDS:
            raise _fail(f"unknown section [{section}]")
        for key in raw[section]:
            if key not in _SECTION_FIELDS[section]:
                raise _fail(f"unknown field {section}.{key}")
    sections = {
        name: {key: _coerce(name, key, value) for key, value in raw.get(name, {}).items()}
        for name in _SECTION_FIELDS
    }

    experiment = sections["experiment"]
    if not experiment:
        raise _fail("missing required section [experiment]")
    algorithm = algorithm_override or _require(experiment, "experiment", "algorithm")
    if algorithm not in ALGORITHMS:
        raise _fail(
            f"field experiment.algorithm: unknown algorithm {algorithm!r}; "
            f"choose one of {', '.join(ALGORITHMS)}"
        )
    seed = _require(experiment, "experiment", "seed")
    _check_range(0 <= seed < 2**64, "field experiment.seed: must fit in 64 bits")
    workers = experiment.get("workers")
    if workers is not None:
        _check_range(workers >= 1, "field experiment.workers: must be >= 1")

    out_name = experiment.get("output_dir", path.stem + "_out")
    output_dir = Path(out_name)
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir

    # --- model section
    model = dict(sections["model"])
    family = _require(model, "model", "family")
    if family not in _MODEL_FAMILY_FIELDS:
        raise _fail(
            f"field model.family: unknown family {family!r}; "
            f"choose one of {', '.join(sorted(_MODEL_FAMILY_FIELDS))}"
        )
    for key in model:
        if key != "family" and key not in _MODEL_FAMILY_FIELDS[family]:
            raise _fail(f"field model.{key} is not used by family {family!r}")
    for key, value in _MODEL_DEFAULTS[family].items():
        model.setdefault(key, value)
    if family in ("lgssm", "ou"):
        has_file = "observations" in model
        has_sim = "simulate" in model
        if has_file == has_sim:
            raise _fail(
                "model: give exactly one of model.observations (a file) "
                "or model.simulate (a count)"
            )
        if has_sim:
            _check_range(model["simulate"] >= 2, "field model.simulate: must be >= 2")
    if family == "lgssm":
        _require(model, "model", "transition")
        noise = _require(model, "model", "transition_noise")
        _check_range(noise >= 0, "field model.transition_noise: must be >= 0")
        _check_range(
            model["observation_noise"] > 0,
            "field model.observation_noise: must be > 0",
        )
        _check_range(
            model["initial_variance"] >= 0,
            "field model.initial_variance: must be >= 0",
        )
    elif family == "ou":
        _require(model, "model", "drift")
        sigma = _require(model, "model", "sigma")
        _check_range(sigma > 0, "field model.sigma: must be > 0")
        _check_range(model["interval"] > 0, "field model.interval: must be > 0")
        _check_range(model["init_sd"] >= 0, "field model.init_sd: must be >= 0")
        _check_range(model["obs_var"] > 0, "field model.obs_var: must be > 0")
        _check_range(model["level"] >= 0, "field model.level: must be >= 0")
    else:  # gaussian
        _require(model, "model", "y_star")
        _check_range(model["sigma"] > 0, "field model.sigma: must be > 0")

    # --- sampler section
    sampler = dict(_SAMPLER_DEFAULTS)
    sampler.update(sections["sampler"])
    _check_range(sampler["thinning"] >= 1, "field sampler.thinning: must be >= 1")
    _check_range(sampler["replicates"] >= 1, "field sampler.replicates: must be >= 1")
    _check_range(sampler["eps_reg"] >= 0, "field sampler.eps_reg: must be >= 0")
    _check_range(sampler["beta"] > 0, "field sampler.beta: must be > 0")
    _check_range(
        0 < sampler["alpha_target"] < 1,
        "field sampler.alpha_target: must lie in (0, 1)",
    )
    _check_range(
        sampler["proposal_sd"] > 0, "field sampler.proposal_sd: must be > 0"
    )
    if sampler["scheme"] not in RESAMPLING_SCHEMES:
        raise _fail(
            f"field sampler.scheme: unknown scheme {sampler['scheme']!r}; "
            f"choose one of {', '.join(RESAMPLING_SCHEMES)}"
        )

    needs_particles = algorithm in ("pf", "pmmh", "da", "mcmc-is", "compare")
    if needs_particles:
        count = _require(sampler, "sampler", "n_particles")
        _check_range(count >= 1, "field sampler.n_particles: must be >= 1")
    if algorithm != "pf":
        iterations = _require(sampler, "sampler", "n_iterations")
        _check_range(iterations >= 1, "field sampler.n_iterations: must be >= 1")
        _check_range(sampler["n_burn"] >= 0, "field sampler.n_burn: must be >= 0")
        if algorithm in _CHAIN_ALGORITHMS:
            _check_range(
                iterations - sampler["n_burn"] >= 10,
                "sampler: need at least 10 post-burn-in iterations",
            )
    if algorithm in ("mlmc-is",):
        _check_range(
            sampler["eps_reg"] > 0,
            "field sampler.eps_reg: must be > 0 for mlmc-is (the level-0 "
            "normalizer can vanish)",
        )
    if algorithm == "abc-mcmc":
        epsilon0 = _require(sampler, "sampler", "epsilon0")
        _check_range(epsilon0 > 0, "field sampler.epsilon0: must be > 0")
    if algorithm == "abc-adaptive":
        _check_range(
            sampler["n_burn"] >= 1,
            "field sampler.n_burn: the adaptation phase needs >= 1 iterations",
        )
        if "epsilon0" in sampler:
            _check_range(sampler["epsilon0"] > 0, "field sampler.epsilon0: must be > 0")
    if "epsilon_post" in sampler:
        _check_range(sampler["epsilon_post"] > 0, "field sampler.epsilon_post: must be > 0")

    # --- algorithm/family pairing
    _PAIRING = {
        "pf": ("lgssm", "ou"),
        "pmmh": ("lgssm",),
        "da": ("lgssm",),
        "mcmc-is": ("lgssm",),
        "compare": ("lgssm",),
        "mlmc-is": ("ou",),
        "abc-mcmc": ("gaussian",),
        "abc-adaptive": ("gaussian",),
    }
    if family not in _PAIRING[algorithm]:
        raise _fail(
            f"model.family {family!r} is not supported by algorithm "
            f"{algorithm!r} (expected {', '.join(_PAIRING[algorithm])})"
        )

    # --- prior section
    prior = dict(sections["prior"])
    if algorithm in _CHAIN_ALGORITHMS or algorithm.startswith("abc"):
        kind = _require(prior, "prior", "kind")
        if kind == "uniform":
            low = _require(prior, "prior", "low")
            high = _require(prior, "prior", "high")
            if len(low) != len(high) or any(h <= l for l, h in zip(low, high)):
                raise _fail("prior: low must be componentwise below high")
        elif kind == "gaussian":
            mean = _require(prior, "prior", "mean")
            sd = _require(prior, "prior", "sd")
            if len(sd) not in (1, len(mean)) or any(s <= 0 for s in sd):
                raise _fail("prior: sd must be positive (scalar or one per mean)")
        else:
            raise _fail(
                f"field prior.kind: unknown kind {kind!r}; choose uniform or gaussian"
            )

    # --- schedule section
    schedule = dict(sections["schedule"])
    if algorithm == "mlmc-is":
        rho = _require(schedule, "schedule", "rho")
        if not 0.0 <= rho <= 1.0:
            raise _fail(
                f"field schedule.rho: {rho} outside the allowed range [0, 1]"
            )
        n_base = _require(schedule, "schedule", "n_base")
        _check_range(n_base >= 1, "field schedule.n_base: must be >= 1")
        variant = schedule.setdefault("variant", "plain")
        if variant not in ("plain", "log_factor"):
            raise _fail(
                f"field schedule.variant: unknown variant {variant!r}; "
                "choose plain or log_factor"
            )
        schedule.setdefault("eta", 2.0)
        if variant == "log_factor" and schedule["eta"] <= 1.0:
            raise _fail("field schedule.eta: must exceed 1 for the log_factor variant")
    elif schedule:
        raise _fail("section [schedule] is only used by algorithm mlmc-is")

    # --- guard section
    guard = dict(sections["guard"])
    guard.setdefault("substeps", DEFAULT_SUBSTEP_GUARD)
    _check_range(guard["substeps"] >= 1, "field guard.substeps: must be >= 1")

    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return ExperimentConfig(
        algorithm=algorithm,
        seed=seed,
        output_dir=output_dir,
        workers=workers,
        model=model,
        prior=prior,
        sampler=sampler,
        schedule=schedule,
        guard=guard,
        config_path=path,
        config_sha256=digest,
    )


# ---------------------------------------------------------------------------
# Model assembly (module-level, picklable, usable from worker processes)


@dataclass(frozen=True)
class ParameterCoordinate:
    """Chain test function returning one parameter coordinate."""

    index: int = 0

    def __call__(self, theta, paths) -> float:
        return float(np.atleast_1d(theta)[self.index])


@dataclass(frozen=True)
class CoordinateFunction:
    """Plain function of the parameter: one coordinate."""

    index: int = 0

    def __call__(self, theta) -> float:
        return float(np.atleast_1d(theta)[self.index])


def final_state(paths):
    """Path functional: the state at the final time step."""
    return paths[-1]


def _load_observations(config: ExperimentConfig, streams: KeyedStreams) -> np.ndarray:
    model = config.model
    if "observations" in model:
        obs_path = Path(model["observations"])
        if not obs_path.is_absolute():
            obs_path = config.config_path.parent / obs_path
        try:
            data = np.loadtxt(obs_path, ndmin=1)
        except OSError as exc:
            raise _fail(f"field model.observations: cannot read {obs_path}: {exc}")
        if data.ndim != 1 or data.size < 2:
            raise _fail(
                "field model.observations: expected one column with >= 2 values"
            )
        return data.astype(float)
    count = model["simulate"]
    rng = streams.stream("data")
    if config.model["family"] == "lgssm":
        return _simulate_lgssm(model, count, rng)
    return _simulate_ou(model, count, rng)


def _simulate_lgssm(model: dict, count: int, rng) -> np.ndarray:
    coeff = model["transition"]
    trans_sd = math.sqrt(model["transition_noise"])
    gain = model["observation_gain"]
    obs_sd = math.sqrt(model["observation_noise"])
    x = model["initial_mean"] + math.sqrt(model["initial_variance"]) * rng.standard_normal()
    ys = np.empty(count)
    for p in range(count):
        if p:
            x = coeff * x + trans_sd * rng.standard_normal()
        ys[p] = gain * x + obs_sd * rng.standard_normal()
    return ys


def _simulate_ou(model: dict, count: int, rng) -> np.ndarray:
    """Simulate observations under the exact linear-diffusion transition."""
    drift = model["drift"]
    sigma = model["sigma"]
    delta = model["interval"]
    if drift == 0.0:
        factor, var = 1.0, sigma * sigma * delta
    else:
        factor = math.exp(drift * delta)
        var = sigma * sigma * math.expm1(2.0 * drift * delta) / (2.0 * drift)
    trans_sd = math.sqrt(var)
    obs_sd = math.sqrt(model["obs_var"])
    x = model["init_mean"] + model["init_sd"] * rng.standard_normal()
    ys = np.empty(count)
    for p in range(count):
        if p:
            x = factor * x + trans_sd * rng.standard_normal()
        ys[p] = model["obs_gain"] * x + obs_sd * rng.standard_normal()
    return ys


def _build_lgssm_family(config: ExperimentConfig, ys: np.ndarray) -> LgssmFamily:
    model = config.model
    return LgssmFamily(
        transition_noise=model["transition_noise"],
        observation_gain=model["observation_gain"],
        observation_noise=model["observation_noise"],
        initial_mean=model["initial_mean"],
        initial_variance=model["initial_variance"],
        observations=tuple(float(y) for y in ys),
    )


def _build_diffusion_family(config: ExperimentConfig, ys: np.ndarray) -> DiffusionFamily:
    model = config.model
    return DiffusionFamily(
        dynamics=LinearDrift(sigma=model["sigma"]),
        interval=model["interval"],
        init_mean=model["init_mean"],
        init_sd=model["init_sd"],
        obs_coeff=model["obs_gain"],
        obs_var=model["obs_var"],
        ys=ys,
    )


def _build_prior(config: ExperimentConfig):
    prior = config.prior
    if prior["kind"] == "uniform":
        return UniformPrior(lower=np.array(prior["low"]), upper=np.array(prior["high"]))
    return GaussianPrior(mean=np.array(prior["mean"]), sd=np.array(prior["sd"]))


def _build_proposal(config: ExperimentConfig, dim: int) -> ProposalState:
    return ProposalState.isotropic(dim, sd=config.sampler["proposal_sd"])


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


def _write_jsonl(config: ExperimentConfig, name: str, records) -> str:
    lines = [json.dumps(_jsonable(rec), sort_keys=True) for rec in records]
    _write_text(config.output_dir / name, "\n".join(lines) + ("\n" if lines else ""))
    return name


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(config: ExperimentConfig, name: str, header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    _write_text(config.output_dir / name, "\n".join(lines) + "\n")
    return name


def _thin(records, stride: int):
    for index, record in enumerate(records):
        if index % stride == 0:
            yield record


def _series_summary(series: np.ndarray) -> dict:
    stats = series_stats(series)
    return {
        "mean": stats.mean,
        "sd": math.sqrt(stats.variance),
        "iact": stats.iact,
        "asvar": stats.asymptotic_variance,
        "se": stats.standard_error,
    }


# ---------------------------------------------------------------------------
# Per-algorithm drivers (each returns the results dict + extra files)


def _drive_pf(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    ys = _load_observations(config, streams)
    if config.model["family"] == "lgssm":
        model = _build_lgssm_family(config, ys)(np.array([config.model["transition"]]))
    else:
        family = _build_diffusion_family(config, ys)
        model = family.level_model(
            np.array([config.model["drift"]]), config.model["level"]
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
        "n_observations": int(ys.size),
        "n_particles": config.sampler["n_particles"],
        "scheme": config.sampler["scheme"],
    }
    records = (
        {"p": p, "state_mean": float(np.mean(states))}
        for p, states in enumerate(cloud.states)
    )
    files = {"trace": _write_jsonl(config, "trace.jsonl", records)}
    return results, files


def _chain_results(trace, n_burn: int) -> dict:
    kept = trace.thetas[n_burn:]
    coordinates = [
        _series_summary(kept[:, index]) for index in range(kept.shape[1])
    ]
    return {
        "posterior_mean": [c["mean"] for c in coordinates],
        "posterior_sd": [c["sd"] for c in coordinates],
        "iact": [c["iact"] for c in coordinates],
        "asvar": [c["asvar"] for c in coordinates],
        "se": [c["se"] for c in coordinates],
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


def _drive_pmmh(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    ys = _load_observations(config, streams)
    family = _build_lgssm_family(config, ys)
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    runner = particle_likelihood_runner(
        family, config.sampler["n_particles"], scheme=config.sampler["scheme"]
    )
    trace, _ = run_pmmh(
        prior,
        proposal,
        runner,
        config.sampler["n_iterations"],
        streams.stream("chain"),
        n_burn=config.sampler["n_burn"],
    )
    results = _chain_results(trace, config.sampler["n_burn"])
    records = _thin(_chain_records(trace), config.sampler["thinning"])
    files = {"trace": _write_jsonl(config, "trace.jsonl", records)}
    return results, files


def _drive_da(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    ys = _load_observations(config, streams)
    family = _build_lgssm_family(config, ys)
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    runner = particle_likelihood_runner(
        family, config.sampler["n_particles"], scheme=config.sampler["scheme"]
    )
    trace, _ = run_delayed_acceptance(
        prior,
        proposal,
        KalmanLikelihood(family),
        runner,
        config.sampler["eps_reg"],
        config.sampler["n_iterations"],
        streams.stream("chain"),
        n_burn=config.sampler["n_burn"],
    )
    results = _chain_results(trace, config.sampler["n_burn"])
    stage1 = np.array(
        [math.exp(p["log_stage1"]) for p in trace.payloads], dtype=float
    )
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
    results["mean_stage2_probability"] = (
        float(stage2.mean()) if stage2.size else None
    )
    results["stage2_evaluations"] = int(stage2.size)
    records = _thin(_chain_records(trace), config.sampler["thinning"])
    files = {"trace": _write_jsonl(config, "trace.jsonl", records)}
    return results, files


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


def _drive_mcmc_is(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    ys = _load_observations(config, streams)
    family = _build_lgssm_family(config, ys)
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    result = run_mcmc_is(
        prior,
        proposal,
        KalmanLikelihood(family),
        ParticleSmootherRunner(
            model_family=family,
            n_particles=config.sampler["n_particles"],
            scheme=config.sampler["scheme"],
        ),
        config.sampler["eps_reg"],
        config.sampler["n_iterations"],
        streams,
        (ParameterCoordinate(0),),
        n_burn=config.sampler["n_burn"],
        replicates=config.sampler["replicates"],
        n_workers=n_workers,
    )
    results = _is_estimate_results(result.estimate)
    results["n_jump_states"] = len(result.jump_chain)
    records = _thin(
        _weighted_records(result.jump_chain, result.samples),
        config.sampler["thinning"],
    )
    files = {"trace": _write_jsonl(config, "trace.jsonl", records)}
    return results, files


def _drive_mlmc_is(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    ys = _load_observations(config, streams)
    family = _build_diffusion_family(config, ys)
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    schedule = build_schedule(
        rho=config.schedule["rho"],
        n_base=config.schedule["n_base"],
        variant=config.schedule["variant"],
        eta=config.schedule["eta"],
    )
    result = run_mlmc_is(
        prior,
        proposal,
        family,
        schedule,
        config.sampler["eps_reg"],
        config.sampler["n_iterations"],
        streams,
        (ParameterCoordinate(0),),
        n_burn=config.sampler["n_burn"],
        n_workers=n_workers,
        substep_guard=config.guard["substeps"],
    )
    results = _is_estimate_results(result.estimate)
    results["n_jump_states"] = len(result.jump_chain)
    results["total_cost"] = result.ledger.total_cost
    results["mean_cost"] = result.ledger.mean_cost
    results["ire"] = ire(result.ledger, result.asvar)
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

    files = {"trace": _write_jsonl(config, "trace.jsonl", merged_records())}

    level_rows = []
    for level, count in zip(unique_levels, counts):
        run_cost = (
            schedule.particle_count(int(level))
            * family.n_intervals
            * (2 ** int(level) + 2 ** (int(level) - 1))
        )
        level_rows.append((int(level), int(count), float(run_cost * int(count))))
    files["levels"] = _write_csv(
        config, "levels.csv", ("level", "count", "total_cost"), level_rows
    )
    return results, files


def _abc_common(config, trace, epsilon: float) -> tuple[dict, dict]:
    f = CoordinateFunction(0)
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


def _drive_abc_mcmc(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    model = GaussianLocationAbc(
        sigma=config.model["sigma"], y_star=config.model["y_star"]
    )
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    trace = run_abc_mcmc(
        model,
        config.sampler["epsilon0"],
        prior,
        proposal,
        config.sampler["n_iterations"],
        streams.stream("abc"),
    )
    epsilon = config.sampler.get("epsilon_post", trace.epsilon0)
    results, files = _abc_common(config, trace, epsilon)
    files["trace"] = _write_jsonl(
        config, "trace.jsonl", _thin(trace.to_records(), config.sampler["thinning"])
    )
    return results, files


def _drive_abc_adaptive(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    model = GaussianLocationAbc(
        sigma=config.model["sigma"], y_star=config.model["y_star"]
    )
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    adapted = run_tolerance_adaptation(
        model,
        prior,
        proposal,
        config.sampler["n_burn"],
        streams.stream("adapt"),
        alpha_target=config.sampler["alpha_target"],
        eps_init=config.sampler.get("epsilon0"),
    )
    trace = run_abc_mcmc(
        model,
        adapted.epsilon,
        prior,
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
    files["trace"] = _write_jsonl(
        config, "trace.jsonl", _thin(trace.to_records(), config.sampler["thinning"])
    )
    return results, files


def _is_residual_series(result) -> np.ndarray:
    """Per-iteration residual series whose asymptotic variance is the
    weighted estimator's chain component (comparable across samplers)."""
    xi_one = np.array([s.xi_one for s in result.samples])
    xi_f = np.array([s.xi_functions[0] for s in result.samples])
    multiplicities = np.array([s.multiplicity for s in result.samples], np.int64)
    mean_unit = float(np.sum(multiplicities * xi_one)) / multiplicities.sum()
    residuals = (xi_f - result.estimate.value * xi_one) / mean_unit
    return np.repeat(residuals, multiplicities)


def _drive_compare(config: ExperimentConfig, streams: KeyedStreams, n_workers: int):
    ys = _load_observations(config, streams)
    family = _build_lgssm_family(config, ys)
    prior = _build_prior(config)
    proposal = _build_proposal(config, prior.dim)
    sampler = config.sampler
    runner = particle_likelihood_runner(
        family, sampler["n_particles"], scheme=sampler["scheme"]
    )

    pmmh_trace, _ = run_pmmh(
        prior, proposal, runner, sampler["n_iterations"],
        streams.stream("pmmh"), n_burn=sampler["n_burn"],
    )
    da_trace, _ = run_delayed_acceptance(
        prior, proposal, KalmanLikelihood(family), runner, sampler["eps_reg"],
        sampler["n_iterations"], streams.stream("da"), n_burn=sampler["n_burn"],
    )
    is_result = run_mcmc_is(
        prior,
        proposal,
        KalmanLikelihood(family),
        ParticleSmootherRunner(
            model_family=family,
            n_particles=sampler["n_particles"],
            scheme=sampler["scheme"],
        ),
        sampler["eps_reg"],
        sampler["n_iterations"],
        streams.scoped("mcmc_is"),
        (ParameterCoordinate(0),),
        n_burn=sampler["n_burn"],
        replicates=sampler["replicates"],
        n_workers=n_workers,
    )

    n_burn = sampler["n_burn"]
    series = {
        "pmmh": [pmmh_trace.thetas[n_burn:, 0]],
        "da": [da_trace.thetas[n_burn:, 0]],
        "mcmc_is": [_is_residual_series(is_result)],
    }
    report = compare_chains(series)
    results = {
        "comparison": report,
        "pmmh": _chain_results(pmmh_trace, n_burn),
        "da": _chain_results(da_trace, n_burn),
        "mcmc_is": _is_estimate_results(is_result.estimate),
    }
    rows = [
        (
            name,
            row["asvar_mean"],
            row["asvar_se"],
            row["iact_mean"],
            row["n_series"],
        )
        for name, row in sorted(report["series"].items())
    ]
    files = {
        "comparison": _write_csv(
            config,
            "comparison.csv",
            ("sampler", "asvar", "asvar_se", "iact", "n_series"),
            rows,
        )
    }
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


def _derived_lines(config: ExperimentConfig) -> list[str]:
    lines = [
        f"algorithm        {config.algorithm}",
        f"seed             {config.seed}",
        f"output directory {config.output_dir}",
    ]
    model = config.model
    if "simulate" in model:
        lines.append(
            f"observations     {model['simulate']} simulated "
            f"(horizon n={model['simulate'] - 1})"
        )
    elif "observations" in model:
        lines.append(f"observations     file {model['observations']}")
    if config.algorithm == "mlmc-is":
        schedule = build_schedule(
            rho=config.schedule["rho"],
            n_base=config.schedule["n_base"],
            variant=config.schedule["variant"],
            eta=config.schedule["eta"],
        )
        head = range(1, 9)
        pmf = ", ".join(f"{float(schedule.pmf(level)):.4g}" for level in head)
        particles = ", ".join(str(schedule.particle_count(level)) for level in head)
        substeps = ", ".join(str(2**level + 2 ** (level - 1)) for level in head)
        lines.append(f"level pmf head   {pmf}")
        lines.append(f"particle counts  {particles}")
        lines.append(f"substeps/window  {substeps}")
        guard = config.guard["substeps"]
        level, admissible = 1, 0
        while level < 64:
            required = (
                schedule.particle_count(level) * (2**level + 2 ** (level - 1))
            )
            if required > guard:
                break
            admissible = level
            level += 1
        lines.append(
            f"guard            {guard} particle-substeps per observation window "
            f"(levels 1..{admissible} admissible)"
        )
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
        results, files = _DRIVERS[config.algorithm](config, streams, n_workers)
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
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("OK")
    for line in _derived_lines(config):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcis",
        description="Run, validate, or compare Monte Carlo inference experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("config", help="path to the experiment config file")
    run_parser.add_argument("--output-dir", help="override the output directory")
    run_parser.add_argument(
        "--workers", type=int, help="worker process count (overrides config and env)"
    )

    validate_parser = sub.add_parser("validate", help="check a config without running")
    validate_parser.add_argument("config", help="path to the experiment config file")

    compare_parser = sub.add_parser(
        "compare", help="run the sampler comparison on a config"
    )
    compare_parser.add_argument("config", help="path to the experiment config file")
    compare_parser.add_argument("--output-dir", help="override the output directory")
    compare_parser.add_argument(
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
