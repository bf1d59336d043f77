"""Traced in-process ``mcis run``: spans around the package's public functions.

Run as ``python3 bench/tracer.py CONFIG OUTPUT_DIR SPANS_JSON`` with
``src`` on ``PYTHONPATH``.  It imports ``mcis.cli`` (timed), wraps each
traced function in every ``mcis`` module namespace that holds a
reference to it (methods are wrapped on their class), runs
``mcis run CONFIG --output-dir OUTPUT_DIR --workers 1`` in this
process, and writes the spans as JSON when the run ends.

A span is ``[name, start, end, parent, work]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``work`` is a count the wrapper
derives from the call, such as particle-substeps for a filter run.
`layer_metrics` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  "Class.method" attributes are
# wrapped on the class; plain functions in every namespace holding them.
TRACED = {
    ("mcis.cli", "load_config"): "cli.load_config",
    ("mcis.mcmc", "run_approx_marginal_chain"): "mcmc.chain",
    ("mcis.mcmc", "run_delayed_acceptance"): "mcmc.chain",
    ("mcis.is_correction", "run_mcmc_is"): "is_correction.run",
    ("mcis.is_correction", "compute_is_weights"): "is_correction.weights",
    ("mcis.parallel", "ordered_map"): "parallel.map",
    ("mcis.smc", "run_particle_filter"): "smc.pf",
    ("mcis.smc", "run_delta_pf"): "smc.delta",
    ("mcis.smc", "resample"): "smc.resample",
    ("mcis.models.lgssm", "kalman_loglik"): "models.lgssm.kalman",
    ("mcis.models.lgssm", "LinearGaussianSSM.__init__"): "models.lgssm.ssm_build",
    ("mcis.models.lgssm", "lgssm_feynman_kac"): "models.lgssm.fk_build",
    ("mcis.models.diffusion", "coupled_euler_interval"): "models.diffusion.coupled_interval",
    ("mcis.models.diffusion", "EulerDiffusionModel.sample_transition"):
        "models.diffusion.euler_transition",
    ("mcis.multilevel", "run_mlmc_is"): "multilevel.run",
    ("mcis.multilevel", "sample_level"): "multilevel.sample_level",
    ("mcis.rng", "KeyedStreams.stream"): "rng.stream",
    ("mcis.diagnostics", "series_stats"): "diagnostics.series_stats",
}


def _filter_substeps(args):
    model, n_particles = args["model"], args["n_particles"]
    return n_particles * model.n * getattr(model, "substeps", 1)


def _delta_substeps(args):
    model = args["model"]
    return args["n_particles"] * model.n * (model.fine.substeps + model.coarse.substeps)


def _interval_substeps(args):
    model = args["model"]
    return len(args["x_fine"]) * (model.fine.substeps + model.coarse.substeps)


def _chain_work(args, result):
    """Iterations, kept iterations, distinct kept states, accepted moves."""
    n_iter, n_burn = args["n_iterations"], args.get("n_burn", 0)
    if isinstance(result, tuple):  # delayed acceptance: (ChainTrace, estimate)
        thetas = result[0].thetas[n_burn:]
        distinct = 1 + int((thetas[1:] != thetas[:-1]).any(axis=1).sum())
        return [n_iter, n_iter - n_burn, distinct, int(result[0].accepted.sum())]
    return [n_iter, n_iter - n_burn, len(result), None]


# span name -> work extractor over (bound arguments, result); names
# without an entry count calls only
WORK = {
    "smc.pf": lambda a, r: _filter_substeps(a),
    "smc.delta": lambda a, r: _delta_substeps(a),
    "models.diffusion.coupled_interval": lambda a, r: _interval_substeps(a),
    "mcmc.chain": _chain_work,
    "is_correction.weights": lambda a, r: len(a["jump"]) * a["replicates"],
    "parallel.map": lambda a, r: len(a["items"]),
    "multilevel.sample_level": lambda a, r: int(r),
}


class Recorder:
    """Spans kept in memory: ``[name, start, end, parent, work]``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, func):
        work = WORK.get(name)
        signature = inspect.signature(func) if work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = work(bound.arguments, result)
            return result

        return wrapper

    def enter(self, name: str) -> list:
        """Open a span around code that is not a wrapped call."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def leave(self, span: list):
        self._stack.pop()
        span[2] = time.perf_counter()


def install(recorder: Recorder):
    """Wrap every traced function in this process."""
    modules = {
        name: module for name, module in sys.modules.items()
        if name == "mcis" or name.startswith("mcis.")
    }
    for (module_name, attribute), span_name in TRACED.items():
        owner = modules[module_name]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, recorder.wrap(span_name, getattr(cls, method)))
            continue
        original = getattr(owner, attribute)
        wrapper = recorder.wrap(span_name, original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def run_traced(config: str, output_dir: str) -> tuple[int, list]:
    """Import, wrap and run one config; returns (exit code, spans)."""
    recorder = Recorder()
    span = recorder.enter("cli.import")
    import mcis.cli as cli

    recorder.leave(span)
    install(recorder)
    span = recorder.enter("cli.main")
    try:
        code = cli.main(["run", config, "--output-dir", output_dir, "--workers", "1"])
    finally:
        recorder.leave(span)
    return code, recorder.spans


# per-layer metrics where more is better; every other one is better lower
HIGHER_IS_BETTER = {"mcmc.stage2_accept_ratio"}
RATIOS = {"mcmc.jump_states_per_iteration", "mcmc.stage2_accept_ratio"}


def unit_of(name: str) -> str:
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times from a span list."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    work = defaultdict(int)
    for index, (name, start, end, _, count) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[index]
        if isinstance(count, int):
            work[name] += count

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    chains = [s[4] for s in spans if s[0] == "mcmc.chain"]
    kept = sum(c[1] for c in chains)
    distinct = sum(c[2] for c in chains)
    accepted = sum(c[3] for c in chains if c[3] is not None)
    # exact filters run by delayed acceptance after its starting point
    da_chains = {
        i for i, s in enumerate(spans)
        if s[0] == "mcmc.chain" and s[4] is not None and s[4][3] is not None
    }
    stage2 = sum(1 for s in spans if s[0] == "smc.pf" and s[3] in da_chains)
    stage2 -= len(da_chains)
    levels = [s[4] for s in spans if s[0] == "multilevel.sample_level"]
    return {
        "cli.import_s": total["cli.import"],
        "cli.load_config_s": total["cli.load_config"],
        "cli.self_s": self_time["cli.main"],
        "mcmc.iterations": sum(c[0] for c in chains),
        "mcmc.chain_self_s": self_time["mcmc.chain"],
        "mcmc.jump_states_per_iteration": distinct / kept if kept else 0.0,
        "mcmc.stage2_runs": stage2,
        "mcmc.stage2_accept_ratio": accepted / stage2 if stage2 > 0 else 0.0,
        "is_correction.tasks": work["is_correction.weights"],
        "is_correction.weights_s": total["is_correction.weights"],
        "is_correction.self_s": self_time["is_correction.run"]
        + self_time["is_correction.weights"],
        "parallel.items": work["parallel.map"],
        "parallel.map_s": total["parallel.map"],
        "parallel.self_s": self_time["parallel.map"],
        "smc.pf_calls": calls["smc.pf"],
        "smc.pf_s": total["smc.pf"],
        "smc.pf_self_s": self_time["smc.pf"],
        "smc.pf_substeps": work["smc.pf"],
        "smc.pf_us_per_call": per_call_us("smc.pf"),
        "smc.resample_calls": calls["smc.resample"],
        "smc.resample_s": total["smc.resample"],
        "smc.resample_us_per_call": per_call_us("smc.resample"),
        "smc.delta_calls": calls["smc.delta"],
        "smc.delta_s": total["smc.delta"],
        "smc.delta_self_s": self_time["smc.delta"],
        "smc.delta_substeps": work["smc.delta"],
        "models.lgssm.kalman_calls": calls["models.lgssm.kalman"],
        "models.lgssm.kalman_s": total["models.lgssm.kalman"],
        "models.lgssm.kalman_us_per_call": per_call_us("models.lgssm.kalman"),
        "models.lgssm.ssm_builds": calls["models.lgssm.ssm_build"],
        "models.lgssm.ssm_build_s": total["models.lgssm.ssm_build"],
        "models.lgssm.fk_builds": calls["models.lgssm.fk_build"],
        "models.lgssm.fk_build_s": total["models.lgssm.fk_build"],
        "models.diffusion.coupled_interval_calls":
            calls["models.diffusion.coupled_interval"],
        "models.diffusion.coupled_interval_s": total["models.diffusion.coupled_interval"],
        "models.diffusion.coupled_substeps": work["models.diffusion.coupled_interval"],
        "models.diffusion.euler_transition_calls":
            calls["models.diffusion.euler_transition"],
        "models.diffusion.euler_transition_s": total["models.diffusion.euler_transition"],
        "multilevel.level_draws": len(levels),
        "multilevel.max_level": max(levels, default=0),
        "multilevel.self_s": self_time["multilevel.run"],
        "rng.stream_calls": calls["rng.stream"],
        "rng.stream_s": total["rng.stream"],
        "rng.stream_us_per_call": per_call_us("rng.stream"),
        "diagnostics.series_stats_calls": calls["diagnostics.series_stats"],
        "diagnostics.series_stats_s": total["diagnostics.series_stats"],
    }


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: tracer.py CONFIG OUTPUT_DIR SPANS_JSON", file=sys.stderr)
        return 2
    config, output_dir, spans_path = argv
    code, spans = run_traced(config, output_dir)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
