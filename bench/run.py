"""Benchmark of the ``mcis`` command line, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh ``mcis`` process with one worker, one at a
time.  After a short warm-up the run times one cold ``mcis validate``
of round 0's config (``setup_s``), starts ``mcis run`` rounds, each on
its own simulated observations (see `workloads`), until ``--seconds``
have passed (at least two), and finally repeats round 0 to check that
``summary.json`` is byte-identical.  Each round's outputs are checked
against quadrature targets and the method's invariants.

The host this was built on changes speed by up to 1.8x within seconds
(other tenants), so every time is reported in reference seconds: the
measured time scaled by the speed a fixed probe loop shows on the same
CPU while the process runs (see `Operation`).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics (medians over the rounds, and total particle-substeps
over total time); with ``--trace 1`` it runs
round 0 untraced twice and once under `tracer` in-process, and reports
the per-layer metrics instead.  Run outputs go to ``bench/_runs``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from tracer import layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, RunOutputs  # noqa: E402

# one operation may take this long before it is killed and counted failed
OPERATION_LIMIT_S = 150.0
WARM_UP_S = 2.0
# near the probe's time on the reference host (2-core x86 VM); it only
# sets the scale of reference seconds
REFERENCE_S = 0.0135
# a running operation is paused this often for one probe
SAMPLE_EVERY_S = 0.5


def probe_seconds() -> float:
    """Time a fixed mix of interpreter and small-array numpy work, the
    kind of work ``mcis`` does, as a gauge of the CPU's current speed."""
    started = time.perf_counter()
    x = np.zeros(32)
    total = 0.0
    for i in range(2500):
        x = x * 0.5 + np.sqrt(x + i)
        total += float(x.sum()) + sum(j * 0.5 for j in range(20))
    return time.perf_counter() - started


class Operation:
    """One child process: exit code, wall time and peak resident memory.

    The benchmark and its children share one CPU.  With ``sample`` the
    child is stopped every ``SAMPLE_EVERY_S`` for one probe, so the
    probes gauge the speed of that CPU while the child runs; ``wall_s``
    is the child's wall time outside those pauses, scaled to the
    reference host's speed by ``REFERENCE_S`` over the mean probe time
    (probes just before and after the child included).  A traced child
    is not paused, since its spans would count the pauses.
    """

    def __init__(self, argv, env, log, probe_before: float, sample: bool = True):
        probes = [probe_before]
        exited = threading.Event()
        ended = []
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=log, stderr=log)

        def watch():
            # WNOWAIT leaves the child unreaped, so its pid stays valid
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            ended.append(time.perf_counter())
            exited.set()

        watcher = threading.Thread(target=watch)
        watcher.start()
        pauses = []
        try:
            while not exited.wait(SAMPLE_EVERY_S):
                if time.perf_counter() - started > OPERATION_LIMIT_S:
                    child.kill()
                    continue
                if not sample:
                    continue
                stop = time.perf_counter()
                os.kill(child.pid, signal.SIGSTOP)
                try:
                    probes.append(probe_seconds())
                finally:
                    os.kill(child.pid, signal.SIGCONT)
                pauses.append((stop, time.perf_counter()))
        except BaseException:
            # interrupted: leave no child behind
            child.kill()
            watcher.join()
            os.wait4(child.pid, 0)
            raise
        watcher.join()
        _, status, usage = os.wait4(child.pid, 0)
        self.code = os.waitstatus_to_exitcode(status)
        child.returncode = self.code
        # a pause may begin just after the child ended
        raw_wall_s = ended[0] - started - sum(
            max(0.0, min(resumed, ended[0]) - stop) for stop, resumed in pauses
        )
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.probe_after = probe_seconds()
        probes.append(self.probe_after)
        self.scale = REFERENCE_S / statistics.fmean(probes)
        self.wall_s = raw_wall_s * self.scale
        print(f"{' '.join(map(str, argv[1:4]))}: wall {raw_wall_s:.3f} s, "
              f"{len(probes)} probes {min(probes):.4f}-{max(probes):.4f} s -> "
              f"{self.wall_s:.3f} reference s, exit {self.code}", file=sys.stderr)


class Bench:
    def __init__(self, workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.dir = root / "bench" / "_runs" / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("MCIS_WORKERS", None)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.log = open(self.dir / "children.log", "w", encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs of operations that ran
        self.failures: list[str] = []
        self.configs: dict[int, Path] = {}
        self.targets: dict[int, float] = {}
        # warm the CPU up, then gauge its speed for the first operation
        warm = time.perf_counter()
        while time.perf_counter() - warm < WARM_UP_S:
            self.last_probe = probe_seconds()

    def close(self):
        self.log.close()

    def config(self, k: int) -> Path:
        if k not in self.configs:
            path = self.workload.write_inputs(self.dir, self.seed, k)
            ys = [float(line) for line in (self.dir / f"obs{k}.txt").read_text().split()]
            self.configs[k] = path
            self.targets[k] = self.workload.target(ys)
        return self.configs[k]

    def spawn(self, argv, sample: bool = True) -> Operation | None:
        self.attempted += 1
        op = Operation(argv, self.env, self.log, self.last_probe, sample)
        self.last_probe = op.probe_after
        if op.code != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(argv[2:])} exited with {op.code}")
            return None
        return op

    def validate(self, k: int) -> Operation | None:
        return self.spawn([sys.executable, "-m", "mcis.cli", "validate", str(self.config(k))])

    def run_round(self, k: int, tag: str):
        """One ``mcis run`` of round ``k``; returns (operation, outputs,
        substeps) or None when it failed."""
        out = self.dir / f"out_{tag}"
        argv = [sys.executable, "-m", "mcis.cli", "run", str(self.config(k)),
                "--output-dir", str(out), "--workers", "1"]
        op = self.spawn(argv)
        if op is None:
            return None
        return op, *self.inspect(k, out)

    def inspect(self, k: int, out: Path):
        outputs = RunOutputs.read(out)
        problems = self.workload.check(outputs, self.targets[k])
        self.problems.extend(f"round {k}: {p}" for p in problems)
        work = self.workload.substeps(outputs)
        print(f"round {k}: {work} particle-substeps", file=sys.stderr)
        return outputs, work

    def same_summary(self, first, second, what: str):
        if first.summary_bytes != second.summary_bytes:
            self.problems.append(f"summary.json differs between {what}")


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup = bench.validate(0)
    started = time.perf_counter()
    rounds = [bench.run_round(0, "r0")]
    while len(rounds) < 2 or time.perf_counter() - started < seconds:
        rounds.append(bench.run_round(len(rounds), f"r{len(rounds)}"))
    repeat = bench.run_round(0, "repeat")
    if rounds[0] is not None and repeat is not None:
        bench.same_summary(rounds[0][1], repeat[1], "two runs of round 0")
    rounds = [r for r in (*rounds, repeat) if r is not None]
    if setup is None or not rounds:
        return {}
    walls = [op.wall_s for op, _, _ in rounds]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup.wall_s, "s"),
        "substeps_per_s": (
            sum(work for _, _, work in rounds) / sum(op.wall_s for op, _, _ in rounds), "1/s"
        ),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op, _, _ in rounds), "MB"),
    }


def traced(bench: Bench) -> dict:
    bench.validate(0)
    plain = [bench.run_round(0, f"plain{i}") for i in range(2)]
    spans_path = bench.dir / "spans.json"
    out = bench.dir / "out_traced"
    op = bench.spawn([sys.executable, str(BENCH / "tracer.py"), str(bench.config(0)),
                      str(out), str(spans_path)], sample=False)
    if op is None or None in plain:
        return {}
    outputs, work = bench.inspect(0, out)
    bench.same_summary(plain[0][1], plain[1][1], "two untraced runs")
    bench.same_summary(plain[0][1], outputs, "the traced and an untraced run")
    metrics = layer_metrics(json.loads(spans_path.read_text()))
    cross_check(bench, outputs, work, metrics)
    # span times in reference seconds, like every other time
    metrics = {
        name: value * op.scale if unit_of(name) in ("s", "us") else value
        for name, value in metrics.items()
    }
    metrics["trace.overhead_s"] = op.wall_s - statistics.median(p[0].wall_s for p in plain)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def cross_check(bench: Bench, outputs: RunOutputs, work: int, metrics: dict):
    """Traced counts against totals reached from the run's outputs."""
    workload, results = bench.workload, outputs.results
    expected = {"traced substeps": (
        metrics["smc.pf_substeps"] + metrics["smc.delta_substeps"], work)}
    if workload.algorithm == "mcmc-is":
        expected["smc.pf_calls"] = (
            metrics["smc.pf_calls"], results["n_jump_states"] * results["replicates"])
    if workload.algorithm == "mlmc-is":
        expected["smc.delta_calls"] = (metrics["smc.delta_calls"], results["n_jump_states"])
    if workload.algorithm == "da":
        expected["mcmc.stage2_runs"] = (metrics["mcmc.stage2_runs"], sum(
            1 for r in outputs.trace
            if r["log_stage1"] is not None and r["log_stage2"] is not None))
    for name, (traced_value, counted) in expected.items():
        if traced_value != counted:
            bench.problems.append(f"{name} {traced_value} != {counted} from the outputs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mcis" / "cli.py").is_file():
        print(f"no package source at {root / 'src' / 'mcis'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # the build: byte-compile the package so no timed process pays for it
    if not compileall.compile_dir(root / "src" / "mcis", quiet=1):
        print("the package does not compile", file=sys.stderr)
        return 2

    # the benchmark and its children share one CPU (see `Operation`)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM unwind, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(WORKLOADS[args.workload], args.seed, root)
    try:
        measured = traced(bench) if args.trace else end_to_end(bench, args.seconds)
    finally:
        bench.close()
    for failure in bench.failures:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not measured:
        print("no result: an operation the metrics need failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
