"""The benchmark's workloads: inputs, work counts and output checks.

Each workload is one ``mcis run`` configuration family.  Round ``k`` of
a benchmark run at seed ``s`` gets its own observation file, simulated
here from ``(s, k)``; every round passes the program the same seed,
`PROGRAM_SEED`.  mlmc-is draws one level per jump state from the
program's streams, and its cost per state has an infinite mean (every
level adds the same expected particle-substeps), so letting the
benchmark seed choose the level draws would make the work of a run
heavy-tailed across seeds and rounds.  The observations still change
every chain path and jump-state count.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# |estimate - quadrature target| must stay within this many reported
# standard errors
Z_LIMIT = 5.0


# the source paper's arXiv number
PROGRAM_SEED = 190405886


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    family: str
    n_obs: int
    model: dict
    prior: dict
    sampler: dict
    schedule: dict = field(default_factory=dict)
    why: str = ""

    @property
    def horizon(self) -> int:
        return self.n_obs - 1

    # -- inputs -----------------------------------------------------------

    def simulate(self, seed: int, round_index: int) -> list[float]:
        """Observations of the data-generating model at the true values."""
        tag = zlib.crc32(self.name.encode())
        rng = np.random.default_rng([seed, round_index, tag])
        m = self.model
        if self.family == "lgssm":
            coeff, var = m["transition"], m["transition_noise"]
            gain, obs_var = m["observation_gain"], m["observation_noise"]
            mean0, var0 = m["initial_mean"], m["initial_variance"]
        else:
            coeff, var = oracle.ou_transition(m["drift"], m["sigma"], m["interval"])
            gain, obs_var = m["obs_gain"], m["obs_var"]
            mean0, var0 = m["init_mean"], m["init_sd"] ** 2
        x = mean0 + math.sqrt(var0) * rng.standard_normal()
        ys = []
        for p in range(self.n_obs):
            if p:
                x = coeff * x + math.sqrt(var) * rng.standard_normal()
            ys.append(float(gain * x + math.sqrt(obs_var) * rng.standard_normal()))
        return ys

    def write_inputs(self, directory: Path, seed: int, round_index: int) -> Path:
        """Write round ``round_index``'s observation file and config;
        return the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        ys = self.simulate(seed, round_index)
        obs = directory / f"obs{round_index}.txt"
        obs.write_text("".join(f"{y!r}\n" for y in ys))
        sections = {
            "experiment": {"algorithm": self.algorithm, "seed": PROGRAM_SEED},
            "model": {"family": self.family, **self.model, "observations": obs.name},
            "prior": self.prior,
            "sampler": self.sampler,
        }
        if self.schedule:
            sections["schedule"] = self.schedule
        lines = []
        for name, values in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        config = directory / f"round{round_index}.ini"
        config.write_text("\n".join(lines))
        return config

    def target(self, ys) -> float:
        """Posterior mean of the inferred parameter by quadrature."""
        m, prior = self.model, self.prior
        if self.family == "lgssm":
            return oracle.lgssm_coefficient_mean(
                ys, prior["low"], prior["high"], m["transition_noise"],
                m["observation_gain"], m["observation_noise"], m["initial_mean"],
                m["initial_variance"],
            )
        return oracle.ou_drift_mean(
            ys, prior["mean"], prior["sd"], m["sigma"], m["interval"], m["obs_gain"],
            m["obs_var"], m["init_mean"], m["init_sd"] ** 2,
        )

    # -- work count -------------------------------------------------------

    def substeps(self, outputs: "RunOutputs") -> int:
        """Particle-substeps the run executed, from its outputs and config."""
        n = self.horizon
        if self.algorithm == "mcmc-is":
            return (
                outputs.results["n_jump_states"] * self.sampler["replicates"]
                * self.sampler["n_particles"] * n
            )
        if self.algorithm == "mlmc-is":
            rho, n_base = self.schedule["rho"], self.schedule["n_base"]
            coupled = sum(
                n * n_base * 2 ** math.ceil(rho * r["level"])
                * (2 ** r["level"] + 2 ** (r["level"] - 1))
                for r in outputs.trace
            )
            return coupled + (self.sampler["n_iterations"] + 1) * n_base * n
        # da: one exact filter per stage-2 evaluation, plus the start
        exact = sum(
            1 for r in outputs.trace
            if r["log_stage1"] is not None and r["log_stage2"] is not None
        )
        return (exact + 1) * self.sampler["n_particles"] * n

    # -- output checks ----------------------------------------------------

    def check(self, outputs: "RunOutputs", target: float) -> list[str]:
        """Problems found in one run's outputs (empty when correct)."""
        res, trace = outputs.results, outputs.trace
        problems = []
        kept = self.sampler["n_iterations"] - self.sampler["n_burn"]
        if self.algorithm == "da":
            estimate, se = res["posterior_mean"][0], res["se"][0]
            if len(trace) != self.sampler["n_iterations"]:
                problems.append(f"trace has {len(trace)} records")
            accepted = [r["accepted"] for r in trace]
            holding = _run_lengths([r["theta"] for r in trace[self.sampler["n_burn"]:]])
            rate = res["acceptance_rate"]
            if not 0.0 < rate < 1.0:
                problems.append(f"DA acceptance rate {rate} not inside (0, 1)")
            if abs(rate - sum(accepted) / len(accepted)) > 1e-12:
                problems.append("acceptance rate disagrees with the trace")
        else:
            estimate, se = res["estimate"], res["se"]
            holding = [r["holding_time"] for r in trace]
            if len(trace) != res["n_jump_states"]:
                problems.append(
                    f"trace has {len(trace)} states, summary {res['n_jump_states']}"
                )
            if res["n_iterations"] != kept:
                problems.append(f"summary n_iterations {res['n_iterations']} != {kept}")
        if sum(holding) != kept:
            problems.append(f"holding times sum to {sum(holding)}, expected {kept}")
        if self.algorithm == "mcmc-is":
            negative = sum(1 for r in trace if r["xi_one"] < 0 or min(r["xi_f"]) < 0)
            if negative:
                problems.append(f"{negative} negative importance weights")
        if self.algorithm == "mlmc-is":
            counted = sum(count for _, count in res["level_counts"])
            if counted != res["n_jump_states"]:
                problems.append(f"level counts sum to {counted}")
            if min(r["level"] for r in trace) < 1 or min(
                level for level, _ in res["level_counts"]
            ) < 1:
                problems.append("a level below 1")
        if not (se and se > 0 and math.isfinite(estimate)):
            problems.append(f"estimate {estimate} with se {se}")
        elif abs(estimate - target) > Z_LIMIT * se:
            problems.append(
                f"estimate {estimate:.5f} is {(estimate - target) / se:+.2f} se "
                f"from the quadrature target {target:.5f}"
            )
        return problems


@dataclass(frozen=True)
class RunOutputs:
    summary_bytes: bytes
    results: dict
    trace: list

    @classmethod
    def read(cls, directory: Path) -> "RunOutputs":
        raw = (directory / "summary.json").read_bytes()
        with open(directory / "trace.jsonl", encoding="utf-8") as handle:
            trace = [json.loads(line) for line in handle if line.strip()]
        return cls(raw, json.loads(raw)["results"], trace)


def _run_lengths(values) -> list[int]:
    lengths = []
    for i, value in enumerate(values):
        if i and value == values[i - 1]:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


_LGSSM = {
    "transition": 0.6,
    "transition_noise": 0.25,
    "observation_gain": 1.0,
    "observation_noise": 1.0,
    "initial_mean": 0.0,
    "initial_variance": 1.0,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mcmc-is-lgssm",
            algorithm="mcmc-is",
            family="lgssm",
            n_obs=11,
            model=_LGSSM,
            prior={"kind": "uniform", "low": 0.0, "high": 1.0},
            sampler={
                "n_iterations": 5000, "n_burn": 500, "n_particles": 32,
                "eps_reg": 1e-10, "proposal_sd": 0.2, "replicates": 2,
            },
            why="phase 1 is all Kalman surrogate and LinearGaussianSSM builds; "
                "phase 2 is thousands of N=32 filters that cost Python call overhead",
        ),
        Workload(
            name="mlmc-is-ou",
            algorithm="mlmc-is",
            family="ou",
            n_obs=11,
            model={
                "drift": -0.5, "sigma": 1.0, "interval": 1.0, "init_mean": 0.0,
                "init_sd": 1.0, "obs_gain": 1.0, "obs_var": 1.0,
            },
            prior={"kind": "gaussian", "mean": -0.5, "sd": 0.5},
            sampler={
                "n_iterations": 2000, "n_burn": 200, "eps_reg": 1e-8,
                "proposal_sd": 0.2,
            },
            schedule={"rho": 0.5, "n_base": 16},
            why="level-0 Euler filters, then coupled Euler intervals on levels 1+; "
                "no Kalman call and no LinearGaussianSSM at all",
        ),
        Workload(
            name="da-lgssm-long",
            algorithm="da",
            family="lgssm",
            n_obs=51,
            model=_LGSSM,
            prior={"kind": "uniform", "low": 0.0, "high": 1.0},
            sampler={
                "n_iterations": 800, "n_burn": 200, "n_particles": 1024,
                "eps_reg": 1e-60, "proposal_sd": 0.2,
            },
            why="a sequential chain of N=1024, 50-step filters whose cost is numpy "
                "kernel work; nothing to batch across states",
        ),
    )
}
