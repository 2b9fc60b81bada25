"""The benchmark's operations: each calls sdcsim in-process, is timed on
its own, and has its output checked.

A workload runs in rounds. A round is a fixed list of operations, so a
traced round does the same work every time and its counts repeat exactly.
Every operation is either "work" (a `run`, or a buffer calibration) or a
"check" of that work's output (a `verify` of the journal just written, or
an out-of-sample test of the calibrated buffer).
"""

from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from sdcsim import cli, simulator

import inputs

MODES = ("active", "passive", "driver")
WARMUP_CYCLES = 20

Q = 0.99
CAL_TRIALS = 50_000
EVAL_TRIALS = 20_000
WARMUP_TRIALS = 2_000

# Outputs for inputs.DEFAULT_SEED: final journal hashes (the same in every
# trigger mode) and the calibrated buffer in minor units. A change that
# moves one of these changed what sdcsim computes, not only how fast.
PINNED = {
    "grid_forward": "0983aa3e1dec07075f371075be04c94b8b1953ad7aa2b393ab62613959d1899c",
    "swap_agents": "a1582cf4c52c6dc215a30a5e9ad4028553ee95f7b2ff7cbda73c835d745590d9",
    "calibrate": 1027,
}


@dataclass
class Op:
    kind: str            # "work" or "check"
    seconds: float
    units: int           # settled cycles, journal blocks or trials
    error: str | None = None


def _cli(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


class RunWorkload:
    """`sdcsim run` in each of `modes`, each followed by `sdcsim verify`."""

    work_metric = "run_cycles_per_s"
    check_metric = "verify_blocks_per_s"

    def __init__(self, name: str, make_inputs, cycles: int, modes: tuple[str, ...],
                 seed: int, directory: Path):
        self.name = name
        self.make_inputs = make_inputs
        self.full_cycles = cycles
        self.modes = modes
        self.seed = seed
        self.directory = directory

    def prepare(self, warmup: bool) -> None:
        self.cycles = WARMUP_CYCLES if warmup else self.full_cycles
        self.inputs = self.directory / ("warmup" if warmup else "inputs")
        inputs.write(self.make_inputs(self.seed, cycles=self.cycles), self.inputs)
        self.pinned = PINNED[self.name] if not warmup and self.seed == inputs.DEFAULT_SEED \
            else None
        self.journal_hash = None     # every run of these inputs must reproduce it

    def round(self, after_op=lambda: None) -> list[Op]:
        ops = []
        for mode in self.modes:
            out = self.directory / "out" / mode
            ops.append(self._run(mode, out))
            after_op()
            ops.append(self._verify(out / "journal.bin"))
            after_op()
        return ops

    def _run(self, mode: str, out: Path) -> Op:
        code, text, seconds = _cli(["run", str(self.inputs / f"{self.name}.ini"),
                                    "--mode", mode, "--out", str(out)])
        op = Op("work", seconds, self.cycles)
        found = re.search(r"journal=([0-9a-f]{64})", text)
        report = (out / "report.txt").read_text() if code == 0 else ""
        if code != 0 or found is None:
            op.error = f"run --mode {mode} exited {code}: {text.strip()}"
        elif "termination_cause: MATURED\n" not in report:
            op.error = f"run --mode {mode} did not mature"
        elif f"\ncycles: {self.cycles}\n" not in report:
            op.error = f"run --mode {mode} did not settle {self.cycles} cycles"
        elif re.search(r"^checks: (\w+=ok ?)+$", report, re.M) is None:
            op.error = f"run --mode {mode} failed a report check"
        elif self.pinned is not None and found[1] != self.pinned:
            op.error = f"journal hash {found[1]} differs from the pinned {self.pinned}"
        elif self.journal_hash not in (None, found[1]):
            op.error = f"run --mode {mode} gave journal {found[1]}, not {self.journal_hash}"
        else:
            self.journal_hash = found[1]
        return op

    def _verify(self, journal: Path) -> Op:
        code, text, seconds = _cli(["verify", str(journal)])
        found = re.search(r": (\d+) blocks, chain verified", text)
        op = Op("check", seconds, int(found[1]) if found else 0)
        if code != 0 or found is None:
            op.error = f"verify exited {code}: {text.strip()}"
        return op


class CalibrateWorkload:
    """`calibrate_buffer` at level Q, then an out-of-sample test of the buffer."""

    work_metric = "calibrate_trials_per_s"
    check_metric = "check_trials_per_s"

    def __init__(self, seed: int, directory: Path):
        self.name = "calibrate"
        self.seed = seed
        self.directory = directory

    def prepare(self, warmup: bool) -> None:
        self.trials = WARMUP_TRIALS if warmup else CAL_TRIALS
        self.eval_trials = WARMUP_TRIALS if warmup else EVAL_TRIALS
        self.inputs = self.directory / ("warmup" if warmup else "inputs")
        inputs.write(inputs.calibrate(self.seed), self.inputs)
        self.pinned = PINNED[self.name] if not warmup and self.seed == inputs.DEFAULT_SEED \
            else None
        self.buffer = None
        # Exceedance of a q-quantile estimated from n samples, tested on m
        # fresh ones, has standard deviation sqrt(q (1-q) (1/n + 1/m)).
        sd = math.sqrt(Q * (1 - Q) * (1 / self.trials + 1 / self.eval_trials))
        self.max_exceedance = (1 - Q) + 5 * sd

    def round(self, after_op=lambda: None) -> list[Op]:
        start = perf_counter()
        scenario = simulator.load_scenario(self.inputs / "calibrate.ini")
        buffer = simulator.calibrate_buffer(scenario, Q, self.trials)
        work = Op("work", perf_counter() - start, self.trials)
        after_op()
        if not isinstance(buffer, int) or buffer < 1:
            work.error = f"calibrated buffer {buffer!r} is not a positive integer"
        elif self.pinned is not None and buffer != self.pinned:
            work.error = f"calibrated buffer {buffer} differs from the pinned {self.pinned}"
        elif self.buffer not in (None, buffer):
            work.error = f"calibrated buffer {buffer}, earlier {self.buffer}"
        else:
            self.buffer = buffer

        start = perf_counter()
        fresh = simulator.one_period_samples(scenario, self.eval_trials,
                                             stream=simulator.EVALUATION_STREAM)
        exceedance = sum(1 for f in fresh if abs(f) > buffer) / len(fresh)
        check = Op("check", perf_counter() - start, self.eval_trials)
        after_op()
        if exceedance > self.max_exceedance:
            check.error = (f"buffer {buffer} exceeded by {exceedance:.4f} of fresh samples, "
                           f"allowed {self.max_exceedance:.4f}")
        return [work, check]


def make(name: str, seed: int, directory: Path):
    if name == "grid_forward":
        return RunWorkload(name, inputs.grid_forward, inputs.GRID_CYCLES, MODES, seed, directory)
    if name == "swap_agents":
        return RunWorkload(name, inputs.swap_agents, inputs.SWAP_CYCLES, ("active",),
                           seed, directory)
    if name == "calibrate":
        return CalibrateWorkload(seed, directory)
    raise ValueError(f"unknown workload {name!r}")

