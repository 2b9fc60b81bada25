"""sdcsim benchmark: a closed loop of in-process operations on one workload.

    python3 bench/run.py --workload grid_forward --seed 1 --seconds 30 --trace 0

One caller runs one operation, waits for it, checks its output, then runs
the next, for --seconds seconds in whole rounds (see workloads.py). The
inputs are generated from --seed (see inputs.py). End-to-end times are
scaled to reference speed (see reference_loop). With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and the JSON holds the
per-layer metrics of the traced rounds (see spans.py) plus the tracing
overhead. Lines before it give the same figures for reading. The exit
code is 0 only when every operation's output passed its checks.

sdcsim is imported from the `src` directory next to this one, never from
an installed copy. Files are written under `.bench_work/` next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# A shared machine drifts in speed with its neighbours' load. Every time in
# the end-to-end metrics is scaled by a reference loop run next to it, to a
# machine on which that loop takes REF_SECONDS (a round figure within the
# 5 to 12 ms it took on the 2-CPU machine the benchmark was calibrated on).
REF_SECONDS = 0.010
WORKLOADS = ("grid_forward", "swap_agents", "calibrate")


def import_sdcsim() -> None:
    """Put SRC first on the import path and import sdcsim from it."""
    if not (SRC / "sdcsim" / "__init__.py").is_file():
        raise ImportError(f"no sdcsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdcsim
    if Path(sdcsim.__file__).resolve().parent != SRC / "sdcsim":
        raise ImportError(f"imported sdcsim from {sdcsim.__file__}, not {SRC}")


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "import sdcsim; print(time.perf_counter() - start)")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import sdcsim (and numpy) from SRC."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def layer_metrics(t: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span totals of one traced round.

    Counts and `_s` figures are per round, `_us` figures per call; a
    ratio, or a time per call, whose base is zero reads 0.
    """
    def calls(name):
        return t[f"{name}.calls"]

    def per(num, den):
        return num / den if den else 0.0

    appends = calls("journal.append")
    ledger_ops = calls("ledger.op")
    ticks = t["scheduler.ticks"]
    hooks = calls("simulator.agent")
    price_calls = calls("valuation.price")
    queries = calls("valuation.oracle")
    contract_calls = calls("contract.call") + calls("contract.settle")
    us, s = 1e-3, 1e-9
    return {
        "journal.appends": (appends, "count"),
        "journal.append_us": (per(t["journal.append.total_ns"], appends) * us, "us"),
        "journal.encode_us": (per(t["journal.encode.total_ns"], calls("journal.encode")) * us,
                              "us"),
        "journal.records_s": (t["journal.records.total_ns"] * s, "s"),
        "journal.verify_s": (t["journal.verify.total_ns"] * s, "s"),
        "journal.load_us_per_block": (
            per(t["journal.load.total_ns"], t["journal.blocks_loaded"]) * us, "us"),
        "ledger.ops": (ledger_ops, "count"),
        "ledger.self_us_per_op": (per(t["ledger.op.self_ns"], ledger_ops) * us, "us"),
        "scheduler.ticks_visited": (ticks, "count"),
        "scheduler.self_us_per_tick": (
            per(t["scheduler.run.self_ns"] + t["scheduler.request.self_ns"], ticks) * us, "us"),
        "scheduler.request_accept_ratio": (
            per(t["scheduler.accepted"], calls("scheduler.request")), "ratio"),
        "simulator.agent_hooks": (hooks, "count"),
        "simulator.agent_useful_ratio": (per(t["simulator.agent.useful"], hooks), "ratio"),
        "simulator.agent_self_us": (per(t["simulator.agent.self_ns"], hooks) * us, "us"),
        "simulator.path_s": (t["simulator.path.total_ns"] * s, "s"),
        "simulator.run_self_s": (t["simulator.run.self_ns"] * s, "s"),
        "simulator.normal_variates_s": (
            t["simulator.normal_variates.total_ns"] * s, "s"),
        "simulator.calibrate_self_us_per_trial": (
            per(t["simulator.calibrate.self_ns"], t["simulator.trials"]) * us, "us"),
        "valuation.price_calls": (price_calls, "count"),
        "valuation.price_us": (per(t["valuation.price.total_ns"], price_calls) * us, "us"),
        "valuation.oracle_queries": (queries, "count"),
        "valuation.oracle_computed_ratio": (per(t["valuation.oracle.computed"], queries),
                                            "ratio"),
        "contract.calls": (contract_calls, "count"),
        "contract.self_us_per_call": (
            per(t["contract.call.self_ns"] + t["contract.settle.self_ns"], contract_calls) * us,
            "us"),
        "contract.settle_us": (per(t["contract.settle.total_ns"], calls("contract.settle")) * us,
                               "us"),
        "cli.parse_s": (t["cli.parse.total_ns"] * s, "s"),
        "cli.export_s": (t["cli.export.total_ns"] * s, "s"),
    }


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The loop does what sdcsim's hot paths do (string formatting, dict
    updates, struct packing, SHA-256 chaining, float math, small-object
    allocation), so its speed follows the machine's the way sdcsim's does.
    """
    start = perf_counter()
    counts: dict[str, int] = {}
    digest = b""
    for i in range(2000):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
        digest = hashlib.sha256(digest + struct.pack(">QI", i, len(key)) + key.encode()).digest()
    total = 0.0
    for i in range(8000):
        x = i * 1e-4
        total += math.exp(-0.02 * x) * (x - 0.5) / (1.0 + x)
    [(i, str(i)) for i in range(5000)]
    return perf_counter() - start


def at_reference_speed(seconds: float, reference: float) -> float:
    """`seconds` measured while the reference loop took `reference` seconds,
    scaled to a machine on which it takes REF_SECONDS."""
    return seconds * REF_SECONDS / reference


def round_at_reference_speed(workload, reference: float, after_op=lambda: None):
    """Run one round, timing the reference loop after each operation.

    `reference` is the reference loop time just before the round. Returns
    the operations, each one's time at reference speed (scaled by the mean
    of the reference times before and after it), and the last reference time.
    """
    refs = [reference]

    def after():
        after_op()
        refs.append(reference_loop())

    ops = workload.round(after_op=after)
    scaled = [at_reference_speed(op.seconds, (before + behind) / 2)
              for op, before, behind in zip(ops, refs, refs[1:])]
    return ops, scaled, refs[-1]


def measure(workload, seconds: float) -> tuple[list, list[float]]:
    """Untraced rounds until `seconds` have passed (at least one).

    Returns the operations and each one's time at reference speed.
    """
    reference = reference_loop()
    ops, scaled = [], []
    deadline = perf_counter() + seconds
    while True:
        more, times, reference = round_at_reference_speed(workload, reference)
        ops += more
        scaled += times
        if perf_counter() >= deadline:
            return ops, scaled


def measure_traced(workload, seconds: float, work_dir: Path):
    """Alternate untraced and traced rounds until `seconds` have passed.

    Returns the operations run, the per-layer metrics (median over traced
    rounds) and the problems found, such as counts that did not repeat.
    """
    from spans import Tracer

    tracer = Tracer()
    ops, untraced, traced, per_round = [], [], [], []
    reference = reference_loop()
    deadline = perf_counter() + seconds
    while True:
        plain, times, reference = round_at_reference_speed(workload, reference)
        untraced.append(sum(times))
        totals = Counter()
        tracer.install()
        try:
            spanned, times, reference = round_at_reference_speed(
                workload, reference, lambda: tracer.fold(totals))
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        per_round.append(layer_metrics(totals))
        ops += plain + spanned
        if perf_counter() >= deadline:
            break
    tracer.dump(work_dir / "spans.csv")

    problems = []
    for name, (value, unit) in per_round[0].items():
        if unit in ("count", "ratio") and any(r[name][0] != value for r in per_round):
            problems.append(f"{name} differs between traced rounds: "
                            f"{[r[name][0] for r in per_round]}")
    metrics = {name: (statistics.median(r[name][0] for r in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       "ratio")
    return ops, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        import_sdcsim()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    work_dir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    workload = workloads.make(args.workload, args.seed, work_dir)

    # Set-up: import sdcsim in a fresh interpreter, then generate the inputs
    # and warm up on a small version of them; several times, so that
    # set-up time is a median like the other figures.
    ops, imports, setups = [], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(at_reference_speed(import_seconds(), reference_loop()))
        start = perf_counter()
        workload.prepare(warmup=True)
        ops += workload.round()
        workload.prepare(warmup=False)
        setups.append(at_reference_speed(perf_counter() - start, reference_loop()))
    setup_s = statistics.median(imports) + statistics.median(setups)

    problems = []
    if args.trace:
        traced_ops, metrics, problems = measure_traced(workload, args.seconds, work_dir)
        ops += traced_ops
        for name, (value, unit) in metrics.items():
            print(f"  {name:40} {value:14.4f} [{unit}]")
    else:
        measured, scaled = measure(workload, args.seconds)
        ops += measured
        print(f"{args.workload} seed={args.seed}: {len(measured)} operations timed, "
              f"rates at reference speed (wall-clock rates in brackets)")
        metrics = {}
        for kind, name in (("work", workload.work_metric), ("check", workload.check_metric)):
            timed = [(op, t) for op, t in zip(measured, scaled) if op.kind == kind]
            q1, median, q3 = quartiles([op.units / t for op, t in timed])
            w1, wall, w3 = quartiles([op.units / op.seconds for op, _ in timed])
            print(f"  {name:24} median {median:10.1f} q1 {q1:10.1f} q3 {q3:10.1f} n={len(timed)}"
                  f" [1/s]  (median {wall:.1f} q1 {w1:.1f} q3 {w3:.1f})")
            metrics[f"{kind}_per_s"] = (median, "1/s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"  {'setup_s':24} {setup_s:.4f} [s]: median of {SETUP_REPEATS} imports "
              f"{statistics.median(imports):.4f} + of {SETUP_REPEATS} set-ups "
              f"{statistics.median(setups):.4f}")
        print(f"  {'peak_rss_mb':24} {metrics['peak_rss_mb'][0]:.1f} [MB]")

    failed = [op for op in ops if op.error is not None]
    for message in [op.error for op in failed] + problems:
        print(f"error: {message}", file=sys.stderr)
    print(f"  failed_ops_ratio {len(failed)}/{len(ops)} = {len(failed) / len(ops)}")
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
