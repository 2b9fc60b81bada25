"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest

import inputs
import run
import spans

run.import_sdcsim()
import workloads  # noqa: E402  (needs sdcsim on the path)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_inputs_are_a_function_of_the_seed():
    for make in (inputs.grid_forward, inputs.swap_agents, inputs.calibrate):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_self_times_on_a_hand_built_tree():
    # root [0, 100] has children a [10, 40] and b [50, 70]; a has child c [15, 25]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 70]
    assert spans.self_times(parents, starts, ends).tolist() == [50, 20, 10, 20]


def test_metric_names_are_valid_and_match_the_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    emitted = set(run.layer_metrics(Counter())) | {"trace.overhead_ratio"}
    assert all(NAME.fullmatch(name) for name in end_to_end | per_layer | emitted)
    assert per_layer == emitted
    assert end_to_end == {"work_per_s", "check_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_and_tracing_is_removed(name, tmp_path):
    from sdcsim import journal, valuation

    append = journal.Journal.append
    price = valuation.get_pricer(valuation.PRICER_FLAT_CURVE_V1)
    workload = workloads.make(name, 3, tmp_path)
    workload.prepare(warmup=True)
    counted = []
    for _ in range(2):
        tracer, totals = spans.Tracer(), Counter()
        tracer.install()
        try:
            ops = workload.round(after_op=lambda: tracer.fold(totals))
        finally:
            tracer.uninstall()
        assert [op.error for op in ops if op.error] == []
        counted.append({metric: value for metric, (value, unit)
                        in run.layer_metrics(totals).items() if unit in ("count", "ratio")})
    assert counted[0] == counted[1]
    assert any(counted[0].values())
    assert journal.Journal.append is append
    assert valuation.get_pricer(valuation.PRICER_FLAT_CURVE_V1) is price
