"""Pinned final journal hashes.

The determinism tests compare one run with another, so a change that
alters every journal in the same way would pass them. These hashes pin
the bytes themselves: a refactor or speed-up that keeps behaviour must
leave every one of them unchanged. They cover the bundled scenarios in
each trigger mode, a swap priced on a rate path by willful agents, and a
long forward grid.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from sdcsim import Mode, load_scenario, parse_scenario, run_simulation

from test_simulator import scenario_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("defaulting_counterparty", "active"):
        "ea939758af0570393a1baadae52e76d62cdbb700fcac0eedcf3e7022d68902d2",
    ("defaulting_counterparty", "passive"):
        "ea939758af0570393a1baadae52e76d62cdbb700fcac0eedcf3e7022d68902d2",
    ("defaulting_counterparty", "driver"):
        "ea939758af0570393a1baadae52e76d62cdbb700fcac0eedcf3e7022d68902d2",
    ("flat_forward", "active"):
        "f0fce2a16d53aab0d4d48b03c1cffd1da010c2cb760d1eb0c0d864c6a0aa13be",
    ("flat_forward", "passive"):
        "f0fce2a16d53aab0d4d48b03c1cffd1da010c2cb760d1eb0c0d864c6a0aa13be",
    ("flat_forward", "driver"):
        "f0fce2a16d53aab0d4d48b03c1cffd1da010c2cb760d1eb0c0d864c6a0aa13be",
    ("volatile_forward", "active"):
        "3e1e4837f5be7eaecfcf17398dd0b89d4f9118b884b7015e098000c23da948cf",
    ("volatile_forward", "passive"):
        "3e1e4837f5be7eaecfcf17398dd0b89d4f9118b884b7015e098000c23da948cf",
    ("volatile_forward", "driver"):
        "3e1e4837f5be7eaecfcf17398dd0b89d4f9118b884b7015e098000c23da948cf",
    ("vanilla_swap", "active"):
        "c0692d25d7fe9a7bc96445c0654abb335d8d4a679605a74859cd5d34fe737b57",
    ("long_grid", "active"):
        "c3c29e04c9b7c31c5062f5016e8efb62e94be0eecc435d59829b05e819fe24bf",
}

SWAP_PAYMENTS = 8
SWAP_CYCLES = 16            # two settlement cycles per payment
LONG_GRID_CYCLES = 600


def _write_rate_path(path: Path, ticks: int) -> None:
    """A sawtooth rate path; `repr` writes each rate so that it reads back exactly."""
    rows = ["time,spot,zero_rate"]
    rows += [f"{k},100.0,{0.02 + (k * 7 % 11 - 5) * 0.0005!r}" for k in range(ticks)]
    path.write_text("\n".join(rows) + "\n")


def _swap_scenario(tmp_path: Path):
    tick_years = 0.025
    ticks_per_cycle = 10
    times = ",".join(str(0.5 * (i + 1)) for i in range(SWAP_PAYMENTS))
    grid = ",".join(str(ticks_per_cycle * i) for i in range(SWAP_CYCLES + 1))
    rates = tmp_path / "rates.csv"
    _write_rate_path(rates, SWAP_CYCLES * ticks_per_cycle + 1)
    return parse_scenario(scenario_text(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        contract__product="vanilla_swap", contract__strike="0.02",
        contract__notional="1000000", contract__payment_times=times,
        contract__accruals=",".join(["0.5"] * SWAP_PAYMENTS),
        contract__settlement_times=grid,
        contract__margin_a="20000", contract__margin_b="20000",
        contract__prefund_window="4",
        agents__policy_a="willful:1000000", agents__policy_b="willful:1000000",
        agents__funding_a="10000000", agents__funding_b="10000000",
        market__tick_years=str(tick_years), market__path_file=str(rates)),
        name="vanilla_swap")


def _long_grid_scenario():
    grid = ",".join(str(10 * i) for i in range(LONG_GRID_CYCLES + 1))
    return parse_scenario(scenario_text(
        contract__settlement_times=grid,
        contract__margin_a="20000", contract__margin_b="20000",
        market__tick_years="0.0001", market__volatility="0.2",
        market__initial_rate="0.01", run__seed="97"),
        name="long_grid")


def _scenario(name: str, tmp_path: Path):
    if name == "vanilla_swap":
        return _swap_scenario(tmp_path)
    if name == "long_grid":
        return _long_grid_scenario()
    return load_scenario(SCENARIOS / f"{name}.ini")


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_final_journal_hash_is_pinned(name, mode, tmp_path):
    scenario = replace(_scenario(name, tmp_path), mode=Mode(mode))
    artifacts = run_simulation(scenario)
    assert all(artifacts.report.checks.values())
    assert artifacts.journal.final_hash().hex() == GOLDEN[name, mode]


def test_golden_set_covers_every_bundled_scenario_in_every_mode():
    bundled = {p.stem for p in SCENARIOS.glob("*.ini")}
    assert {(name, mode.value) for name in bundled for mode in Mode} <= set(GOLDEN)
