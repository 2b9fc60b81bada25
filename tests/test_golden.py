"""Pinned final journal hashes and report bytes.

The determinism tests compare one run with another, so a change that
alters every journal in the same way would pass them. These hashes pin
the bytes themselves: a refactor or speed-up that keeps behaviour must
leave every one of them unchanged. They cover, in each trigger mode, the
bundled scenarios and a swap priced on a rate path by willful agents (once
with no trigger and once with party A emptying its wallet mid-run), and a
long forward grid. The buffer calibration's samples and buffers are pinned
the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from sdcsim import Mode, load_scenario, parse_scenario, run_simulation
from sdcsim.simulator import (
    calibrate_buffer,
    one_period_samples,
    render_report_csv,
    render_report_text,
)

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
    ("vanilla_swap", "passive"):
        "c0692d25d7fe9a7bc96445c0654abb335d8d4a679605a74859cd5d34fe737b57",
    ("vanilla_swap", "driver"):
        "c0692d25d7fe9a7bc96445c0654abb335d8d4a679605a74859cd5d34fe737b57",
    ("willful_swap", "active"):
        "25a46453ffc8216781164fc55b747dd5b19d2aaa51bbac05b2cc1f91b6fff7e7",
    ("willful_swap", "passive"):
        "25a46453ffc8216781164fc55b747dd5b19d2aaa51bbac05b2cc1f91b6fff7e7",
    ("willful_swap", "driver"):
        "25a46453ffc8216781164fc55b747dd5b19d2aaa51bbac05b2cc1f91b6fff7e7",
    ("long_grid", "active"):
        "c3c29e04c9b7c31c5062f5016e8efb62e94be0eecc435d59829b05e819fe24bf",
}

# SHA-256 of render_report_csv and render_report_text for each case. The
# report's value_end column comes from the oracle's pricing, not the journal,
# so these pin what the journal hashes cannot.
REPORTS = {
    ("defaulting_counterparty", "active"): (
        "3be3e485e3e4504c7b3743ec3221a863cef0b0a05d45ac7ec28f180ec60c0806",
        "a6816df7ef2c59303f195d4af99203dfc69e7b5036494ffdf01c2d1caa7b166c"),
    ("defaulting_counterparty", "driver"): (
        "3be3e485e3e4504c7b3743ec3221a863cef0b0a05d45ac7ec28f180ec60c0806",
        "59e79b0fe807b2e2a807c1fd02ede92af4a426d7bc8f526053a6ee214d897f04"),
    ("defaulting_counterparty", "passive"): (
        "3be3e485e3e4504c7b3743ec3221a863cef0b0a05d45ac7ec28f180ec60c0806",
        "44f29f0b4411fd940b7d2d81c0b8e1976f81d4deb87dc2ffa4e5c744eee29821"),
    ("flat_forward", "active"): (
        "5249852f8aeb9fa45a3015b880042da317b50cdd2b08764fc80986dfbe3b41e6",
        "251eee105dff5c3a82c158c5b3a67a5ec1ff80f611e8c7d84d201a2dbf9e7df4"),
    ("flat_forward", "driver"): (
        "5249852f8aeb9fa45a3015b880042da317b50cdd2b08764fc80986dfbe3b41e6",
        "ab8ca3b13c08daf2bd7ffa4dbe812a00db865512adb60febfa308a9d34938a99"),
    ("flat_forward", "passive"): (
        "5249852f8aeb9fa45a3015b880042da317b50cdd2b08764fc80986dfbe3b41e6",
        "8ed0742431d67e59dd7d91fbfcbe94a20db8b0fd0557318ae6610b66ab85a7e8"),
    ("long_grid", "active"): (
        "11ce0ac09d0a9566a6fc2812e587ee830dc3ba02eaa426f835eb92d1a9a95668",
        "3c8ff39b2e40697d9aeb7eb3b0ea17d56c9a42ce88cfeb5d8147105dd0ad8c05"),
    ("vanilla_swap", "active"): (
        "b81ee3322ab3680ff156a7613f02ec95b5c6bb6944b2751287f8b698bce28068",
        "a20f151c827be78b62535264aaa9a3db08c52cd3afe491b7e11c24cff88dc160"),
    ("vanilla_swap", "driver"): (
        "b81ee3322ab3680ff156a7613f02ec95b5c6bb6944b2751287f8b698bce28068",
        "4b7beb2aceeae88618cf9e3437de0fb930602880d4a365c65a713b53fded9273"),
    ("vanilla_swap", "passive"): (
        "b81ee3322ab3680ff156a7613f02ec95b5c6bb6944b2751287f8b698bce28068",
        "60b39390b0e47eaa0265af232f993bb83ceb1a592159e20d09ac3e560c1b8e52"),
    ("willful_swap", "active"): (
        "b3284e1536c0a1cfcf98adf612e10b35cd5a72e4df51c6af472eb363ffb89875",
        "98497269b3494f29a0bd5c1ead14e68e833bec5cc812ac445b1f5aec44299a23"),
    ("willful_swap", "driver"): (
        "b3284e1536c0a1cfcf98adf612e10b35cd5a72e4df51c6af472eb363ffb89875",
        "cf29645742ac7cca501a93701fc3f7a1b1ac91196df506c497598ad80fa198eb"),
    ("willful_swap", "passive"): (
        "b3284e1536c0a1cfcf98adf612e10b35cd5a72e4df51c6af472eb363ffb89875",
        "1b7fcbf80b9283e90653e878d359ec3e12dee70386ccfb6aac9040769e5d86e3"),
    ("volatile_forward", "active"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "a63dbfcbe1439c15705ae9189c7d8b5c24862fceece41caf7364d9259cb682e7"),
    ("volatile_forward", "driver"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "db6b02c8e6358ddfd75fec59faee542d135de51bf82e30efb3d9e2a446660391"),
    ("volatile_forward", "passive"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "ada933258ebdc1eee5118fa186b62e8a74588d56c74daab19cd4dd14fe2dc111"),
}

# SHA-256 of repr(one_period_samples(scenario, 5000, stream)) and
# calibrate_buffer(scenario, q=0.99, trials=5000), per scenario: the
# bundled ones, plus a forward with drift, a non-zero rate and strike 95.
CALIBRATION_TRIALS = 5000
CALIBRATION = {
    ("defaulting_counterparty", 1):
        "70fb2ba580cfaabffe589bdb970a5713df5e09df8a06249d49e2ab1c020e45cd",
    ("defaulting_counterparty", 2):
        "70fb2ba580cfaabffe589bdb970a5713df5e09df8a06249d49e2ab1c020e45cd",
    ("drifting_forward", 1):
        "524e2bf24c65cf1d0173f82eeee5c96157a14104cb73d7ee7f8d53a03695455c",
    ("drifting_forward", 2):
        "1cea336747431b80433c7221e2287b10c67c4a4b5d4b6dad6821af9d6de06dc7",
    ("flat_forward", 1):
        "d5c723909794fe13ea9d533a3b7f2bdc83673717204b4d87d2270d69d76da0c7",
    ("flat_forward", 2):
        "d5c723909794fe13ea9d533a3b7f2bdc83673717204b4d87d2270d69d76da0c7",
    ("volatile_forward", 1):
        "1655e343436625833f2dc079efb3d0d1ad301c42ee7b24de869d53123196cd90",
    ("volatile_forward", 2):
        "7dda56cf1d559164b3354e735810db8b6325d587aa6e76a292991371083db924",
}
BUFFERS = {
    "defaulting_counterparty": 203,
    "drifting_forward": 1586,
    "flat_forward": 1,
    "volatile_forward": 1046,
}

SWAP_PAYMENTS = 8
SWAP_CYCLES = 16            # two settlement cycles per payment
LONG_GRID_CYCLES = 600


def _write_rate_path(path: Path, ticks: int) -> None:
    """A sawtooth rate path; `repr` writes each rate so that it reads back exactly."""
    rows = ["time,spot,zero_rate"]
    rows += [f"{k},100.0,{0.02 + (k * 7 % 11 - 5) * 0.0005!r}" for k in range(ticks)]
    path.write_text("\n".join(rows) + "\n")


def _swap_scenario(tmp_path: Path, policy_a: str = "willful:1000000", name="vanilla_swap"):
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
        agents__policy_a=policy_a, agents__policy_b="willful:1000000",
        agents__funding_a="10000000", agents__funding_b="10000000",
        market__tick_years=str(tick_years), market__path_file=str(rates)),
        name=name)


def _long_grid_scenario():
    grid = ",".join(str(10 * i) for i in range(LONG_GRID_CYCLES + 1))
    return parse_scenario(scenario_text(
        contract__settlement_times=grid,
        contract__margin_a="20000", contract__margin_b="20000",
        market__tick_years="0.0001", market__volatility="0.2",
        market__initial_rate="0.01", run__seed="97"),
        name="long_grid")


def _scenario(name: str, tmp_path: Path):
    if name == "drifting_forward":
        return parse_scenario(scenario_text(
            market__volatility="0.3", market__drift="0.15", market__initial_rate="0.03",
            contract__strike="95.0", run__seed="11"), name=name)
    if name == "vanilla_swap":
        return _swap_scenario(tmp_path)
    if name == "willful_swap":
        # party A's projection crosses 10,000 in the third cycle's open
        # window (after two settlements), so the trigger decision is pinned
        return _swap_scenario(tmp_path, policy_a="willful:10000", name=name)
    if name == "long_grid":
        return _long_grid_scenario()
    return load_scenario(SCENARIOS / f"{name}.ini")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_final_journal_hash_is_pinned(name, mode, tmp_path):
    scenario = replace(_scenario(name, tmp_path), mode=Mode(mode))
    artifacts = run_simulation(scenario)
    assert all(artifacts.report.checks.values())
    assert artifacts.journal.final_hash().hex() == GOLDEN[name, mode]
    report = artifacts.report
    assert (_sha256(render_report_csv(report)), _sha256(render_report_text(report))) \
        == REPORTS[name, mode]


def test_golden_set_covers_every_bundled_scenario_in_every_mode():
    every_mode = {p.stem for p in SCENARIOS.glob("*.ini")} | {"vanilla_swap", "willful_swap"}
    assert {(name, mode.value) for name in every_mode for mode in Mode} <= set(GOLDEN)
    assert set(REPORTS) == set(GOLDEN)


@pytest.mark.parametrize("name,stream", sorted(CALIBRATION))
def test_calibration_samples_are_pinned(name, stream, tmp_path):
    samples = one_period_samples(_scenario(name, tmp_path), CALIBRATION_TRIALS, stream=stream)
    assert _sha256(repr(samples)) == CALIBRATION[name, stream]


@pytest.mark.parametrize("name", sorted(BUFFERS))
def test_calibrated_buffer_is_pinned(name, tmp_path):
    assert calibrate_buffer(_scenario(name, tmp_path), q=0.99, trials=CALIBRATION_TRIALS) \
        == BUFFERS[name]


def test_calibration_pins_cover_every_bundled_scenario():
    bundled = {p.stem for p in SCENARIOS.glob("*.ini")}
    assert {(name, stream) for name in bundled for stream in (1, 2)} <= set(CALIBRATION)
    assert {name for name, _ in CALIBRATION} == set(BUFFERS)
