"""Pinned final journal hashes and report bytes.

The determinism tests compare one run with another, so a change that
alters every journal in the same way would pass them. These hashes pin
the bytes themselves: a refactor or speed-up that keeps behaviour must
leave every one of them unchanged. They cover, in each trigger mode, the
bundled scenarios and a swap priced on a rate path by willful agents (once
with no trigger and once with party A emptying its wallet mid-run), and a
long forward grid. Variants of `volatile_forward` reach the paths those
never take: a partial settlement, a refused initialization, an oracle
failure, a contract id too long for `RecordShape.pack`'s ASCII template,
and journaled rejections. The buffer calibration's samples and buffers are
pinned the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

import sdcsim.journal
from sdcsim import (Engine, LifecycleEvent, Mode, ScriptStep, load_scenario, parse_scenario,
                    run_simulation)
from sdcsim.journal import (FAILED_TERMINATION, LOCK, MATURED_TERMINATION, PREFUND_TERMINATION,
                            REJECTION, RELEASE, SETTLEMENT, TRANSFER, TRANSITION, VALUATION)
from sdcsim.simulator import (
    _settlement_rows,
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
    ("thin_margins", "active"):
        "82a9a0c056fd30e160f4f3467f25280aa8b6078762bf0c3c24fe09b4582ecaa5",
    ("thin_margins", "passive"):
        "82a9a0c056fd30e160f4f3467f25280aa8b6078762bf0c3c24fe09b4582ecaa5",
    ("thin_margins", "driver"):
        "82a9a0c056fd30e160f4f3467f25280aa8b6078762bf0c3c24fe09b4582ecaa5",
    ("underfunded", "active"):
        "7dce71c900ddb122d16df111e7f2a16a2c79ebff56a88e6da513ca341dfe5baf",
    ("underfunded", "passive"):
        "7dce71c900ddb122d16df111e7f2a16a2c79ebff56a88e6da513ca341dfe5baf",
    ("underfunded", "driver"):
        "7dce71c900ddb122d16df111e7f2a16a2c79ebff56a88e6da513ca341dfe5baf",
    ("missing_tick", "active"):
        "69309d17666673f888794df8e7d5c698e822cc6d5787104d1cc9064e13be9173",
    ("missing_tick", "passive"):
        "69309d17666673f888794df8e7d5c698e822cc6d5787104d1cc9064e13be9173",
    ("missing_tick", "driver"):
        "69309d17666673f888794df8e7d5c698e822cc6d5787104d1cc9064e13be9173",
    ("long_contract_id", "active"):
        "0d555f3e1d7f87c0d7816f6f927e17c578d9717333974d5f7e705e1bef0a8f27",
    ("long_contract_id", "passive"):
        "0d555f3e1d7f87c0d7816f6f927e17c578d9717333974d5f7e705e1bef0a8f27",
    ("long_contract_id", "driver"):
        "0d555f3e1d7f87c0d7816f6f927e17c578d9717333974d5f7e705e1bef0a8f27",
    ("rejected_rows", "active"):
        "06c4bb601ec8c7b31a68e94640c3bc81b28afe3dd3928fbc79664ab5fd4abb45",
    ("rejected_rows", "passive"):
        "5dd49b76337b555bde547b75e956c7a0f6bb0e5439197ef82c94a43ee87d1584",
    ("rejected_rows", "driver"):
        "d118884c07f4c3576edadaeef4ba82e34059d8d5e9bc7e166df8e039130f1ae4",
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
    ("thin_margins", "active"): (
        "032d6defd786a86a81cafc46c1d65607e1671f2995e58cc5290a5d0ada4f8c91",
        "85b241add5829fb79ae66fc82e1df874d2cb379a3145a197686c8685fbfac60a"),
    ("thin_margins", "passive"): (
        "032d6defd786a86a81cafc46c1d65607e1671f2995e58cc5290a5d0ada4f8c91",
        "3c9211a756ddeb5267a3ac17bb397bd782937be52f46b263768976fa562403a9"),
    ("thin_margins", "driver"): (
        "032d6defd786a86a81cafc46c1d65607e1671f2995e58cc5290a5d0ada4f8c91",
        "6bd7df8cbb8eb4359863e0509da8ce332de9fbe357258f27d290d93079fce780"),
    ("underfunded", "active"): (
        "822e393a2e5a0b1abab37a0f0b815cc0d06098dea4b379adc4e3649edc108a81",
        "34ad8fa85724e02e2ac0311f4dbbc61b885fd39f6667594a9f42beb0776635a4"),
    ("underfunded", "passive"): (
        "822e393a2e5a0b1abab37a0f0b815cc0d06098dea4b379adc4e3649edc108a81",
        "33c45e32b101d05dc1883a59611fb90858b3ed9ea3b5bb6b32ae0cc9b38d9b7c"),
    ("underfunded", "driver"): (
        "822e393a2e5a0b1abab37a0f0b815cc0d06098dea4b379adc4e3649edc108a81",
        "e5cc8f8ca68c1921af6f12aaf17f5393cb6b78e37bc2c792c0a89b5ad9062781"),
    ("missing_tick", "active"): (
        "15211d18df31f0069b8e5f9b16f3fe0afcde5ccca23e47dc2cafb429a2b7ac9e",
        "2597a37efff5cc1b157a44ec76bd6684423ebdc414b519430c2dfc83b26c5d87"),
    ("missing_tick", "passive"): (
        "15211d18df31f0069b8e5f9b16f3fe0afcde5ccca23e47dc2cafb429a2b7ac9e",
        "9d7d5ebba77fd0e196400898f943a45540e7c6be3fcd3c6a4dd672fbf20a0b7f"),
    ("missing_tick", "driver"): (
        "15211d18df31f0069b8e5f9b16f3fe0afcde5ccca23e47dc2cafb429a2b7ac9e",
        "abb354de008e19e68e2f6bfbcaaf377885c812ad7c5a5930758c7558345b3658"),
    ("long_contract_id", "active"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "050ec05861f7639757bc8b7ec4b8dba8a0db3260f5f5e348a2b3206b59665830"),
    ("long_contract_id", "passive"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "c3c70e982fded299e70a749452d54c2af30132f68c84c68e1b663c70d4b5ffcd"),
    ("long_contract_id", "driver"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "1e38b94fee393dd98ce477985730f8b8312ddd1448baf3f45947adb1970003a7"),
    ("rejected_rows", "active"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "3603b9c853ac10c4194b1177952a7ac55672720444f43b482c37419ad4b470b2"),
    ("rejected_rows", "passive"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "b6e7dbe514b36ef2aa50d90ca80e8e657b3e038de4c434687a9e3426c061bdf8"),
    ("rejected_rows", "driver"): (
        "e0f037d5da8c5b08da7ce7c974a6a4d4417849fece35d56f63d422f8182e73dc",
        "4efe57625bae9a8fcb2fc97574d6c9f1d3d18b7ea109d1ebfade6a4beff32608"),
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
    if name in VARIANTS:
        return VARIANTS[name](load_scenario(SCENARIOS / "volatile_forward.ini"), tmp_path)
    return load_scenario(SCENARIOS / f"{name}.ini")


def _with_contract(scenario, **terms):
    return replace(scenario, contract=replace(scenario.contract, **terms))


def _path_missing_tick_40(scenario, tmp_path: Path):
    """The scenario on a path file with no row for settlement tick 40."""
    rows = ["time,spot,zero_rate"]
    rows += [f"{k},{100.0 + (k * 7 % 11 - 5) * 0.5!r},0.01" for k in range(101) if k != 40]
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(rows) + "\n")
    return replace(scenario, market=None, path_file=str(path))


# `volatile_forward` variants, each reaching a path the other cases never take
VARIANTS = {
    # SETTLEMENT_FAILED: a partial Settlement and a FAILED_TERMINATION
    "thin_margins": lambda s, _: _with_contract(s, margin_a=30, margin_b=30),
    # PRECONDITION_FAILED: party A cannot cover its fee and first buffer
    "underfunded": lambda s, _: replace(s, funding_a=100),
    # ERROR: the oracle finds no snapshot for tick 40, an Error[...] label
    "missing_tick": _path_missing_tick_40,
    # a 130-character contract id packs through EventRecord, not the ASCII template
    "long_contract_id": lambda s, _: _with_contract(s, contract_id="SDC-" + "x" * 126),
    # journaled rejections: rows that `_with_rejected_rows` adds to the run's script
    "rejected_rows": lambda s, _: s,
}


def _with_rejected_rows(script):
    """The script plus rows requested out of turn, by an outsider, at a wrong
    tick and ahead of the valuation, each placed before its tick's own rows."""
    party, E = script[0].party, LifecycleEvent
    extra = [ScriptStep(0, E.MARGIN_CHECK, party), ScriptStep(13, E.CLOSE_ACCOUNTS, "outsider#9"),
             ScriptStep(25, E.SETTLEMENT, party), ScriptStep(30, E.SETTLEMENT, party)]
    return sorted([*extra, *script], key=lambda step: step.tick)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned_run(name: str, mode: str, tmp_path: Path, monkeypatch):
    scenario = replace(_scenario(name, tmp_path), mode=Mode(mode))
    with monkeypatch.context() as patch:
        if name == "rejected_rows":
            run = Engine.run
            patch.setattr(Engine, "run", lambda engine, script=None: run(
                engine, _with_rejected_rows(engine.timeline if script is None else script)))
        return run_simulation(scenario)


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_final_journal_hash_is_pinned(name, mode, tmp_path, monkeypatch):
    artifacts = _pinned_run(name, mode, tmp_path, monkeypatch)
    assert all(artifacts.report.checks.values())
    assert artifacts.journal.final_hash().hex() == GOLDEN[name, mode]
    report = artifacts.report
    assert (_sha256(render_report_csv(report)), _sha256(render_report_text(report))) \
        == REPORTS[name, mode]


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_reconciliation_decodes_only_a_partial_settlement(name, mode, tmp_path, monkeypatch):
    artifacts = _pinned_run(name, mode, tmp_path, monkeypatch)
    engine, decodes = artifacts.engine, []
    strings = sdcsim.journal._strings
    monkeypatch.setattr(sdcsim.journal, "_strings",
                        lambda payloads: decodes.append(len(payloads)) or strings(payloads))
    assert _settlement_rows(artifacts.journal, engine.spec, engine.oracle) \
        == (artifacts.report.cycles, True)
    # every other Settlement, and every Valuation, is the re-encoding of what the oracle cached
    assert decodes == ([1] if artifacts.report.termination_cause == "SETTLEMENT_FAILED" else [])


def test_golden_set_covers_every_bundled_scenario_in_every_mode():
    every_mode = ({p.stem for p in SCENARIOS.glob("*.ini")} | {"vanilla_swap", "willful_swap"}
                  | set(VARIANTS))
    assert {(name, mode.value) for name in every_mode for mode in Mode} <= set(GOLDEN)
    assert set(REPORTS) == set(GOLDEN)


# every shape the engine writes; APPROVAL, BURN and TRANSFER_FROM have no engine caller
ENGINE_SHAPES = (TRANSFER, LOCK, RELEASE, TRANSITION, REJECTION, VALUATION, SETTLEMENT,
                 PREFUND_TERMINATION, FAILED_TERMINATION, MATURED_TERMINATION)


def test_the_pinned_runs_reach_every_outcome_and_every_engine_shape(tmp_path, monkeypatch):
    causes, written = set(), set()
    for name in sorted({name for name, _ in GOLDEN}):
        artifacts = _pinned_run(name, "active", tmp_path, monkeypatch)
        causes.add(artifacts.report.termination_cause)
        payloads = artifacts.journal.payloads()
        written |= {shape for shape in ENGINE_SHAPES if any(shape.read(payloads))}
    assert causes == {"MATURED", "INSUFFICIENT_PREFUND", "SETTLEMENT_FAILED", "ERROR",
                      "PRECONDITION_FAILED"}
    assert written == set(ENGINE_SHAPES)


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
