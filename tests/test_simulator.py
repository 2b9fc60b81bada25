from __future__ import annotations

import math
import os

import pytest

from sdcsim import (
    EventKind,
    MarketModel,
    MarketSnapshot,
    Mode,
    VanillaSwap,
    load_path_csv,
    margin_buffer,
    parse_scenario,
    run_simulation,
    write_path_csv,
    write_report,
)
from sdcsim.errors import ScenarioParseError, ScenarioValidationError
from sdcsim.simulator import (
    calibrate_buffer,
    generate_path,
    normal_variates,
    one_period_samples,
    render_report_csv,
    render_report_text,
)

from support import open_intervals_respected

BASE = {
    "contract": {
        "contract_id": "SDC-1", "party_a": "bank1", "party_b": "bank2",
        "product": "forward", "notional": "100.0", "strike": "100.0",
        "settlement_times": "0,10,20,30", "margin_a": "400", "margin_b": "400",
        "fee_a": "200", "fee_b": "200", "prefund_window": "3",
        "pricer": "flat-curve-v1",
    },
    "market": {
        "tick_years": "0.004", "initial_spot": "100.0", "initial_rate": "0.0",
        "volatility": "0.0", "drift": "0.0",
    },
    "agents": {
        "policy_a": "compliant", "policy_b": "compliant",
        "funding_a": "100000", "funding_b": "100000",
    },
    "run": {"seed": "42", "mode": "active"},
}


def scenario_text(drop=(), **overrides) -> str:
    sections = {name: dict(keys) for name, keys in BASE.items()}
    for dotted in drop:
        section, key = dotted.split(".")
        sections[section].pop(key, None)
    for dotted, value in overrides.items():
        section, key = dotted.split("__")
        sections[section][key] = value
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def make_scenario(**kwargs):
    return parse_scenario(scenario_text(**kwargs))


# -- scenario parsing --

def test_minimal_scenario_parses():
    scenario = make_scenario()
    assert scenario.contract.contract_id == "SDC-1"
    assert scenario.contract.settlement_times == (0, 10, 20, 30)
    assert scenario.market.volatility == 0.0
    assert scenario.mode is Mode.ACTIVE
    assert scenario.policy_b.kind == "compliant"


def test_negative_fee_is_a_validation_error():
    with pytest.raises(ScenarioValidationError) as exc:
        make_scenario(contract__fee_b="-5")
    assert exc.value.field == "fee_b"


def test_zero_fee_fails_contract_validation():
    with pytest.raises(ScenarioValidationError) as exc:
        make_scenario(contract__fee_a="0")
    assert exc.value.field == "contract"


def test_unknown_policy_is_a_parse_error():
    with pytest.raises(ScenarioParseError):
        make_scenario(agents__policy_a="chaotic")


def test_policy_arguments_parse():
    scenario = make_scenario(agents__policy_b="defaulting:2")
    assert (scenario.policy_b.kind, scenario.policy_b.param) == ("defaulting", 2)
    scenario = make_scenario(agents__policy_b="willful:500")
    assert (scenario.policy_b.kind, scenario.policy_b.param) == ("willful", 500)


def test_unknown_key_fails_closed():
    text = scenario_text() + "\n[contract]\n"  # duplicate section header
    with pytest.raises(ScenarioParseError):
        parse_scenario(text)
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(scenario_text(run__color="blue"))
    assert "color" in str(exc.value)


def test_unknown_section_fails_closed():
    with pytest.raises(ScenarioParseError):
        parse_scenario(scenario_text() + "\n[extras]\nx = 1\n")


def test_missing_market_section_names_it():
    text = "\n".join(line for line in scenario_text().splitlines()
                     if not line.startswith(("tick_years", "initial_", "volatility",
                                             "drift", "[market]")))
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert "[market]" in str(exc.value)


def test_path_file_excludes_model_keys():
    with pytest.raises(ScenarioParseError):
        make_scenario(market__path_file="p.csv")  # still has initial_spot etc.


def test_swap_scenario_parses():
    scenario = make_scenario(
        contract__product="vanilla_swap", contract__strike="0.03",
        contract__payment_times="0.5,1.0", contract__accruals="0.5,0.5",
        contract__settlement_times="0,10,20", market__tick_years="0.05")
    assert isinstance(scenario.contract.product, VanillaSwap)
    assert scenario.contract.product.maturity == 1.0


def test_swap_maturity_must_sit_on_the_grid():
    with pytest.raises(ScenarioValidationError):
        make_scenario(
            contract__product="vanilla_swap", contract__strike="0.03",
            contract__payment_times="0.5,0.9", contract__accruals="0.5,0.4",
            contract__settlement_times="0,10,20", market__tick_years="0.05")


# -- market paths --

def test_zero_volatility_path_is_constant():
    model = MarketModel(100.0, 0.01, 0.0, 0.0, 0.004)
    path = generate_path(model, seed=7, ticks=50)
    assert len(path) == 50
    assert all(s.spot == 100.0 for s in path)
    assert [s.as_of for s in path] == list(range(50))


def test_same_seed_reproduces_the_path():
    model = MarketModel(100.0, 0.01, 0.25, 0.05, 0.004)
    assert generate_path(model, 99, 200) == generate_path(model, 99, 200)
    other = generate_path(model, 100, 200)
    assert other != generate_path(model, 99, 200)


def test_log_return_mean_matches_model_drift():
    # statistical oracle: sample mean of log-returns over 100k steps lies
    # within 4 standard errors of (mu - sigma^2/2) * dt
    model = MarketModel(100.0, 0.0, 0.2, 0.07, 0.004)
    n = 100_000
    path = generate_path(model, seed=2024, ticks=n + 1)
    logs = [math.log(b.spot / a.spot) for a, b in zip(path, path[1:])]
    mean = sum(logs) / n
    expected = (model.drift - 0.5 * model.volatility ** 2) * model.tick_years
    stderr = model.volatility * math.sqrt(model.tick_years) / math.sqrt(n)
    assert abs(mean - expected) < 4 * stderr


def test_normal_variates_are_stream_separated():
    assert normal_variates(1, 0, 5) != normal_variates(1, 1, 5)
    assert normal_variates(1, 0, 5) == normal_variates(1, 0, 5)


def test_path_csv_round_trip(tmp_path):
    model = MarketModel(100.0, 0.02, 0.3, 0.0, 0.004)
    path = generate_path(model, 5, 30)
    file = tmp_path / "path.csv"
    write_path_csv(path, file)
    assert load_path_csv(file) == path


def test_path_csv_rejects_bad_header(tmp_path):
    file = tmp_path / "path.csv"
    file.write_text("tick,spot,rate\n0,100.0,0.01\n")
    with pytest.raises(ScenarioParseError):
        load_path_csv(file)


def test_path_csv_rejects_non_increasing_ticks(tmp_path):
    file = tmp_path / "path.csv"
    file.write_text("time,spot,zero_rate\n0,100.0,0.01\n2,101.0,0.01\n2,102.0,0.01\n")
    with pytest.raises(ScenarioParseError) as exc:
        load_path_csv(file)
    assert exc.value.line == 4


def test_negative_seed_is_rejected_at_load():
    with pytest.raises(ScenarioValidationError) as exc:
        make_scenario(run__seed="-3")
    assert exc.value.field == "seed"


# -- end-to-end runs --

def test_flat_market_run_matures_with_zero_transfers():
    artifacts = run_simulation(make_scenario())
    report = artifacts.report
    assert report.termination_cause == "MATURED"
    assert [row.amount for row in report.cycles] == [0, 0, 0]
    assert report.final_wealth == report.initial_wealth
    assert all(report.checks.values())
    assert open_intervals_respected(artifacts.journal, "SDC-1")


def test_deterministic_rising_market_drains_the_payer():
    # sigma = 0 with positive drift is a deterministic ramp: B pays each cycle.
    # S_t = 100 * exp(0.002 t), so the per-cycle moves are 202, 206, 210 units.
    scenario = make_scenario(market__drift="0.5")
    artifacts = run_simulation(scenario)
    report = artifacts.report
    assert report.termination_cause == "MATURED"
    assert all(row.payer.startswith("bank2") for row in report.cycles)
    assert [row.amount for row in report.cycles] == [202, 206, 210]
    a, b = sorted(report.final_wealth)
    assert report.final_wealth[a] == 100_000 + 618
    assert report.final_wealth[b] == 100_000 - 618
    assert all(report.checks.values())


def test_defaulting_agent_terminates_for_insufficient_prefund():
    scenario = make_scenario(market__drift="0.5", agents__policy_b="defaulting:1")
    artifacts = run_simulation(scenario)
    report = artifacts.report
    assert report.termination_cause == "INSUFFICIENT_PREFUND"
    assert report.terminated_at == 10 + 3 + 1  # cycle-1 margin check tick
    survivor, defaulter = sorted(report.final_wealth)
    assert report.final_wealth[survivor] == 100_000 + 202 + 200   # settlement + fee
    assert report.final_wealth[defaulter] == 100_000 - 202 - 200
    assert all(report.checks.values())


def test_settlement_past_buffer_fails_the_run():
    scenario = make_scenario(market__drift="0.5", contract__margin_a="150",
                             contract__margin_b="150")
    artifacts = run_simulation(scenario)
    report = artifacts.report
    assert report.termination_cause == "SETTLEMENT_FAILED"
    assert report.cycles[-1].result == "FAILED"
    assert report.cycles[-1].amount == 150  # partial: the whole bucket
    assert all(report.checks.values())


def test_willful_agent_is_worse_off_than_its_compliant_twin():
    # Fee sized above the total adverse drift over the whole contract, margins
    # above any single move, so walking away can never beat complying.
    base = dict(market__drift="1.2", market__volatility="0.05",
                contract__margin_a="1000", contract__margin_b="1000",
                contract__fee_b="2000", contract__fee_a="2000",
                agents__funding_a="100000", agents__funding_b="100000",
                run__seed="11")
    willful = run_simulation(make_scenario(agents__policy_b="willful:1", **base))
    compliant = run_simulation(make_scenario(**base))
    assert willful.report.termination_cause == "INSUFFICIENT_PREFUND"
    assert compliant.report.termination_cause == "MATURED"
    b_willful = next(v for k, v in willful.report.final_wealth.items() if "bank2" in k)
    b_compliant = next(v for k, v in compliant.report.final_wealth.items() if "bank2" in k)
    assert b_willful < b_compliant


def test_precondition_failure_is_reported_not_raised():
    scenario = make_scenario(agents__funding_b="599")
    report = run_simulation(scenario).report
    assert report.termination_cause == "PRECONDITION_FAILED"
    assert report.cycles == []


def test_missing_grid_snapshot_suspends_in_error(tmp_path):
    # path file that stops before the last settlement tick
    model = MarketModel(100.0, 0.0, 0.0, 0.0, 0.004)
    write_path_csv(generate_path(model, 1, 25), tmp_path / "short.csv")
    scenario = make_scenario(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        market__path_file=str(tmp_path / "short.csv"))
    report = run_simulation(scenario).report
    assert report.termination_cause == "ERROR"
    assert all(report.checks.values())


def test_swap_run_on_rate_path(tmp_path):
    path = [MarketSnapshot(as_of=k, spot=100.0, zero_rate=0.02 + 0.0005 * k)
            for k in range(21)]
    write_path_csv(path, tmp_path / "rates.csv")
    scenario = make_scenario(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        contract__product="vanilla_swap", contract__strike="0.03",
        contract__notional="1000000", contract__payment_times="0.5,1.0",
        contract__accruals="0.5,0.5", contract__settlement_times="0,10,20",
        contract__margin_a="5000", contract__margin_b="5000",
        market__tick_years="0.05", market__path_file=str(tmp_path / "rates.csv"))
    report = run_simulation(scenario).report
    assert report.termination_cause == "MATURED"
    assert report.cycles[0].amount > 0  # rates moved, so value moved
    assert all(report.checks.values())


def test_same_seed_means_same_journal_and_report():
    scenario = make_scenario(market__volatility="0.3", run__seed="123")
    first = run_simulation(scenario)
    second = run_simulation(scenario)
    assert first.report.journal_hash == second.report.journal_hash
    assert render_report_text(first.report) == render_report_text(second.report)
    assert render_report_csv(first.report) == render_report_csv(second.report)
    different = run_simulation(make_scenario(market__volatility="0.3", run__seed="124"))
    assert different.report.journal_hash != first.report.journal_hash


@pytest.mark.parametrize("seed", range(3))
def test_willful_agent_acts_alike_in_every_mode(seed):
    reports = [run_simulation(make_scenario(
        market__drift="1.2", market__volatility="0.05", contract__margin_a="1000",
        contract__margin_b="1000", contract__fee_a="2000", contract__fee_b="2000",
        agents__policy_b="willful:1", run__seed=str(seed), run__mode=mode.value)).report
        for mode in Mode]
    assert len({r.journal_hash for r in reports}) == 1
    assert {r.termination_cause for r in reports} == {"INSUFFICIENT_PREFUND"}


@pytest.mark.parametrize("mode", ["active", "passive", "driver"])
def test_every_mode_reconciles(mode):
    scenario = make_scenario(market__volatility="0.2", run__mode=mode)
    report = run_simulation(scenario).report
    assert all(report.checks.values())


def test_reconciliation_check_detects_mismatches():
    from dataclasses import replace as dc_replace
    from sdcsim.simulator import _reconcile_settlements
    artifacts = run_simulation(make_scenario(market__volatility="0.3"))
    rows = artifacts.engine.cycle_log
    cid = "SDC-1"
    assert _reconcile_settlements(artifacts.journal, cid, rows)
    assert not _reconcile_settlements(artifacts.journal, cid, rows[:-1])
    doctored = rows[:-1] + [dc_replace(rows[-1], amount=rows[-1].amount + 1)]
    assert not _reconcile_settlements(artifacts.journal, cid, doctored)


def test_inception_does_not_have_to_sit_on_tick_zero():
    hashes = set()
    for mode in ("active", "passive", "driver"):
        report = run_simulation(make_scenario(
            contract__settlement_times="5,15,25,35", market__volatility="0.2",
            contract__margin_a="3000", contract__margin_b="3000",
            run__mode=mode)).report
        assert report.termination_cause == "MATURED"
        assert all(report.checks.values())
        hashes.add(report.journal_hash)
    assert len(hashes) == 1


# -- buffer calibration --

def test_calibration_floor_on_still_market():
    assert calibrate_buffer(make_scenario(), q=0.95, trials=500) == 1


def test_calibration_q1_is_the_sample_maximum():
    scenario = make_scenario(market__volatility="0.4")
    samples = one_period_samples(scenario, 500)
    assert calibrate_buffer(scenario, q=1.0, trials=500) == margin_buffer(samples, 1.0)
    assert calibrate_buffer(scenario, 1.0, 500) == math.ceil(max(abs(s) for s in samples))


def test_calibration_is_seed_deterministic():
    scenario = make_scenario(market__volatility="0.4")
    assert calibrate_buffer(scenario, 0.99, 2000) == calibrate_buffer(scenario, 0.99, 2000)


def test_calibration_needs_a_market_model(tmp_path):
    model = MarketModel(100.0, 0.0, 0.0, 0.0, 0.004)
    write_path_csv(generate_path(model, 1, 31), tmp_path / "p.csv")
    scenario = make_scenario(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        market__path_file=str(tmp_path / "p.csv"))
    with pytest.raises(ScenarioValidationError):
        calibrate_buffer(scenario, 0.99, 100)


# -- reports --

def test_report_files_are_deterministic(tmp_path):
    report = run_simulation(make_scenario(market__volatility="0.25")).report
    write_report(report, tmp_path / "a.txt", fmt="text")
    write_report(report, tmp_path / "b.txt", fmt="text")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_csv_report_has_one_row_per_cycle(tmp_path):
    report = run_simulation(make_scenario()).report
    write_report(report, tmp_path / "r.csv", fmt="csv")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert len(lines) == len(report.cycles) + 1


def test_text_report_names_the_termination_cause(tmp_path):
    report = run_simulation(make_scenario()).report
    write_report(report, tmp_path / "r.txt", fmt="text")
    assert "termination_cause: MATURED" in (tmp_path / "r.txt").read_text()


@pytest.mark.parametrize("writer", ["journal", "ledger", "report"])
def test_failed_rename_keeps_the_old_file_and_leaves_no_temp_file(writer, tmp_path, monkeypatch):
    artifacts = run_simulation(make_scenario())
    write = {"journal": artifacts.journal.export,
             "ledger": artifacts.ledger.export_csv,
             "report": lambda path: write_report(artifacts.report, path)}[writer]
    target = tmp_path / "artifact.out"
    target.write_bytes(b"previous run")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(target)
    assert target.read_bytes() == b"previous run"
    assert list(tmp_path.glob("*.tmp")) == []
