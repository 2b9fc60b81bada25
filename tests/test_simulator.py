from __future__ import annotations

import gc
import math
import os
import weakref
from dataclasses import replace as dc_replace
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdcsim import (
    EventKind,
    Forward,
    Journal,
    MarketModel,
    MarketPath,
    MarketSnapshot,
    Mode,
    VanillaSwap,
    load_path_csv,
    load_scenario,
    margin_buffer,
    parse_scenario,
    register_pricer,
    run_simulation,
    write_path_csv,
    write_report,
)
from sdcsim import simulator, valuation
from sdcsim.errors import MissingSnapshot, ScenarioParseError, ScenarioValidationError, SdcError
from sdcsim.scheduler import Engine, ScriptStep
from sdcsim.valuation import PRICER_FLAT_CURVE_V1, MarginOracle, get_pricer
from sdcsim.simulator import (
    VARIATE_CHUNK,
    WillfulAgent,
    _settlement_rows,
    calibrate_buffer,
    generate_path,
    inv_normal_cdf,
    normal_variates,
    one_period_samples,
    render_report_csv,
    render_report_text,
)

from conftest import COUNTING_PRICER, make_contract
from support import (
    open_intervals_respected,
    path_of,
    path_rows,
    reference_normal_variates,
    reference_one_period_samples,
    reference_path_rows,
    reference_path_spots,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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

@pytest.mark.parametrize("field,message", [
    ("initial_spot", "initial_spot must be positive"),
    ("volatility", "volatility must be non-negative"),
    ("tick_years", "tick_years must be positive"),
])
def test_nan_fails_the_market_model_checks(field, message):
    terms = dict(initial_spot=100.0, initial_rate=0.01, volatility=0.2, drift=0.0,
                 tick_years=0.004)
    with pytest.raises(ValueError, match=f"^{message}$"):
        MarketModel(**{**terms, field: math.nan})


def test_zero_volatility_path_is_constant():
    model = MarketModel(100.0, 0.01, 0.0, 0.0, 0.004)
    path = path_rows(generate_path(model, seed=7, ticks=50))
    assert len(path) == 50
    assert all(s.spot == 100.0 for s in path)
    assert [s.as_of for s in path] == list(range(50))


def test_same_seed_reproduces_the_path():
    model = MarketModel(100.0, 0.01, 0.25, 0.05, 0.004)
    assert path_rows(generate_path(model, 99, 200)) == path_rows(generate_path(model, 99, 200))
    other = path_rows(generate_path(model, 100, 200))
    assert other != path_rows(generate_path(model, 99, 200))


def test_log_return_mean_matches_model_drift():
    # statistical oracle: sample mean of log-returns over 100k steps lies
    # within 4 standard errors of (mu - sigma^2/2) * dt
    model = MarketModel(100.0, 0.0, 0.2, 0.07, 0.004)
    n = 100_000
    spots = generate_path(model, seed=2024, ticks=n + 1).spots
    logs = [math.log(b / a) for a, b in zip(spots, spots[1:])]
    mean = sum(logs) / n
    expected = (model.drift - 0.5 * model.volatility ** 2) * model.tick_years
    stderr = model.volatility * math.sqrt(model.tick_years) / math.sqrt(n)
    assert abs(mean - expected) < 4 * stderr


@pytest.mark.parametrize("model", [
    MarketModel(100.0, 0.01, 0.2, 0.0, 0.0001),
    MarketModel(37.5, 0.03, 0.9, 0.4, 0.004),
    MarketModel(1e-3, 0.0, 3.0, -2.0, 0.01),
], ids=["grid_forward", "volatile", "tiny_spot"])
@pytest.mark.parametrize("stream", [0, 2])
def test_path_spots_equal_the_sequential_loop(model, stream):
    path = path_rows(generate_path(model, seed=31, ticks=2001, stream=stream))
    assert all(type(s) is MarketSnapshot for s in path)
    assert [s.as_of for s in path] == list(range(2001))
    assert {s.zero_rate for s in path} == {model.initial_rate}
    assert _same_bits([s.spot for s in path], reference_path_spots(model, 31, stream, 2001))


def test_normal_variates_are_stream_separated():
    assert normal_variates(1, 0, 5).tolist() != normal_variates(1, 1, 5).tolist()
    assert normal_variates(1, 0, 5).tolist() == normal_variates(1, 0, 5).tolist()


def _same_bits(got: list[float], want: list[float]) -> bool:
    """Equal as floats and in every sign bit (so 0.0 and -0.0 differ)."""
    return got == want and [math.copysign(1.0, x) for x in got] \
        == [math.copysign(1.0, x) for x in want]


@pytest.mark.parametrize("count", [0, 1, VARIATE_CHUNK - 1, VARIATE_CHUNK, VARIATE_CHUNK + 1,
                                   3 * VARIATE_CHUNK + 7])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**63), stream=st.integers(0, 3))
def test_normal_variates_are_bit_identical_to_one_inv_cdf_call_per_draw(count, seed, stream):
    got = normal_variates(seed, stream, count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert _same_bits(got.tolist(), reference_normal_variates(seed, stream, count))


def _around(p: float) -> list[float]:
    return [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]


def test_inv_normal_cdf_is_bit_identical_to_normal_dist_on_branch_edges():
    tail_split = math.exp(-25.0)   # sqrt(-log(p)) crosses 5 here
    crafted = [*_around(0.5), *_around(0.075), *_around(0.925),
               *_around(tail_split), *_around(1.0 - tail_split),
               *_around(0.5 - 0.425), *_around(0.5 + 0.425),
               0.5 / 2**53, 1.5 / 2**53, 1.0 - 2**-53, 1.0 - 2**-52, 1e-300, 5e-324]
    # a p on either side of the split, so both far-tail fits are reached
    assert min(crafted) < tail_split < max(p for p in crafted if p < 0.5)
    uniform = np.random.default_rng(7).random(20_000)
    ps = crafted + [p for p in uniform.tolist() if p > 0.0]
    inv_cdf = NormalDist().inv_cdf
    # also no p at all, no tail p, and only tail p: the tail write at zero and at full length
    centre = [p for p in ps if abs(p - 0.5) <= 0.425]
    tails = [p for p in ps if abs(p - 0.5) > 0.425]
    for batch in (ps, [], centre, tails):
        assert _same_bits(inv_normal_cdf(np.array(batch, np.float64)).tolist(),
                          [inv_cdf(p) for p in batch])


CALIBRATED_MARKET = dict(market__volatility="0.3", market__drift="0.15",
                         market__initial_rate="0.03", contract__settlement_times="5,22,30,40",
                         run__seed="11")
CALIBRATED_PRODUCTS = {
    "forward": dict(contract__strike="95.0"),
    # the swap prices on the rate alone, which calibration holds flat: it is refused
    "vanilla_swap": dict(contract__product="vanilla_swap", contract__strike="0.03",
                         contract__notional="1000000", contract__payment_times="0.5,1.0",
                         contract__accruals="0.5,0.5", market__tick_years="0.025"),
}


def test_one_period_samples_equal_the_trial_by_trial_loop():
    # 17 ticks per period: numpy's pairwise summation would round differently
    for name, product in CALIBRATED_PRODUCTS.items():
        scenario = make_scenario(**CALIBRATED_MARKET, **product)
        for stream in (1, 2):
            if name == "vanilla_swap":
                with pytest.raises(ScenarioValidationError, match="^product: "):
                    one_period_samples(scenario, 3000, stream=stream)
                continue
            assert _same_bits(one_period_samples(scenario, 3000, stream=stream),
                              reference_one_period_samples(scenario, 3000, stream))


@pytest.mark.parametrize("product", list(CALIBRATED_PRODUCTS))
def test_one_period_samples_check_only_the_start_snapshot(product, monkeypatch):
    # the two extreme trials bound every spot, so the trial snapshots skip
    # MarketSnapshot's positive-spot check
    scenario = make_scenario(**CALIBRATED_MARKET, **CALIBRATED_PRODUCTS[product])
    checked = []
    construct = MarketSnapshot.__new__

    def counting(cls, *args):
        checked.append(args)
        return construct(cls, *args)

    monkeypatch.setattr(MarketSnapshot, "__new__", counting)
    if product == "vanilla_swap":  # refused once the start snapshot is priced
        with pytest.raises(ScenarioValidationError, match="^product: "):
            one_period_samples(scenario, 3000)
    else:
        assert len(one_period_samples(scenario, 3000)) == 3000
    model = scenario.market
    assert checked == [(scenario.contract.settlement_times[0], model.initial_spot,
                        model.initial_rate)]


def test_the_one_pass_forward_equals_the_per_trial_loop():
    terms = st.floats(-1e4, 1e4) | st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=60, deadline=None)
    @given(notional=terms, strike=terms, spot=st.floats(1e-3, 1e4) | st.floats(1e-300, 1e300),
           rate=st.just(0.0) | st.floats(-0.5, 0.5) | st.floats(-1e6, 1e6),
           volatility=st.floats(0.0, 2.0), drift=st.floats(-2.0, 2.0),
           tick_years=st.floats(1e-4, 0.1), start=st.integers(0, 5), gap=st.integers(1, 17),
           after=st.integers(0, 20), trials=st.integers(1, 200), seed=st.integers(0, 2**31))
    def check(notional, strike, spot, rate, volatility, drift, tick_years, start, gap, after,
              trials, seed):
        # only these terms reach calibration; a bare namespace lets the first period be
        # one tick long, which no prefund window fits
        contract = SimpleNamespace(
            settlement_times=(start, start + gap), tick_years=tick_years,
            pricer_version=PRICER_FLAT_CURVE_V1,
            product=Forward(notional, strike, (start + gap + after) * tick_years))
        scenario = dc_replace(make_scenario(), seed=seed, contract=contract,
                              market=MarketModel(spot, rate, volatility, drift, tick_years))
        try:
            samples = one_period_samples(scenario, trials)
        except ScenarioValidationError as exc:  # out of the float range: nothing to compare
            assert exc.field == "market"
            return
        assert _same_bits(samples, reference_one_period_samples(
            scenario, trials, simulator.CALIBRATION_STREAM))

    check()


def test_a_wrapped_built_in_pricer_prices_every_trial_in_one_call(monkeypatch):
    # a tracer re-registers the built-in version with a wrapper of `price`
    scenario = make_scenario(**CALIBRATED_MARKET, **CALIBRATED_PRODUCTS["forward"])
    unwrapped = one_period_samples(scenario, 3000)
    spots = []
    monkeypatch.setattr(valuation, "_PRICERS", dict(valuation._PRICERS))
    register_pricer(PRICER_FLAT_CURVE_V1,
                    lambda *args: spots.append(args[2].spot) or valuation.price(*args))
    assert _same_bits(one_period_samples(scenario, 3000), unwrapped)
    column, start = spots  # the end snapshot's spots, then the start snapshot's one spot
    assert type(start) is float and start == scenario.market.initial_spot
    assert isinstance(column, np.ndarray) and column.dtype == np.float64
    assert column.shape == (3000,)


@pytest.mark.parametrize("pricer", [
    lambda product, t, snapshot: product.notional * math.log(snapshot.spot),
    lambda product, t, snapshot: product.notional * float(np.mean(snapshot.spot)),
], ids=["scalar_only", "one_value_per_column"])
def test_a_pricer_that_is_not_element_wise_is_refused(pricer, monkeypatch):
    monkeypatch.setattr(valuation, "_PRICERS", dict(valuation._PRICERS))
    register_pricer("scalar-v1", pricer)
    scenario = make_scenario(**CALIBRATED_MARKET, **CALIBRATED_PRODUCTS["forward"],
                             contract__pricer="scalar-v1")
    with pytest.raises(ScenarioValidationError) as refused:
        one_period_samples(scenario, 3000)
    assert str(refused.value) == ("pricer: 'scalar-v1' does not price a column of spots "
                                  "element by element")


def test_path_csv_round_trip(tmp_path):
    model = MarketModel(100.0, 0.02, 0.3, 0.0, 0.004)
    path = generate_path(model, 5, 30)
    file = tmp_path / "path.csv"
    write_path_csv(path, file)
    path, loaded = path_rows(path), path_rows(load_path_csv(file))
    assert loaded == path
    # `==` compares plain tuples; `_replace` and field access need the exact type
    assert {type(snap) for snap in [*path, *loaded]} == {MarketSnapshot}


def test_a_path_writes_the_bytes_of_its_rows(tmp_path):
    path = generate_path(MarketModel(100.0, 0.02, 0.3, 0.0, 0.004), 5, 30)
    write_path_csv(path, tmp_path / "columns.csv")
    rows = "".join(f"{s.as_of},{s.spot!r},{s.zero_rate!r}\n" for s in path_rows(path))
    assert (tmp_path / "columns.csv").read_text() == "time,spot,zero_rate\n" + rows
    assert type(path) is type(load_path_csv(tmp_path / "columns.csv")) is MarketPath


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


_CSV_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "-0.0",
                     "", " 7 ", "1_0", "0x10", "1e-400"]),
    st.text(max_size=6),
)
# a row is (tick step, spot, rate) or a free line of text
_CSV_ROW = st.one_of(st.tuples(st.integers(-1, 2), _CSV_NUMBER, _CSV_NUMBER),
                     st.text(max_size=12))


def _csv_text(rows) -> str:
    tick, lines = 0, ["time,spot,zero_rate"]
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
            continue
        step, spot, rate = row
        tick += step
        lines.append(f"{tick},{spot},{rate}")
    return "\n".join(lines)


_CSV_TEXT = st.one_of(st.text(), st.lists(_CSV_ROW, max_size=8).map(_csv_text))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_CSV_TEXT)
def test_path_csv_yields_finite_snapshots_or_an_sdc_error(tmp_path, text):
    file = tmp_path / "path.csv"
    file.write_text(text, encoding="utf-8")
    try:
        snapshots = path_rows(load_path_csv(file))
    except SdcError:
        return
    for snap in snapshots:
        assert math.isfinite(snap.spot) and snap.spot > 0
        assert math.isfinite(snap.zero_rate)
    assert [s.as_of for s in snapshots] == sorted({s.as_of for s in snapshots})


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_CSV_ROW, max_size=8), blank=st.sampled_from(["", "  "]))
def test_path_csv_reads_as_a_row_by_row_reader_does(tmp_path, rows, blank):
    """Columns converted at once give the rows, or the error text and line,
    that checking row by row gives."""
    text = _csv_text(rows).replace("\n", f"\n{blank}\n", 1)  # a blank line, counted
    file = tmp_path / "path.csv"
    file.write_text(text, encoding="utf-8")
    expected = reference_path_rows(text)
    try:
        snapshots = path_rows(load_path_csv(file))
        assert [tuple(snap) for snap in snapshots] == expected
        assert all(type(snap) is MarketSnapshot for snap in snapshots)
    except ScenarioParseError as exc:
        assert (exc.reason, exc.line) == expected


def test_a_finished_run_is_freed_without_the_cycle_collector():
    """No reference cycle holds a run's engine, contract, journal or ledger, so
    each run's memory goes with its artifacts, not at some later collection."""
    artifacts = run_simulation(load_scenario(SCENARIOS / "volatile_forward.ini"))
    held = [weakref.ref(part) for part in (artifacts.engine, artifacts.engine.contract,
                                           artifacts.journal, artifacts.ledger)]
    gc.disable()
    try:
        del artifacts
        assert [ref() for ref in held] == [None] * len(held)
    finally:
        gc.enable()


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
    write_path_csv(path_of(path), tmp_path / "rates.csv")
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


def test_willful_agents_and_oracle_price_each_snapshot_once_per_cycle(counting_pricer, tmp_path):
    # Both agents project on every open-window tick and the oracle prices
    # each period, all against the same period end: one evaluation per
    # window tick plus one for the period-end snapshot. Without the oracle's
    # value memo this is 4 * window + 2 per cycle.
    window, cycles = 4, 4
    path = [MarketSnapshot(as_of=k, spot=100.0, zero_rate=0.02 + 0.0005 * (k % 7))
            for k in range(10 * cycles + 1)]
    write_path_csv(path_of(path), tmp_path / "rates.csv")
    scenario = make_scenario(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        contract__product="vanilla_swap", contract__strike="0.02",
        contract__notional="1000000", contract__payment_times="0.5,1.0",
        contract__accruals="0.5,0.5", contract__settlement_times="0,10,20,30,40",
        contract__margin_a="50000", contract__margin_b="50000",
        contract__prefund_window=str(window), contract__pricer=COUNTING_PRICER,
        agents__policy_a="willful:1000000000", agents__policy_b="willful:1000000000",
        agents__funding_a="1000000", agents__funding_b="1000000",
        market__tick_years="0.025", market__path_file=str(tmp_path / "rates.csv"))
    report = run_simulation(scenario).report
    assert report.termination_cause == "MATURED"
    assert len(report.cycles) == cycles
    assert 0 < len(counting_pricer) <= (window + 1) * cycles


def test_the_oracle_reads_each_settled_period_from_the_path_once_per_end(monkeypatch):
    """A period's start and end snapshots are each built once and priced as built, so a run
    whose agents never project reads its path twice per settled period."""
    reads = []
    at = MarketPath.at
    monkeypatch.setattr(MarketPath, "at", lambda path, tick: reads.append(tick) or at(path, tick))
    cycles = run_simulation(load_scenario(SCENARIOS / "volatile_forward.ini")).report.cycles
    assert len(cycles) == 10
    assert reads == [tick for row in cycles for tick in (row.period_start, row.settle_tick)]


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


def _engine_at_inception(missing_tick=None):
    """`make_contract`'s forward, initialized at tick 0 with no margin posted yet (400 due),
    priced by a `MarginOracle` on a flat path that lacks `missing_tick`; and party B."""
    contract, *_ = make_contract()
    spec = contract.spec
    path = generate_path(MarketModel(100.0, 0.0, 0.0, 0.0, spec.tick_years), 1,
                         spec.settlement_times[-1] + 1)
    oracle = MarginOracle(path_of(s for s in path_rows(path) if s.as_of != missing_tick),
                          spec.product, spec.pricer_version, spec.tick_years)
    engine = Engine(contract, oracle)
    assert engine._initialize()
    return engine, spec.party_b


def _volatile_oracles(drop=None):
    """Two oracles for `volatile_forward.ini`, one over its generated path's columns and one
    over a path built from its rows, each without the tick `drop`; and the contract's
    settlement grid."""
    scenario = load_scenario(SCENARIOS / "volatile_forward.ini")
    spec = scenario.contract
    path = generate_path(scenario.market, scenario.seed, ticks=spec.settlement_times[-1] + 1)
    keep = [i for i, tick in enumerate(path.ticks) if tick != drop]
    columns = MarketPath(*([column[i] for i in keep] for column in
                           (path.ticks, path.spots, path.rates)))
    rows = path_of(row for row in path_rows(path) if row.as_of != drop)
    return [MarginOracle(p, spec.product, spec.pricer_version, spec.tick_years)
            for p in (columns, rows)], spec.settlement_times


def test_an_oracle_over_rows_equals_one_over_columns():
    (by_columns, by_rows), grid = _volatile_oracles()
    for start, end in zip(grid, grid[1:]):
        for oracle in (by_columns, by_rows):
            assert oracle.cached(start, end) is None
        for as_of in range(start, end + 1):
            assert by_rows.value(end, as_of) == by_columns.value(end, as_of)
        amount = by_columns.query(start, end)
        assert by_rows.query(start, end) == amount
        assert by_columns.cached(start, end) == by_rows.cached(start, end) == amount


def test_an_oracle_over_rows_or_columns_misses_the_same_settlement_tick():
    grid_tick = 20
    (by_columns, by_rows), grid = _volatile_oracles(drop=grid_tick)
    assert grid_tick in grid
    for start, end in zip(grid, grid[1:]):
        refusals = []
        for oracle in (by_columns, by_rows):
            try:
                refusals.append(oracle.query(start, end))
            except MissingSnapshot as exc:
                refusals.append(str(exc))
        assert refusals[0] == refusals[1]
        if grid_tick in (start, end):
            assert refusals[0] == f"no market snapshot stored for tick {grid_tick}"


def test_run_simulation_reads_its_path_through_the_path_layer(tmp_path, monkeypatch):
    """The bench times the path layer by wrapping `generate_path` and `load_path_csv`
    on the module: a run that stopped calling them by those names would read 0 there."""
    calls = []
    for name in ("generate_path", "load_path_csv"):
        def counting(*args, _name=name, _call=getattr(simulator, name), **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(simulator, name, counting)
    run_simulation(make_scenario())
    assert calls == ["generate_path"]
    write_path_csv(generate_path(MarketModel(100.0, 0.0, 0.0, 0.0, 0.004), 1, 31),
                   tmp_path / "p.csv")
    calls.clear()
    run_simulation(make_scenario(drop=("market.initial_spot", "market.initial_rate",
                                       "market.volatility", "market.drift"),
                                 market__path_file=str(tmp_path / "p.csv")))
    assert calls == ["load_path_csv"]


def test_the_willful_exposure_rule():
    # a projection is always compared, even a favourable one: 0.0 > -1 triggers, 0.0 > 0 does not
    for threshold, triggers, posted in ((-1, True, 0), (0, False, 400)):
        engine, b = _engine_at_inception()
        agent = WillfulAgent(threshold)
        agent.on_tick(engine, b)
        assert (agent.triggered, engine.contract.margin_bucket(b)) == (triggers, posted)

    # no snapshot for the window tick: no projection, so no trigger test, but the top-up runs
    engine, b = _engine_at_inception(missing_tick=2)
    engine.clock.advance_to(2)
    with pytest.raises(MissingSnapshot):
        engine.oracle.value(10, 2)
    agent = WillfulAgent(-1)
    agent.on_tick(engine, b)
    assert (agent.triggered, engine.contract.margin_bucket(b)) == (False, 400)

    # past the last cycle there is no period to project: the oracle is not asked
    engine, b = _engine_at_inception()
    engine.contract.cycle = engine.spec.cycles
    asked = []
    engine.oracle.value = lambda *args: asked.append(args)
    agent = WillfulAgent(-1)
    agent.on_tick(engine, b)
    assert (agent.triggered, engine.contract.margin_bucket(b), asked) == (False, 400, [])


@pytest.mark.parametrize("mode", ["active", "passive", "driver"])
def test_every_mode_reconciles(mode):
    scenario = make_scenario(market__volatility="0.2", run__mode=mode)
    report = run_simulation(scenario).report
    assert all(report.checks.values())


def _rechained(journal, tamper):
    """A copy of `journal` with each record replaced by `tamper(record)`
    (dropped if that is None, appended raw if it is bytes), re-chained block
    by block so that `verify` alone passes it."""
    copy = Journal()
    for record in map(tamper, journal.records()):
        if record is not None:
            copy.append(record if isinstance(record, bytes) else record.to_bytes())
    assert copy.verify()
    return copy


def _with_tampered_settlement(journal, cycle, tamper):
    """A re-chained copy of `journal` whose Settlement of `cycle` is `tamper(record)`."""
    return _rechained(journal, lambda r: tamper(r) if r.kind is EventKind.SETTLEMENT
                      and r.detail("cycle") == str(cycle) else r)


def _with_details(record, **changes):
    return dc_replace(record, details=tuple(sorted({**dict(record.details), **changes}.items())))


SETTLEMENT_TAMPERS = {
    "amount_off_by_one": lambda r: _with_details(r, amount=str(int(r.detail("amount")) + 1)),
    "value_not_the_oracles": lambda r: _with_details(
        r, value=repr(float(r.detail("value")) + 1e-6)),
    "off_its_grid_tick": lambda r: dc_replace(r, timestamp=r.timestamp + 1),
    "swapped_payer": lambda r: _with_details(
        r, payer=r.detail("receiver"), receiver=r.detail("payer")),
    "another_contracts": lambda r: _with_details(r, contract="SDC-2"),
    "amount_with_a_sign": lambda r: _with_details(r, amount="+" + r.detail("amount")),
    "another_actor": lambda r: dc_replace(r, actor=r.detail("payer")),
    "matured_early": lambda r: _with_details(r, outcome="matured"),
}


def test_reconciliation_check_detects_mismatches():
    artifacts = run_simulation(make_scenario(market__volatility="0.3"))
    engine = artifacts.engine
    rows, reconciled = _settlement_rows(artifacts.journal, engine.spec, engine.oracle)
    assert reconciled and artifacts.report.checks["settlements_reconciled"]
    assert rows == artifacts.report.cycles
    # a full settlement that moved money, so every tamper is a real change
    assert rows[0].result == "SETTLED" and rows[0].amount > 0
    copy = _with_tampered_settlement(artifacts.journal, 0, lambda r: r)
    assert _settlement_rows(copy, engine.spec, engine.oracle) == (rows, True)
    for name, tamper in SETTLEMENT_TAMPERS.items():
        tampered = _with_tampered_settlement(artifacts.journal, 0, tamper)
        assert not _settlement_rows(tampered, engine.spec, engine.oracle)[1], name
    # the Settlement must carry the value its period's Valuation record carries
    first = artifacts.journal.records(EventKind.VALUATION)[0]
    raised = _rechained(artifacts.journal, lambda r: _with_details(
        r, value=repr(float(r.detail("value")) + 1000)) if r == first else r)
    unvalued = _rechained(artifacts.journal,
                          lambda r: None if r.kind is EventKind.VALUATION else r)
    assert (len(artifacts.journal), len(unvalued)) == (27, 25)
    repriced = _rechained(artifacts.journal, lambda r: _with_details(
        r, pricer="other-v1") if r == first else r)
    by_another = _rechained(artifacts.journal, lambda r: dc_replace(
        r, actor=rows[0].payer) if r == first else r)
    for tampered in (raised, unvalued, repriced, by_another):
        assert not _settlement_rows(tampered, engine.spec, engine.oracle)[1]
    # rows stop at the first record that is not what its writer wrote
    volatile = run_simulation(load_scenario(SCENARIOS / "volatile_forward.ini"))
    assert volatile.report.termination_cause == "MATURED"
    k = 4
    assert volatile.report.cycles[k].result == "SETTLED" and volatile.report.cycles[k].amount > 0
    spec, oracle = volatile.engine.spec, volatile.engine.oracle
    for name, tamper in SETTLEMENT_TAMPERS.items():
        tampered = _with_tampered_settlement(volatile.journal, k, tamper)
        assert _settlement_rows(tampered, spec, oracle) == (volatile.report.cycles[:k], False), name
    kth = volatile.journal.records(EventKind.VALUATION)[k]
    raised = _rechained(volatile.journal, lambda r: _with_details(
        r, value=repr(float(r.detail("value")) + 1000)) if r == kth else r)
    assert _settlement_rows(raised, spec, oracle) == (volatile.report.cycles[:k], False)
    # a valued period must have settled: cut a run's last Settlement, whether
    # it failed (this run) or matured (the bundled volatile forward); the
    # journaled Valuation alone tells, even if the oracle forgot the period
    for run in (artifacts, volatile):
        assert all(run.report.checks.values())
        last = run.report.cycles[-1]
        cut = _with_tampered_settlement(run.journal, last.cycle, lambda r: None)
        assert len(cut) == len(run.journal) - 1
        assert not _settlement_rows(cut, run.engine.spec, run.engine.oracle)[1]
        forgetful = ForgetfulOracle(run.engine.oracle, last.period_start)
        assert not _settlement_rows(cut, run.engine.spec, forgetful)[1]


def _without(record, key):
    return dc_replace(record, details=tuple((k, v) for k, v in record.details if k != key))


# Settlements whose keys or numbers do not fit the Settlement shape
OFF_SHAPE_SETTLEMENTS = {
    "without_outcome": lambda r: _without(r, "outcome"),
    "with_an_extra_key": lambda r: _with_details(r, note="x"),
    "non_numeric_cycle": lambda r: _with_details(r, cycle="zero"),
    "non_numeric_amount": lambda r: _with_details(r, amount="0.0"),
    "non_numeric_value": lambda r: _with_details(r, value="zero"),
    "infinite_value": lambda r: _with_details(r, value="inf"),
    "nan_value": lambda r: _with_details(r, value="nan"),
    "truncated_by_one_byte": lambda r: r.to_bytes()[:-1],  # does not decode at all
}


@pytest.mark.parametrize("name", sorted(OFF_SHAPE_SETTLEMENTS))
def test_an_off_shape_settlement_fails_reconciliation_without_raising(name):
    run = run_simulation(load_scenario(SCENARIOS / "flat_forward.ini"))
    assert all(run.report.checks.values())
    tampered = _with_tampered_settlement(run.journal, 0, OFF_SHAPE_SETTLEMENTS[name])
    assert tampered.verify() and len(tampered) == len(run.journal)
    assert _settlement_rows(tampered, run.engine.spec, run.engine.oracle) == ([], False)


@pytest.mark.parametrize("tamper", [lambda r: _without(r, "pricer"),
                                    lambda r: _with_details(r, note="x"),
                                    lambda r: _with_details(r, period_end="ten")])
def test_an_off_shape_valuation_fails_reconciliation(tamper):
    run = run_simulation(load_scenario(SCENARIOS / "flat_forward.ini"))
    first = run.journal.records(EventKind.VALUATION)[0]
    tampered = _rechained(run.journal, lambda r: tamper(r) if r == first else r)
    assert not _settlement_rows(tampered, run.engine.spec, run.engine.oracle)[1]


@pytest.mark.parametrize("version", ["flat-curve-ü1", "flat-curve-" + "v" * 130])
def test_a_pricer_version_off_the_ascii_fast_path_reconciles(version, monkeypatch):
    # a non-ASCII or 128-byte pricer version leaves every Valuation to the
    # shapes' UTF-8 fallback, on the way into the journal and back out
    monkeypatch.setattr(valuation, "_PRICERS", dict(valuation._PRICERS))
    register_pricer(version, get_pricer(PRICER_FLAT_CURVE_V1))
    artifacts = run_simulation(make_scenario(market__volatility="0.2", contract__pricer=version,
                                             contract__margin_a="5000", contract__margin_b="5000"))
    assert artifacts.report.termination_cause == "MATURED"
    assert artifacts.report.checks == {"conservation": True, "journal_verified": True,
                                       "settlements_reconciled": True}
    valuations = artifacts.journal.records(EventKind.VALUATION)
    assert len(valuations) == len(artifacts.report.cycles) == 3
    assert {r.detail("pricer") for r in valuations} == {version}


class ForgetfulOracle:
    """An oracle's cache without one period in it."""

    def __init__(self, oracle, period_start):
        self.oracle, self.period_start = oracle, period_start

    def cached(self, period_start, period_end):
        if period_start == self.period_start:
            return None
        return self.oracle.cached(period_start, period_end)


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


@pytest.mark.parametrize("mode", list(Mode))
def test_the_trigger_mode_chooses_who_requests_the_events(mode, monkeypatch):
    requesters, parsed, scripts = [], [], []
    request, parse, run = Engine.request_event, simulator.parse_script, Engine.run
    monkeypatch.setattr(Engine, "request_event", lambda self, party, kind, now: (
        requesters.append(party) or request(self, party, kind, now)))
    monkeypatch.setattr(simulator, "parse_script", lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(Engine, "run",
                        lambda self, script: scripts.append(script) or run(self, script))
    artifacts = run_simulation(make_scenario(run__mode=mode.value))
    engine = artifacts.engine
    expected = {Mode.ACTIVE: engine.oracle_account, Mode.PASSIVE: engine.spec.party_b,
                Mode.DRIVER: engine.spec.party_a}[mode]
    assert artifacts.report.termination_cause == "MATURED"
    assert requesters == [expected] * len(engine.timeline)
    assert len(parsed) == (mode is Mode.DRIVER)
    [script] = scripts
    assert len(script) == len(engine.timeline)
    assert {type(step) for step in script + engine.timeline} == {ScriptStep}


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


def test_calibration_draws_all_its_variates_in_one_call(monkeypatch):
    # the benchmark times calibration's variates through this module global
    scenario = make_scenario(market__volatility="0.4")
    calls = []

    def counting(seed, stream, count):
        calls.append((seed, stream, count))
        return normal_variates(seed, stream, count)

    monkeypatch.setattr(simulator, "normal_variates", counting)
    calibrate_buffer(scenario, 0.99, 700)
    gap = scenario.contract.settlement_times[1] - scenario.contract.settlement_times[0]
    assert calls == [(scenario.seed, simulator.CALIBRATION_STREAM, 700 * gap)]


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


@pytest.mark.parametrize("writer", ["journal", "ledger", "report", "path"])
def test_failed_rename_keeps_the_old_file_and_leaves_no_temp_file(writer, tmp_path, monkeypatch):
    artifacts = run_simulation(make_scenario())
    path = path_of([MarketSnapshot(0, 100.0, 0.01), MarketSnapshot(1, 101.0, 0.01)])
    write = {"journal": artifacts.journal.export,
             "ledger": artifacts.ledger.export_csv,
             "report": lambda target: write_report(artifacts.report, target),
             "path": lambda target: write_path_csv(path, target)}[writer]
    target = tmp_path / "artifact.out"
    target.write_bytes(b"previous run")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(target)
    assert target.read_bytes() == b"previous run"
    assert list(tmp_path.glob("*.tmp")) == []
