from __future__ import annotations

import struct
import warnings

import pytest

from sdcsim import EventKind, EventRecord, MarketModel, generate_path, simulator, write_path_csv
from sdcsim.cli import main

from support import path_of, path_rows, write_chained
from test_simulator import scenario_text


@pytest.fixture
def scenario_file(tmp_path):
    def write(name="scenario.ini", **overrides):
        path = tmp_path / name
        path.write_text(scenario_text(**overrides))
        return str(path)
    return write


def test_validate_accepts_a_good_file(scenario_file, capsys):
    assert main(["validate", scenario_file()]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_missing_section(tmp_path, capsys):
    text = scenario_text()
    text = "\n".join(line for line in text.splitlines()
                     if not (line.startswith("[market]") or line.startswith("tick_years")
                             or line.startswith("initial_") or line.startswith("volatility")
                             or line.startswith("drift")))
    path = tmp_path / "broken.ini"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert "[market]" in capsys.readouterr().err


def test_validate_rejects_missing_path(capsys):
    assert main(["validate", "/no/such/file.ini"]) == 2
    # and so does verify, with one error line
    capsys.readouterr()
    assert main(["verify", "/no/such/journal.bin"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_writes_artifacts_and_exits_zero_on_maturity(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", scenario_file(), "--out", str(out)])
    assert code == 0
    assert (out / "report.txt").exists()
    assert (out / "journal.bin").exists()
    assert (out / "ledger.csv").exists()
    assert "MATURED" in capsys.readouterr().out
    assert main(["verify", str(out / "journal.bin")]) == 0


def test_run_exit_three_on_early_termination(scenario_file, tmp_path):
    path = scenario_file(market__drift="0.5", agents__policy_b="defaulting:1")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--format", "csv"]) == 3
    assert (out / "report.csv").exists()


def test_run_report_names_the_cause(scenario_file, tmp_path):
    path = scenario_file(market__drift="0.5", agents__policy_b="defaulting:1")
    out = tmp_path / "out"
    main(["run", path, "--out", str(out)])
    assert "INSUFFICIENT_PREFUND" in (out / "report.txt").read_text()


def test_run_exit_one_on_engine_error(scenario_file, tmp_path):
    path = scenario_file(agents__funding_b="599")
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    # IO: a path file that does not exist is read only by the run, so nothing is written
    missing = scenario_file(
        name="missing.ini",
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        market__path_file=str(tmp_path / "no_such.csv"))
    assert main(["run", missing, "--out", str(tmp_path / "p")]) == 1
    assert not (tmp_path / "p").exists()
    # IO: the output directory is a regular file
    (tmp_path / "file").write_text("")
    assert main(["run", scenario_file(), "--out", str(tmp_path / "file")]) == 1


def test_seed_override_changes_the_journal(scenario_file, tmp_path):
    path = scenario_file(market__volatility="0.3")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", path, "--out", str(out1)])
    main(["run", path, "--out", str(out2), "--seed", "777"])
    assert (out1 / "journal.bin").read_bytes() != (out2 / "journal.bin").read_bytes()
    # and the scenario file itself is untouched by the override
    assert "seed = 42" in open(path).read()


def test_mode_override_matches_scenario_mode(scenario_file, tmp_path):
    path = scenario_file(market__volatility="0.2")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", path, "--out", str(out1)])
    main(["run", path, "--out", str(out2), "--mode", "driver"])
    assert (out1 / "journal.bin").read_bytes() == (out2 / "journal.bin").read_bytes()


def test_verify_flags_tampered_file(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["run", scenario_file(), "--out", str(out)])
    blob = bytearray((out / "journal.bin").read_bytes())
    blob[len(blob) // 3] ^= 0x04
    (out / "journal.bin").write_bytes(bytes(blob))
    assert main(["verify", str(out / "journal.bin")]) == 2


def test_verify_rejects_rehashed_journal_with_invalid_utf8(tmp_path, capsys):
    # The chain is unkeyed, so anyone can rehash a doctored payload; the
    # chain check passes and decoding the record must then fail cleanly.
    payload = (struct.pack(">Q", 0) + struct.pack(">I", 8) + b"Transfer"
               + struct.pack(">I", 2) + b"\xff\xfe" + struct.pack(">I", 0))
    path = tmp_path / "journal.bin"
    write_chained(path, [payload])
    assert main(["verify", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_verify_names_the_first_bad_block(tmp_path, capsys):
    payloads = [EventRecord.create(i, EventKind.TRANSFER, "a", amount=i).to_bytes()
                for i in range(6)]
    payloads[4] = payloads[4][:-1]
    path = tmp_path / "journal.bin"
    write_chained(path, payloads)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: block 4: truncated string data\n"
    write_chained(path, payloads, break_at=2)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: chain verification failed at block 2\n"


def test_verify_accepts_empty_journal(tmp_path):
    empty = tmp_path / "journal.bin"
    empty.write_bytes(b"")
    assert main(["verify", str(empty)]) == 0


def test_calibrate_prints_the_floor_for_flat_markets(scenario_file, capsys):
    assert main(["calibrate", scenario_file(), "--q", "0.95", "--trials", "200"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_calibrating_a_swap_is_an_input_error(scenario_file, capsys):
    # the market model holds the rate flat, and the swap prices on the rate alone
    path = scenario_file(**SWAP, market__volatility="0.3", market__initial_rate="0.03")
    assert main(["calibrate", path, "--trials", "200"]) == 2
    assert "error: product: buffer calibration holds the rate flat" in capsys.readouterr().err


def test_calibrate_rejects_bad_quantile(scenario_file):
    assert main(["calibrate", scenario_file(), "--q", "1.5"]) == 2
    assert main(["calibrate", scenario_file(), "--q", "0"]) == 2


def test_calibrate_is_reproducible(scenario_file, capsys):
    path = scenario_file(market__volatility="0.4")
    main(["calibrate", path, "--q", "0.99", "--trials", "2000"])
    first = capsys.readouterr().out
    main(["calibrate", path, "--q", "0.99", "--trials", "2000"])
    assert capsys.readouterr().out == first


def test_negative_seed_override_is_usage_error(scenario_file, tmp_path, capsys):
    assert main(["run", scenario_file(), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert main(["calibrate", scenario_file(), "--trials", "200", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"


def test_broken_path_file_is_an_input_error(scenario_file, tmp_path):
    broken = tmp_path / "broken.csv"
    broken.write_text("time,spot,zero_rate\n5,100.0,0.01\n5,100.0,0.01\n")
    path = scenario_file(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        market__path_file=str(broken))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("mode", ["active", "passive", "driver"])
def test_unknown_pricer_is_an_input_error_in_every_mode(scenario_file, tmp_path, capsys, mode):
    path = scenario_file(contract__pricer="no-such-pricer")
    assert main(["validate", path]) == 2
    assert main(["run", path, "--mode", mode, "--out", str(tmp_path / "o")]) == 2
    assert "error: pricer:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["contract_id", "party_a", "party_b"])
@pytest.mark.parametrize("value", ["bank,1", "bank#1", "bank 1", "b\u00e4nk", ""],
                         ids=["comma", "hash", "space", "non_ascii", "empty"])
def test_unsafe_id_is_an_input_error(scenario_file, tmp_path, capsys, field, value):
    # a ',' would add a column to ledger.csv; '#' separates a label from its
    # account number
    path = scenario_file(**{f"contract__{field}": value})
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ids_from_the_safe_alphabet_run(scenario_file, tmp_path):
    path = scenario_file(contract__contract_id="SDC_1.v-2", contract__party_a="Bank.A_1",
                         contract__party_b="bank-2")
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    header, *rows = (tmp_path / "o" / "ledger.csv").read_text().splitlines()
    assert {row.count(",") for row in rows} == {header.count(",")}


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


SWAP = dict(contract__product="vanilla_swap", contract__strike="0.03",
            contract__payment_times="0.5,1.0", contract__accruals="0.5,0.5",
            contract__settlement_times="0,10,20", market__tick_years="0.05")


@pytest.mark.parametrize("overrides,field", [
    ({"market__tick_years": "0"}, "contract"),
    ({**SWAP, "contract__payment_times": "0.2,abc"}, "payment_times"),
    ({"market__volatility": "nan"}, "volatility"),
    ({"contract__notional": "inf"}, "notional"),
], ids=["zero_tick_years", "non_numeric_payment_time", "nan_volatility", "inf_notional"])
def test_bad_scenario_number_is_an_input_error(scenario_file, tmp_path, capsys, overrides, field):
    path = scenario_file(**overrides)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _path_scenario(scenario_file, tmp_path, bad_field=None, bad_value=None, bad_tick=10):
    """The volatile_forward contract on a 101-row path CSV, optionally with one
    non-finite value at `bad_tick`."""
    model = MarketModel(100.0, 0.01, 0.2, 0.0, 0.004)
    rows = path_rows(generate_path(model, seed=2024, ticks=101))  # one row is replaced
    if bad_field is not None:
        rows[bad_tick] = rows[bad_tick]._replace(**{bad_field: float(bad_value)})
    csv = tmp_path / "path.csv"
    write_path_csv(path_of(rows), csv)
    return scenario_file(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        contract__settlement_times=",".join(str(10 * i) for i in range(11)),
        contract__margin_a="3000", contract__margin_b="3000",
        contract__fee_a="500", contract__fee_b="500",
        market__path_file=str(csv))


def test_finite_path_csv_runs(scenario_file, tmp_path):
    assert main(["run", _path_scenario(scenario_file, tmp_path),
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("mode", ["active", "passive", "driver"])
@pytest.mark.parametrize("policy", ["compliant", "willful:1000000000"])
def test_a_maturity_within_the_tolerance_of_the_grid_runs(scenario_file, tmp_path, policy, mode):
    # 3 * 0.1 is 0.30000000000000004, a hair past the 0.3 maturity
    csv = tmp_path / "rates.csv"
    csv.write_text("time,spot,zero_rate\n0,100.0,0.02\n1,100.0,0.021\n"
                   "2,100.0,0.019\n3,100.0,0.025\n")
    path = scenario_file(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        **{**SWAP, "contract__payment_times": "0.3", "contract__accruals": "0.3",
           "contract__settlement_times": "0,3", "contract__prefund_window": "1",
           "market__tick_years": "0.1"},
        market__path_file=str(csv), agents__policy_a=policy)
    assert main(["validate", path]) == 0
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out), "--mode", mode]) == 0
    report = (out / "report.txt").read_text()
    assert "termination_cause: MATURED" in report
    assert "cycle=0 settle_tick=3 f=0.0 transfer=0 " in report


@pytest.mark.parametrize("field,value", [
    ("spot", "nan"), ("spot", "inf"), ("zero_rate", "nan"), ("zero_rate", "inf"),
    ("zero_rate", "-inf"),
], ids=["nan_spot", "inf_spot", "nan_rate", "inf_rate", "minus_inf_rate"])
def test_non_finite_path_csv_value_is_an_input_error(scenario_file, tmp_path, capsys,
                                                     field, value):
    path = _path_scenario(scenario_file, tmp_path, field, value)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    # the header is line 1, so tick 10 is line 12
    assert f"error: line 12: {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["0.0", "-0.0", "-2.5"])
def test_path_csv_spot_that_is_not_positive_is_an_input_error(scenario_file, tmp_path, capsys,
                                                              value):
    csv = tmp_path / "path.csv"
    write_path_csv(generate_path(MarketModel(100.0, 0.01, 0.2, 0.0, 0.004), 2024, 101), csv)
    lines = csv.read_text().splitlines()
    lines[12] = f"11,{value},0.01"  # the header is line 1, so tick 11 is line 13
    csv.write_text("\n".join(lines) + "\n")
    path = scenario_file(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        contract__settlement_times=",".join(str(10 * i) for i in range(11)),
        market__path_file=str(csv))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: line 13: spot must be positive, got {float(value)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides", [
    {"market__volatility": "1e6"},      # the spot underflows to 0.0
    {"market__drift": "1e6"},           # exp() overflows
    {"market__volatility": "1e200"},    # the variance overflows
    # exp() stays finite but the spot does not
    {"market__initial_spot": "1e308", "market__drift": "500"},
    # one tick's log move is finite, a first period's sum of ten is not
    {"market__drift": "1.7e308", "market__tick_years": "1"},
], ids=["huge_volatility", "huge_drift", "overflowing_variance", "overflowing_spot",
        "overflowing_log_move"])
@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_model_that_leaves_the_float_range_is_an_input_error(scenario_file, tmp_path, capsys,
                                                             overrides, command):
    path = scenario_file(**overrides)
    args = ["run", path, "--out", str(tmp_path / "o")] if command == "run" \
        else ["calibrate", path, "--trials", "200"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a numpy RuntimeWarning would be recorded here
        assert main(args) == 2
    assert [str(w.message) for w in caught] == []
    assert "error: market: the model drives the spot out of the float range" \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_utf8_input_files_are_input_errors(scenario_file, tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(scenario_text().encode() + b"; caf\xe9\n")
    assert main(["validate", str(ini)]) == 2
    assert main(["run", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert main(["calibrate", str(ini)]) == 2
    csv = tmp_path / "path.csv"
    csv.write_bytes(b"time,spot,zero_rate\n0,100.0,0.0\xff\n")
    path = scenario_file(
        drop=("market.initial_spot", "market.initial_rate", "market.volatility",
              "market.drift"),
        market__path_file=str(csv))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("is not UTF-8") == 4
    assert not (tmp_path / "o").exists()


PRICER_OUT_OF_RANGE = [
    {"market__initial_rate": "-1e6"},                           # exp() overflows
    {"contract__notional": "1e308", "contract__strike": "1e308"},  # -inf - -inf is NaN
    # df(t, T_j) underflows to 0.0 and the swap's forward rate divides by it
    {"contract__product": "vanilla_swap", "contract__payment_times": "0.06,0.12",
     "contract__accruals": "0.06,0.06", "contract__strike": "0.02",
     "market__initial_rate": "1e6"},
]
PRICER_OUT_OF_RANGE_IDS = ["overflowing_discount", "nan_settlement_value", "zero_discount"]


@pytest.mark.parametrize("policy", ["compliant", "willful:1"])
@pytest.mark.parametrize("overrides", PRICER_OUT_OF_RANGE, ids=PRICER_OUT_OF_RANGE_IDS)
def test_pricer_out_of_range_is_an_oracle_failure_in_run(scenario_file, tmp_path, capsys,
                                                         overrides, policy):
    out = tmp_path / "o"
    assert main(["run", scenario_file(agents__policy_b=policy, **overrides),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert ": ERROR journal=" in captured.out
    report = (out / "report.txt").read_text()
    assert "termination_cause: ERROR" in report and "cycles: 0" in report


# N * (S - K) overflows where |S - K| > 1.8, in 142 of the 200 trials: the one-pass
# forward prices finite and infinite samples side by side
SOME_TRIALS_OVERFLOW = {"contract__notional": "1e308", "market__volatility": "0.3"}


@pytest.mark.parametrize("overrides", [*PRICER_OUT_OF_RANGE, SOME_TRIALS_OVERFLOW],
                         ids=[*PRICER_OUT_OF_RANGE_IDS, "some_trials_overflow"])
def test_pricer_out_of_range_is_an_input_error_in_calibrate(scenario_file, capsys, overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a numpy RuntimeWarning would be recorded here
        assert main(["calibrate", scenario_file(**overrides), "--trials", "200"]) == 2
    assert [str(w.message) for w in caught] == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(
        "error: market: the model drives the settlement value out of the float range")


def test_negative_inception_tick_is_an_input_error(scenario_file, tmp_path, capsys):
    path = scenario_file(contract__settlement_times="-10,0,10,20")
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert main(["calibrate", path, "--trials", "200"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: contract: inception tick must be non-negative, got -10") == 3
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run", "calibrate"])
def test_final_tick_above_the_bound_is_an_input_error(scenario_file, tmp_path, capsys, command):
    # the market path holds one snapshot per tick up to the final settlement
    path = scenario_file(contract__settlement_times="0,1000000000")
    extra = {"run": ["--out", str(tmp_path / "o")], "calibrate": ["--trials", "200"]}
    assert main([command, path, *extra.get(command, [])]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: settlement_times: final tick must be <= 1000000, got 1000000000" in err
    assert not (tmp_path / "o").exists()


def test_final_tick_on_the_bound_validates(scenario_file):
    assert main(["validate", scenario_file(contract__settlement_times="0,10,1000000")]) == 0


class Drawn(Exception):
    pass


def no_draws(*args):
    raise Drawn


def test_calibration_trials_above_the_bound_are_an_input_error(scenario_file, capsys,
                                                                monkeypatch):
    monkeypatch.setattr(simulator, "normal_variates", no_draws)
    path = scenario_file()  # the first period is 10 ticks long
    on_bound = simulator.MAX_CALIBRATION_VARIATES // 10
    assert main(["calibrate", path, "--trials", str(on_bound + 1)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"error: trials: trials x first-period ticks must be <= "
            f"{simulator.MAX_CALIBRATION_VARIATES}, got {on_bound + 1} x 10") in err
    with pytest.raises(Drawn):  # on the bound, the variates are drawn
        main(["calibrate", path, "--trials", str(on_bound)])


@pytest.mark.parametrize("overrides,error", [
    ({**SWAP, "market__volatility": "0.3"},
     "error: product: buffer calibration holds the rate flat"),
    # the start snapshot is priced before the refusal, so this stays a market error
    ({**PRICER_OUT_OF_RANGE[2], "market__volatility": "0.3"},
     "error: market: the model drives the settlement value out of the float range"),
    # a model that drives the spot out of range is refused for the product too
    ({**SWAP, "market__drift": "1e6"}, "error: product: buffer calibration holds the rate flat"),
], ids=["swap", "zero_discount", "huge_drift"])
def test_a_swap_is_refused_before_any_variate_is_drawn(scenario_file, capsys, monkeypatch,
                                                       overrides, error):
    monkeypatch.setattr(simulator, "normal_variates", no_draws)
    path = scenario_file(**overrides)  # the first period is 10 ticks long
    assert main(["calibrate", path, "--trials", "200"]) == 2
    assert error in capsys.readouterr().err
    # the trials bound is checked first
    trials = simulator.MAX_CALIBRATION_VARIATES // 10 + 1
    assert main(["calibrate", path, "--trials", str(trials)]) == 2
    assert "error: trials: trials x first-period ticks must be <= " in capsys.readouterr().err
