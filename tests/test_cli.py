from __future__ import annotations

import struct

import pytest

from sdcsim.cli import main
from sdcsim.journal import ZERO_HASH, block_hash

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


def test_validate_rejects_missing_path():
    assert main(["validate", "/no/such/file.ini"]) == 2


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
    path.write_bytes(struct.pack(">Q", 0) + ZERO_HASH + struct.pack(">I", len(payload))
                     + payload + block_hash(0, ZERO_HASH, payload))
    assert main(["verify", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_verify_accepts_empty_journal(tmp_path):
    empty = tmp_path / "journal.bin"
    empty.write_bytes(b"")
    assert main(["verify", str(empty)]) == 0


def test_calibrate_prints_the_floor_for_flat_markets(scenario_file, capsys):
    assert main(["calibrate", scenario_file(), "--q", "0.95", "--trials", "200"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_calibrate_rejects_bad_quantile(scenario_file):
    assert main(["calibrate", scenario_file(), "--q", "1.5"]) == 2
    assert main(["calibrate", scenario_file(), "--q", "0"]) == 2


def test_calibrate_is_reproducible(scenario_file, capsys):
    path = scenario_file(market__volatility="0.4")
    main(["calibrate", path, "--q", "0.99", "--trials", "2000"])
    first = capsys.readouterr().out
    main(["calibrate", path, "--q", "0.99", "--trials", "2000"])
    assert capsys.readouterr().out == first


def test_negative_seed_override_is_usage_error(scenario_file, tmp_path):
    assert main(["run", scenario_file(), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2


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
