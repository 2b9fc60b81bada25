"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

from __future__ import annotations

import math
import random
import time

import pytest

from sdcsim import (
    Engine,
    EventKind,
    Forward,
    Journal,
    MarketSnapshot,
    Phase,
    SettlementAmount,
    TerminationCause,
    VanillaSwap,
    run_simulation,
    settlement_amount,
    write_report,
)
from sdcsim.errors import SdcError
from sdcsim.journal import ZERO_HASH
from sdcsim.simulator import CompliantAgent, calibrate_buffer, one_period_samples

from conftest import make_contract, scripted_oracle
from support import (Block, journal_blocks, journal_from_blocks, open_intervals_respected, path_of,
                     product_value)
from test_journal import record as journal_record
from test_simulator import make_scenario, scenario_text


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{criterion} failed {detail}"


# ---------------------------------------------------------------------------
# 1. Settlement formula fidelity against a brute-force DCF script.
# ---------------------------------------------------------------------------

def _random_forward_case(rng: random.Random):
    notional = rng.uniform(10.0, 1e6)
    strike = rng.uniform(50.0, 150.0)
    maturity = rng.uniform(0.5, 10.0)
    product = Forward(notional=notional, strike=strike, maturity=maturity)
    t = rng.uniform(0.05, 0.95) * maturity
    rate = rng.uniform(0.0, 0.10)
    spot_old = rng.uniform(50.0, 150.0)
    move = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 30.0)
    spot_new = max(1.0, spot_old + move)
    return product, t, rate, rate, spot_old, spot_new


def _random_swap_case(rng: random.Random):
    n = rng.randint(1, 40)
    tau = rng.choice([0.25, 0.5, 1.0])
    times = tuple(tau * k for k in range(1, n + 1))
    product = VanillaSwap(notional=rng.uniform(1e3, 1e7),
                          fixed_rate=rng.uniform(0.0, 0.12),
                          payment_times=times, accruals=(tau,) * n)
    t = rng.uniform(0.0, 0.95) * times[-1]
    rate_old = rng.uniform(0.005, 0.10)
    rate_new = abs(rate_old + rng.choice([-1.0, 1.0]) * rng.uniform(0.003, 0.04))
    spot = rng.uniform(50.0, 150.0)
    return product, t, rate_old, rate_new, spot, spot


def test_acceptance_01_settlement_formula_fidelity():
    rng = random.Random(10001)
    started = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        case = _random_forward_case(rng) if i % 2 == 0 else _random_swap_case(rng)
        product, t, rate_old, rate_new, spot_old, spot_new = case
        period_start, period_end = 3, 3 + rng.randint(1, 60)
        tick_years = t / period_end
        snap_old = MarketSnapshot(as_of=period_start, spot=spot_old, zero_rate=rate_old)
        snap_new = MarketSnapshot(as_of=period_end, spot=spot_new, zero_rate=rate_new)
        mine = settlement_amount(product, period_start, period_end,
                                 snap_old, snap_new, tick_years).value
        oracle = product_value(product, t, snap_new) - product_value(product, t, snap_old)
        worst = max(worst, abs(mine - oracle) / max(abs(oracle), 1e-9))
    elapsed = time.perf_counter() - started
    _report("01 settlement-formula-fidelity",
            worst <= 1e-10 and elapsed < 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Zero-move neutrality: equal snapshots give exactly zero, and a flat
#    market produces no settlement transfers end to end.
# ---------------------------------------------------------------------------

def test_acceptance_02_zero_move_neutrality():
    rng = random.Random(10002)
    exact = True
    for i in range(200):
        if i % 2 == 0:
            product = Forward(notional=rng.uniform(1.0, 1e6),
                              strike=rng.uniform(50, 150), maturity=5.0)
        else:
            n = rng.randint(1, 20)
            product = VanillaSwap(notional=rng.uniform(1e3, 1e6),
                                  fixed_rate=rng.uniform(0, 0.1),
                                  payment_times=tuple(0.5 * k for k in range(1, n + 1)),
                                  accruals=(0.5,) * n)
        spot, rate = rng.uniform(1, 300), rng.uniform(0, 0.12)
        old = MarketSnapshot(as_of=1, spot=spot, zero_rate=rate)
        new = MarketSnapshot(as_of=9, spot=spot, zero_rate=rate)
        f = settlement_amount(product, 1, 9, old, new,
                              tick_years=product.maturity / 20)
        exact = exact and f.value == 0.0

    artifacts = run_simulation(make_scenario())  # sigma = 0, drift = 0
    report = artifacts.report
    cross_bucket_moves = [
        r for r in artifacts.journal.records()
        if r.kind is EventKind.RELEASE and r.detail("bucket") == "MARGIN"
        and r.detail("dst") != r.detail("party")]
    _report("02 zero-move-neutrality",
            exact and report.termination_cause == "MATURED"
            and all(row.amount == 0 for row in report.cycles)
            and not cross_bucket_moves)


# ---------------------------------------------------------------------------
# 3. Conservation over a >= 50 scenario corpus covering all three causes.
# ---------------------------------------------------------------------------

def _corpus(tmp_path) -> list:
    scenarios = []
    for seed in range(6):
        for vol in ("0.0", "0.1", "0.2"):
            scenarios.append(make_scenario(
                market__volatility=vol, contract__margin_a="3000",
                contract__margin_b="3000", run__seed=str(100 + seed)))
    for seed in range(6):
        scenarios.append(make_scenario(
            market__drift="0.5", agents__policy_b="defaulting:1", run__seed=str(seed)))
        scenarios.append(make_scenario(
            market__drift="0.5", market__volatility="0.1",
            agents__policy_b="defaulting:2", contract__margin_a="1500",
            contract__margin_b="1500", run__seed=str(200 + seed)))
        scenarios.append(make_scenario(
            market__drift="0.5", contract__margin_a="150", contract__margin_b="150",
            run__seed=str(300 + seed)))
        scenarios.append(make_scenario(
            market__volatility="0.6", contract__margin_a="250", contract__margin_b="250",
            run__seed=str(400 + seed)))
    for seed in range(3):
        scenarios.append(make_scenario(
            market__drift="1.2", market__volatility="0.05", contract__margin_a="1000",
            contract__margin_b="1000", contract__fee_a="2000", contract__fee_b="2000",
            agents__policy_b="willful:1", run__seed=str(seed)))
    for mode in ("passive", "driver"):
        for seed in range(3):
            scenarios.append(make_scenario(
                market__volatility="0.2", contract__margin_a="3000",
                contract__margin_b="3000", run__mode=mode, run__seed=str(500 + seed)))
    from sdcsim import write_path_csv
    for k, slope in enumerate((0.0005, 0.001, -0.0004)):
        path = [MarketSnapshot(as_of=i, spot=100.0, zero_rate=max(0.0, 0.02 + slope * i))
                for i in range(21)]
        file = tmp_path / f"rates{k}.csv"
        write_path_csv(path_of(path), file)
        from sdcsim import parse_scenario
        scenarios.append(parse_scenario(scenario_text(
            drop=("market.initial_spot", "market.initial_rate", "market.volatility",
                  "market.drift"),
            contract__product="vanilla_swap", contract__strike="0.03",
            contract__notional="1000000", contract__payment_times="0.5,1.0",
            contract__accruals="0.5,0.5", contract__settlement_times="0,10,20",
            contract__margin_a="8000", contract__margin_b="8000",
            market__tick_years="0.05", market__path_file=str(file))))
    return scenarios


def test_acceptance_03_conservation(tmp_path):
    scenarios = _corpus(tmp_path)
    causes = set()
    violations = []
    for i, scenario in enumerate(scenarios):
        report = run_simulation(scenario).report
        causes.add(report.termination_cause)
        if sum(report.final_wealth.values()) != sum(report.initial_wealth.values()):
            violations.append((i, "wealth"))
        if not all(report.checks.values()):
            violations.append((i, report.checks))
        if report.termination_cause not in ("MATURED", "INSUFFICIENT_PREFUND",
                                            "SETTLEMENT_FAILED"):
            violations.append((i, report.termination_cause))
    _report("03 conservation",
            len(scenarios) >= 50 and not violations
            and {"MATURED", "INSUFFICIENT_PREFUND", "SETTLEMENT_FAILED"} <= causes,
            f"{len(scenarios)} scenarios, causes {sorted(c for c in causes if c)}")


# ---------------------------------------------------------------------------
# 4. Termination semantics: exhaustive 3-cycle enumeration of buffer levels
#    and settlement magnitudes reaches only the three causes, with the fee
#    flows the rules prescribe.
# ---------------------------------------------------------------------------

MARGIN = 400
FEE_A, FEE_B = 200, 300


class TargetLeveler:
    """Sets the margin bucket to an exact per-cycle level during windows."""

    def __init__(self, targets: dict[int, int]):
        self.targets = targets

    def on_tick(self, engine, party):
        contract = engine.contract
        if contract.phase is not Phase.ACCOUNTS_OPEN:
            return
        target = self.targets.get(contract.cycle)
        if target is None:
            return
        held = contract.margin_bucket(party)
        if held < target:
            contract.deposit_margin(party, target - held)
        elif held > target:
            contract.withdraw_margin(party, held - target)


def _expected(configs):
    """Independent rule table: outcome of a run with the given per-cycle
    (buffer_a, buffer_b, settlement) triples; B pays when settlement > 0."""
    for i, (buf_a, buf_b, f) in enumerate(configs):
        deficient = tuple(p for p, b in (("A", buf_a), ("B", buf_b)) if b < MARGIN)
        if deficient:
            return "INSUFFICIENT_PREFUND", i, deficient
        if f > buf_b:
            return "SETTLEMENT_FAILED", i, ("B",)
    return "MATURED", len(configs) - 1, ()


def _expected_fee_flows(cause, causers, parties):
    a, b = parties
    owner = {"A": a, "B": b}
    if cause == "MATURED":
        return {(a, a, FEE_A), (b, b, FEE_B)}
    flows = set()
    for p in ("A", "B"):
        fee = FEE_A if p == "A" else FEE_B
        src = owner[p]
        dst = owner["B" if p == "A" else "A"] if p in causers else src
        flows.add((src, dst, fee))
    return flows


def _run_case(configs):
    padded = list(configs) + [(MARGIN, MARGIN, 0)] * (3 - len(configs))
    contract, clock, journal, ledger = make_contract(
        margin=MARGIN, fee_a=FEE_A, fee_b=FEE_B, funding_a=10_000, funding_b=10_000)
    a, b = contract.spec.parties
    oracle = scripted_oracle(contract.spec, [float(f) for _, _, f in padded])
    agents = {a: TargetLeveler({i: c[0] for i, c in enumerate(padded)}),
              b: TargetLeveler({i: c[1] for i, c in enumerate(padded)})}
    engine = Engine(contract, oracle, agents=agents)
    total_before = ledger.total_supply()
    engine.run()

    cause, cycle, causers = _expected(configs)
    state = contract.state()
    assert state.phase is Phase.TERMINATED, configs
    assert state.cause.value == cause, configs
    fee_flows = {(r.detail("party"), r.detail("dst"), int(r.detail("amount")))
                 for r in journal.records()
                 if r.kind is EventKind.RELEASE and r.detail("bucket") == "FEE"}
    assert fee_flows == _expected_fee_flows(cause, causers, (a, b)), configs
    assert ledger.check_conservation() and ledger.total_supply() == total_before
    assert journal.verify()
    return cause


def test_acceptance_04_termination_semantics():
    started = time.perf_counter()
    levels = (MARGIN - 1, MARGIN, MARGIN + 1)
    settlements = (0, MARGIN, MARGIN + 1)
    combos = [(ba, bb, f) for ba in levels for bb in levels for f in settlements]
    runs = 0
    causes = set()

    def walk(prefix):
        nonlocal runs
        for combo in combos:
            configs = prefix + (combo,)
            cause, _, _ = _expected(configs)
            if cause != "MATURED" or len(configs) == 3:
                causes.add(_run_case(configs))
                runs += 1
            else:
                walk(configs)  # still alive: this cycle's choices matter downstream

    walk(())
    elapsed = time.perf_counter() - started
    _report("04 termination-semantics",
            causes == {"MATURED", "INSUFFICIENT_PREFUND", "SETTLEMENT_FAILED"}
            and elapsed < 10.0,
            f"{runs} runs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. Window enforcement under 10k fuzzed wallet accesses.
# ---------------------------------------------------------------------------

class FuzzingComplier(CompliantAgent):
    """Hammers the margin wallet with unit deposits/withdrawals every tick,
    restoring the buffer afterwards so the contract itself stays healthy."""

    def __init__(self, rng: random.Random, per_tick: int = 10):
        self.rng = rng
        self.per_tick = per_tick
        self.attempts: list[tuple[Phase, bool]] = []

    def on_tick(self, engine, party):
        super().on_tick(engine, party)  # pre-heal so withdrawals have substance
        contract = engine.contract
        for _ in range(self.per_tick):
            phase = contract.phase
            try:
                if self.rng.random() < 0.5:
                    contract.deposit_margin(party, 1)
                else:
                    contract.withdraw_margin(party, 1)
                outcome = True
            except SdcError:
                outcome = False
            self.attempts.append((phase, outcome))
        if contract.phase is Phase.ACCOUNTS_OPEN:
            held = contract.margin_bucket(party)
            target = contract.spec.margin_required(party)
            if held > target:
                contract.withdraw_margin(party, held - target)
            elif held < target:
                contract.deposit_margin(party, target - held)


def test_acceptance_05_window_enforcement():
    grid = tuple(range(0, 1020, 20))  # 50 settlement cycles, 1000 ticks
    contract, clock, journal, ledger = make_contract(
        grid=grid, margin=50, fee=20, window=5,
        funding_a=10_000_000, funding_b=10_000_000)
    a, b = contract.spec.parties
    fuzzer = FuzzingComplier(random.Random(10005))
    oracle = scripted_oracle(contract.spec, [0.0] * 50)
    engine = Engine(contract, oracle, agents={a: fuzzer, b: CompliantAgent()})
    engine.run()

    assert contract.state().cause is TerminationCause.MATURED
    violations = [(phase, ok) for phase, ok in fuzzer.attempts
                  if ok != (phase is Phase.ACCOUNTS_OPEN)]
    _report("05 window-enforcement",
            len(fuzzer.attempts) >= 10_000 and not violations
            and open_intervals_respected(journal, contract.spec.contract_id),
            f"{len(fuzzer.attempts)} attempts, {len(violations)} violations")


# ---------------------------------------------------------------------------
# 6. Active, passive and driver triggering produce identical journals.
# ---------------------------------------------------------------------------

def test_acceptance_06_trigger_mode_equivalence():
    mismatches = []
    for seed in range(100, 120):
        hashes = set()
        for mode in ("active", "passive", "driver"):
            report = run_simulation(make_scenario(
                market__volatility="0.15", contract__margin_a="3000",
                contract__margin_b="3000", run__seed=str(seed),
                run__mode=mode)).report
            assert report.termination_cause == "MATURED", (seed, mode)
            hashes.add(report.journal_hash)
        if len(hashes) != 1:
            mismatches.append(seed)
    _report("06 trigger-mode-equivalence", not mismatches, "20 seeds x 3 modes")


# ---------------------------------------------------------------------------
# 7. Journal tamper detection across >= 1000 single-bit mutations.
# ---------------------------------------------------------------------------

def _tampered_copy(journal: Journal, rng: random.Random) -> Journal:
    blocks = journal_blocks(journal)
    target = rng.randrange(len(blocks))
    field = rng.choice(["payload", "prev_hash", "index"])
    bit = rng.randrange(256)
    tampered = []
    for i, block in enumerate(blocks):
        index, prev, payload = block.index, block.prev_hash, block.payload
        if i == target:
            if field == "payload":
                body = bytearray(payload)
                body[(bit // 8) % len(body)] ^= 1 << (bit % 8)
                payload = bytes(body)
            elif field == "prev_hash":
                body = bytearray(prev)
                body[(bit // 8) % 32] ^= 1 << (bit % 8)
                prev = bytes(body)
            else:
                index ^= 1 << (bit % 63)
        tampered.append(Block(index=index, prev_hash=prev, payload=payload, hash=block.hash))
    return journal_from_blocks(tampered)


def test_acceptance_07_tamper_detection():
    rng = random.Random(10007)
    mutations = 0
    missed = 0
    for length in range(1, 201):
        journal = Journal()
        for i in range(length):
            journal.append(journal_record(i, amount=i * 13 + length).to_bytes())
        assert journal.verify()
        for _ in range(5):
            if _tampered_copy(journal, rng).verify():
                missed += 1
            mutations += 1
    _report("07 tamper-detection", mutations >= 1000 and missed == 0,
            f"{mutations} mutations, {missed} missed")


# ---------------------------------------------------------------------------
# 8. Quantile buffer coverage out of sample.
# ---------------------------------------------------------------------------

def test_acceptance_08_quantile_buffer_coverage():
    started = time.perf_counter()
    scenario = make_scenario(market__volatility="0.3", run__seed="88")
    buffer = calibrate_buffer(scenario, q=0.99, trials=10_000)
    fresh = one_period_samples(scenario, 10_000, stream=2)
    exceedance = sum(1 for f in fresh if abs(f) > buffer) / len(fresh)
    elapsed = time.perf_counter() - started
    _report("08 quantile-buffer-coverage",
            buffer >= 1 and exceedance <= 0.015 and elapsed < 10.0,
            f"buffer {buffer}, exceedance {exceedance:.4f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. Willful termination never beats compliance when fees dominate the
#    per-cycle settlements (100 paired seeded runs).
# ---------------------------------------------------------------------------

def test_acceptance_09_willful_termination_disincentive():
    fee = 2000
    base = dict(market__drift="1.2", market__volatility="0.05",
                contract__margin_a="1000", contract__margin_b="1000",
                contract__fee_a=str(fee), contract__fee_b=str(fee))
    worse = 0
    for seed in range(9000, 9100):
        compliant = run_simulation(make_scenario(run__seed=str(seed), **base)).report
        assert compliant.termination_cause == "MATURED", seed
        # precondition of the claim: every per-cycle settlement below the fee
        assert all(row.amount < fee for row in compliant.cycles), seed
        willful = run_simulation(make_scenario(
            run__seed=str(seed), agents__policy_b="willful:1", **base)).report
        b_willful = next(v for k, v in willful.final_wealth.items() if "bank2" in k)
        b_compliant = next(v for k, v in compliant.final_wealth.items() if "bank2" in k)
        if b_willful < b_compliant:
            worse += 1
    _report("09 willful-termination-disincentive", worse == 100, f"{worse}/100 strictly worse")


# ---------------------------------------------------------------------------
# 10. Byte-identical reruns.
# ---------------------------------------------------------------------------

def test_acceptance_10_determinism(tmp_path):
    ok = True
    for i, overrides in enumerate((
            dict(market__volatility="0.25", run__seed="5"),
            dict(market__volatility="0.4", market__drift="0.3",
                 agents__policy_b="defaulting:2", run__seed="6"),
            dict(market__volatility="0.2", run__mode="driver", run__seed="7"))):
        first = run_simulation(make_scenario(**overrides))
        second = run_simulation(make_scenario(**overrides))
        ok = ok and first.report.journal_hash == second.report.journal_hash
        for fmt, ext in (("text", "txt"), ("csv", "csv")):
            write_report(first.report, tmp_path / f"a{i}.{ext}", fmt=fmt)
            write_report(second.report, tmp_path / f"b{i}.{ext}", fmt=fmt)
            ok = ok and (tmp_path / f"a{i}.{ext}").read_bytes() == \
                (tmp_path / f"b{i}.{ext}").read_bytes()
    _report("10 determinism", ok, "3 scenarios, 2 formats")
