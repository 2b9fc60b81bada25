from __future__ import annotations

from dataclasses import replace

import pytest

from sdcsim import (
    Engine,
    EventKind,
    Journal,
    LifecycleEvent,
    MarginOracle,
    MarketSnapshot,
    MarketStore,
    Mode,
    Phase,
    ScriptStep,
    TerminationCause,
    build_timeline,
    format_script,
    parse_script,
    timeline_script,
)
from sdcsim.errors import ScenarioParseError
from sdcsim.simulator import CompliantAgent

from conftest import make_contract, make_spec, make_world, scripted_oracle

E = LifecycleEvent


def make_engine(values=(0.0, 0.0, 0.0), compliant=True, **kwargs):
    contract, clock, journal, ledger = make_contract(**kwargs)
    oracle = scripted_oracle(journal, clock, contract.spec, values)
    agents = {p: CompliantAgent() for p in contract.spec.parties} if compliant else {}
    return Engine(contract, oracle, clock, journal, agents=agents)


# -- timeline construction --

def test_three_settlements_make_three_cycles_plus_maturity():
    contract, *_ = make_contract(grid=(0, 10, 20, 30))
    entries = build_timeline(contract.spec)
    assert [e.cycle for e in entries if e.kind is E.SETTLEMENT] == [0, 1, 2]
    assert entries[-1].kind is E.MATURITY
    assert entries[-1].tick == 30


def test_single_settlement_time_is_one_cycle():
    contract, *_ = make_contract(grid=(0, 10))
    entries = build_timeline(contract.spec)
    assert [e.cycle for e in entries if e.kind is E.SETTLEMENT] == [0]


def test_widest_window_puts_close_one_tick_before_margin_check():
    contract, *_ = make_contract(grid=(0, 10, 20, 30), window=9)
    entries = build_timeline(contract.spec)
    close = next(e for e in entries if e.kind is E.CLOSE_ACCOUNTS)
    check = next(e for e in entries if e.kind is E.MARGIN_CHECK)
    assert check.tick - close.tick == 1


def test_cycle_event_ordering():
    contract, *_ = make_contract(grid=(5, 17, 29), window=4)
    entries = build_timeline(contract.spec)
    for cycle in (0, 1):
        ticks = {e.kind: e.tick for e in entries if e.cycle == cycle
                 and e.kind is not E.MATURITY}
        assert ticks[E.OPEN_ACCOUNTS] < ticks[E.CLOSE_ACCOUNTS] < ticks[E.MARGIN_CHECK]
        assert ticks[E.MARGIN_CHECK] <= ticks[E.VALUATION] <= ticks[E.SETTLEMENT]
    kinds_in_order = [e.kind for e in entries if e.cycle == 0 and e.kind is not E.MATURITY]
    assert kinds_in_order == [E.OPEN_ACCOUNTS, E.CLOSE_ACCOUNTS, E.MARGIN_CHECK,
                              E.VALUATION, E.SETTLEMENT]


# -- active mode --

def test_compliant_flat_run_matures():
    engine = make_engine(values=(0.0, 0.0, 0.0))
    engine.run(Mode.ACTIVE)
    state = engine.contract.state()
    assert state.cause is TerminationCause.MATURED
    assert engine.contract.fees_returned
    assert [row.amount for row in engine.cycle_log] == [0, 0, 0]
    assert engine.journal.verify()


class WalletEmptier(CompliantAgent):
    """Compliant until a chosen cycle, then pulls the whole margin bucket."""

    def __init__(self, at_cycle: int):
        self.at_cycle = at_cycle

    def on_tick(self, engine, party):
        contract = engine.contract
        if contract.phase is Phase.ACCOUNTS_OPEN and contract.cycle == self.at_cycle:
            held = contract.margin_bucket(party)
            if held:
                contract.withdraw_margin(party, held)
            return
        super().on_tick(engine, party)


def test_withdrawal_in_cycle_two_triggers_prefund_termination_there():
    engine = make_engine()
    party_b = engine.spec.party_b
    engine.agents[party_b] = WalletEmptier(at_cycle=2)
    engine.run(Mode.ACTIVE)
    state = engine.contract.state()
    assert state.cause is TerminationCause.INSUFFICIENT_PREFUND
    assert engine.contract.cycle == 2
    assert state.at == 20 + 3 + 1  # cycle-2 margin check tick


def test_missing_snapshot_suspends():
    contract, clock, journal, ledger = make_contract()
    store = MarketStore()
    store.add(MarketSnapshot(as_of=0, spot=100.0, zero_rate=0.0))
    # no snapshot at the first settlement tick 10
    oracle = MarginOracle(store, journal, clock)
    agents = {p: CompliantAgent() for p in contract.spec.parties}
    engine = Engine(contract, oracle, clock, journal, agents=agents)
    engine.run(Mode.ACTIVE)
    assert contract.phase is Phase.ERROR
    assert "tick 10" in contract.state().detail
    assert journal.verify()


# -- passive mode & admissibility --

def test_request_event_admissibility():
    engine = make_engine()
    contract, clock = engine.contract, engine.clock
    a, b = engine.spec.parties
    assert engine._initialize()
    stranger = engine.ledger.open_account("stranger")

    assert engine.request_event(a, E.OPEN_ACCOUNTS, 0).accepted
    assert engine.request_event(a, E.MARGIN_CHECK, 0).reason == "NotDue"
    contract.deposit_margin(a, 400)
    contract.deposit_margin(b, 400)

    assert engine.request_event(stranger, E.CLOSE_ACCOUNTS, 3).reason == "NotAuthorized"
    assert engine.request_event(a, E.CLOSE_ACCOUNTS, 2).reason == "NotDue"  # one tick early
    clock.advance_to(3)
    assert engine.request_event(a, E.CLOSE_ACCOUNTS, 3).accepted
    clock.advance_to(4)
    assert engine.request_event(b, E.MARGIN_CHECK, 4).accepted

    clock.advance_to(9)
    assert engine.request_event(a, E.SETTLEMENT, 9).reason == "NotDue"
    clock.advance_to(10)
    assert engine.request_event(a, E.SETTLEMENT, 10).reason == "NotDue"  # valuation first
    assert engine.request_event(a, E.VALUATION, 10).accepted
    assert engine.request_event(a, E.SETTLEMENT, 10).accepted
    assert contract.cycle == 1


def test_rejected_requests_change_nothing():
    engine = make_engine()
    engine._initialize()
    state = engine.contract.state()
    blocks = len(engine.journal)
    assert not engine.request_event(engine.spec.party_a, E.SETTLEMENT, 0).accepted
    assert engine.contract.state() == state
    assert len(engine.journal) == blocks


def test_passive_run_completes_like_active():
    active = make_engine()
    active.run(Mode.ACTIVE)
    passive = make_engine()
    passive.run(Mode.PASSIVE)
    assert passive.contract.state().cause is TerminationCause.MATURED
    assert passive.journal.final_hash() == active.journal.final_hash()


# -- driver mode --

def test_driver_replay_of_active_sequence_is_bit_identical():
    active = make_engine(values=(7.0, -3.0, 2.0))
    active.run(Mode.ACTIVE)
    assert active.contract.state().cause is TerminationCause.MATURED

    driver = make_engine(values=(7.0, -3.0, 2.0))
    driver.run(Mode.DRIVER, script=timeline_script(driver.spec))
    assert driver.journal.final_hash() == active.journal.final_hash()
    assert driver.ledger.to_csv() == active.ledger.to_csv()


def rejections(engine):
    return [r for r in engine.journal.records(EventKind.STATE_TRANSITION)
            if r.detail("cause") == "rejected"]


def moved(script, kind, tick):
    """The script with the first row of `kind` moved to `tick`, in tick order."""
    i = next(i for i, s in enumerate(script) if s.kind is kind)
    script = script[:i] + [replace(script[i], tick=tick)] + script[i + 1:]
    return sorted(script, key=lambda s: s.tick)


def test_driver_duplicate_settlement_is_journaled_as_rejected():
    engine = make_engine()
    script = timeline_script(engine.spec)
    settle_i = next(i for i, s in enumerate(script) if s.kind is E.SETTLEMENT)
    script.insert(settle_i + 1, script[settle_i])
    engine.run(Mode.DRIVER, script=script)
    rejected = rejections(engine)
    assert len(rejected) == 1
    assert rejected[0].detail("event") == "SETTLEMENT"
    assert engine.contract.state().cause is TerminationCause.MATURED


def test_driver_empty_script_leaves_engine_in_initial_state():
    engine = make_engine()
    engine.run(Mode.DRIVER, script=[])
    assert engine.contract.phase is Phase.ACCOUNTS_OPEN  # initialized, nothing fired
    assert engine.contract.cycle == 0
    assert engine.cycle_log == []


def test_driver_unauthorized_row_is_rejected():
    engine = make_engine()
    script = [ScriptStep(0, E.OPEN_ACCOUNTS, "nobody#99")] + timeline_script(engine.spec)
    engine.run(Mode.DRIVER, script=script)
    assert [r.detail("reason") for r in rejections(engine)] == ["NotAuthorized"]
    assert engine.contract.state().cause is TerminationCause.MATURED


def test_driver_early_valuation_is_rejected_before_the_oracle_is_asked():
    engine = make_engine(values=(7.0, -3.0, 2.0))
    engine.run(Mode.DRIVER, script=moved(timeline_script(engine.spec), E.VALUATION, 5))
    valuations = engine.journal.records(EventKind.VALUATION)
    assert all(r.timestamp >= int(r.detail("period_end")) for r in valuations)
    first = rejections(engine)[0]
    assert (first.timestamp, first.detail("event"), first.detail("reason")) \
        == (5, "VALUATION", "NotDue")


def test_driver_late_close_accounts_is_rejected_and_the_window_stays_open():
    engine = make_engine()
    engine.run(Mode.DRIVER, script=moved(timeline_script(engine.spec), E.CLOSE_ACCOUNTS, 8))
    assert [(r.timestamp, r.detail("event"), r.detail("reason"))
            for r in rejections(engine)[:2]] \
        == [(4, "MARGIN_CHECK", "NotDue"), (8, "CLOSE_ACCOUNTS", "NotDue")]
    closes = [r for r in engine.journal.records(EventKind.STATE_TRANSITION)
              if r.detail("cause") == "window-closed"]
    assert closes == []
    assert engine.contract.phase is Phase.ACCOUNTS_OPEN


class CountingAgent(CompliantAgent):
    def __init__(self):
        self.calls = 0

    def on_tick(self, engine, party):
        self.calls += 1
        super().on_tick(engine, party)


def test_driver_row_far_past_maturity_costs_one_step():
    engine = make_engine()
    counter = engine.agents[engine.spec.party_b] = CountingAgent()
    script = timeline_script(engine.spec) + [ScriptStep(10**12, E.SETTLEMENT, engine.spec.party_a)]
    engine.run(Mode.DRIVER, script=script)
    grid = engine.spec.settlement_times
    every_tick = grid[-1] - grid[0] + 1
    assert every_tick < counter.calls <= every_tick + len(script)
    assert engine.contract.state().cause is TerminationCause.MATURED
    last = rejections(engine)[-1]
    assert (last.timestamp, last.detail("reason")) == (10**12, "NotDue")


# -- mode equivalence and timestamps --

@pytest.mark.parametrize("values", [(0.0, 0.0, 0.0), (12.5, -40.0, 3.3)])
def test_three_modes_share_one_journal_hash(values):
    hashes = set()
    for mode in Mode:
        engine = make_engine(values=values)
        engine.run(mode)
        assert engine.contract.state().cause is TerminationCause.MATURED
        hashes.add(engine.journal.final_hash())
    assert len(hashes) == 1


def test_journal_timestamps_never_decrease():
    engine = make_engine(values=(5.0, 5.0, 5.0))
    engine.run(Mode.ACTIVE)
    stamps = [r.timestamp for r in engine.journal.records()]
    assert stamps == sorted(stamps)


# -- script files --

def test_script_round_trip():
    contract, *_ = make_contract()
    steps = timeline_script(contract.spec)
    assert parse_script(format_script(steps)) == steps


def test_script_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioParseError) as exc:
        parse_script("0,OPEN_ACCOUNTS,a\nnot-a-row\n")
    assert exc.value.line == 2
