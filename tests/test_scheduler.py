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
    Mode,
    Phase,
    ScriptStep,
    TerminationCause,
    format_script,
    parse_script,
    timeline_script,
)
from sdcsim.errors import ScenarioParseError
from sdcsim.simulator import CompliantAgent, WillfulAgent

from conftest import make_contract, make_spec, make_world, scripted_oracle

E = LifecycleEvent


def make_engine(values=(0.0, 0.0, 0.0), compliant=True, **kwargs):
    contract, clock, journal, ledger = make_contract(**kwargs)
    oracle = scripted_oracle(contract.spec, values)
    agents = {p: CompliantAgent() for p in contract.spec.parties} if compliant else {}
    return Engine(contract, oracle, agents=agents)


# -- timeline construction --

def test_three_settlements_make_three_cycles_plus_maturity():
    contract, *_ = make_contract(grid=(0, 10, 20, 30))
    steps = timeline_script(contract.spec)
    assert [s.tick for s in steps if s.kind is E.SETTLEMENT] == [10, 20, 30]
    assert steps[-1].kind is E.MATURITY
    assert steps[-1].tick == 30
    assert [s.kind for s in steps].count(E.MATURITY) == 1
    assert {s.party for s in steps} == {contract.spec.party_a}


def test_single_settlement_time_is_one_cycle():
    contract, *_ = make_contract(grid=(0, 10))
    steps = timeline_script(contract.spec)
    assert [s.tick for s in steps if s.kind is E.SETTLEMENT] == [10]


def test_widest_window_puts_close_one_tick_before_margin_check():
    contract, *_ = make_contract(grid=(0, 10, 20, 30), window=9)
    steps = timeline_script(contract.spec)
    close = next(s for s in steps if s.kind is E.CLOSE_ACCOUNTS)
    check = next(s for s in steps if s.kind is E.MARGIN_CHECK)
    assert check.tick - close.tick == 1


def test_cycle_event_ordering():
    grid = (5, 17, 29)
    contract, *_ = make_contract(grid=grid, window=4)
    steps = timeline_script(contract.spec)
    assert len(steps) == 5 * contract.spec.cycles + 1
    for cycle in (0, 1):
        rows = steps[5 * cycle:5 * cycle + 5]
        assert [s.kind for s in rows] == [E.OPEN_ACCOUNTS, E.CLOSE_ACCOUNTS, E.MARGIN_CHECK,
                                          E.VALUATION, E.SETTLEMENT]
        ticks = [s.tick for s in rows]
        assert ticks[0] == grid[cycle] and ticks[-1] == grid[cycle + 1]
        assert ticks[0] < ticks[1] < ticks[2] <= ticks[3] == ticks[4]
    assert [s.tick for s in steps] == sorted(s.tick for s in steps)


# -- timeline runs --

def test_compliant_flat_run_matures():
    engine = make_engine(values=(0.0, 0.0, 0.0))
    engine.run()
    state = engine.contract.state()
    assert state.cause is TerminationCause.MATURED
    assert [engine.contract.fee_bucket(p) for p in engine.spec.parties] == [0, 0]
    settlements = engine.journal.records(EventKind.SETTLEMENT)
    assert [int(r.detail("amount")) for r in settlements] == [0, 0, 0]
    assert engine.journal.verify()


def test_maturity_row_alone_posts_the_fees_back_once():
    engine = make_engine()
    a, b = engine.spec.parties
    engine.run(script=[s for s in timeline_script(engine.spec) if s.kind is not E.MATURITY])
    assert engine.contract.state().label() == "Terminated[MATURED@30]"
    assert [engine.contract.fee_bucket(p) for p in (a, b)] == [200, 200]
    assert engine.request_event(b, E.MATURITY, 30).accepted
    assert [engine.contract.fee_bucket(p) for p in (a, b)] == [0, 0]
    blocks = len(engine.journal)
    engine.contract.return_fees()
    assert len(engine.journal) == blocks


def test_run_replays_the_timeline_built_once_per_engine(monkeypatch):
    import sdcsim.scheduler as scheduler
    built = []
    monkeypatch.setattr(scheduler, "timeline_script",
                        lambda spec: built.append(spec) or timeline_script(spec))
    engine = make_engine()
    assert len(built) == 1
    engine.run()
    assert len(built) == 1  # run() replays engine.timeline, it builds no second schedule
    assert engine.timeline == timeline_script(engine.spec)
    assert engine.contract.state().cause is TerminationCause.MATURED


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
    engine.run()
    state = engine.contract.state()
    assert state.cause is TerminationCause.INSUFFICIENT_PREFUND
    assert engine.contract.cycle == 2
    assert state.at == 20 + 3 + 1  # cycle-2 margin check tick


def test_missing_snapshot_suspends():
    contract, clock, journal, ledger = make_contract()
    spec = contract.spec
    # no snapshot at the first settlement tick 10
    oracle = MarginOracle([MarketSnapshot(as_of=0, spot=100.0, zero_rate=0.0)],
                          spec.product, spec.pricer_version, spec.tick_years)
    agents = {p: CompliantAgent() for p in contract.spec.parties}
    engine = Engine(contract, oracle, agents=agents)
    engine.run()
    assert contract.phase is Phase.ERROR
    assert "tick 10" in contract.state().detail
    assert journal.verify()


# -- admissibility --

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


# -- driver scripts --

def test_driver_replay_of_active_sequence_is_bit_identical():
    timeline = make_engine(values=(7.0, -3.0, 2.0))
    timeline.run()
    assert timeline.contract.state().cause is TerminationCause.MATURED

    driver = make_engine(values=(7.0, -3.0, 2.0))
    driver.run(script=timeline_script(driver.spec))
    assert driver.journal.final_hash() == timeline.journal.final_hash()
    assert driver.ledger.to_csv() == timeline.ledger.to_csv()


def requested_by_party_b(spec):
    return [replace(s, party=spec.party_b) for s in timeline_script(spec)]


def test_passive_run_completes_like_active():
    active = make_engine()
    active.run()
    passive = make_engine()
    passive.run(script=requested_by_party_b(passive.spec))
    assert passive.contract.state().cause is TerminationCause.MATURED
    assert rejections(passive) == []
    assert passive.journal.final_hash() == active.journal.final_hash()


MODE_SCRIPTS = {
    Mode.ACTIVE: lambda spec: None,
    Mode.PASSIVE: requested_by_party_b,
    Mode.DRIVER: lambda spec: parse_script(format_script(timeline_script(spec))),
}


@pytest.mark.parametrize("values", [(0.0, 0.0, 0.0), (12.5, -40.0, 3.3)])
def test_three_modes_share_one_journal_hash(values):
    """The engine's own timeline, the counterparty requesting every event and
    a driver script read back from text produce one journal."""
    hashes = set()
    for mode in Mode:
        engine = make_engine(values=values)
        engine.run(script=MODE_SCRIPTS[mode](engine.spec))
        assert engine.contract.state().cause is TerminationCause.MATURED
        hashes.add(engine.journal.final_hash())
    assert len(hashes) == 1


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
    engine.run(script=script)
    rejected = rejections(engine)
    assert len(rejected) == 1
    assert rejected[0].detail("event") == "SETTLEMENT"
    assert engine.contract.state().cause is TerminationCause.MATURED


def test_driver_empty_script_leaves_engine_in_initial_state():
    engine = make_engine()
    engine.run(script=[])
    assert engine.contract.phase is Phase.ACCOUNTS_OPEN  # initialized, nothing fired
    assert engine.contract.cycle == 0
    assert engine.journal.records(EventKind.SETTLEMENT) == []


def test_driver_unauthorized_row_is_rejected():
    engine = make_engine()
    script = [ScriptStep(0, E.OPEN_ACCOUNTS, "nobody#99")] + timeline_script(engine.spec)
    engine.run(script=script)
    assert [r.detail("reason") for r in rejections(engine)] == ["NotAuthorized"]
    assert engine.contract.state().cause is TerminationCause.MATURED


def test_driver_early_valuation_is_rejected_before_the_oracle_is_asked():
    engine = make_engine(values=(7.0, -3.0, 2.0))
    engine.run(script=moved(timeline_script(engine.spec), E.VALUATION, 5))
    valuations = engine.journal.records(EventKind.VALUATION)
    assert all(r.timestamp >= int(r.detail("period_end")) for r in valuations)
    first = rejections(engine)[0]
    assert (first.timestamp, first.detail("event"), first.detail("reason")) \
        == (5, "VALUATION", "NotDue")


def test_driver_late_close_accounts_is_rejected_and_the_window_stays_open():
    engine = make_engine()
    engine.run(script=moved(timeline_script(engine.spec), E.CLOSE_ACCOUNTS, 8))
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
    engine.run(script=script)
    grid = engine.spec.settlement_times
    every_tick = grid[-1] - grid[0] + 1
    assert every_tick < counter.calls <= every_tick + len(script)
    assert engine.contract.state().cause is TerminationCause.MATURED
    last = rejections(engine)[-1]
    assert (last.timestamp, last.detail("reason")) == (10**12, "NotDue")


# -- timestamps --

def test_journal_timestamps_never_decrease():
    engine = make_engine(values=(5.0, 5.0, 5.0))
    engine.run()
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


def test_script_tick_must_fit_the_journal_timestamp():
    with pytest.raises(ScenarioParseError) as exc:
        parse_script(f"{2**64},SETTLEMENT,x\n")
    assert exc.value.line == 1
    assert parse_script(f"{2**64 - 1},SETTLEMENT,x\n") == [ScriptStep(2**64 - 1, E.SETTLEMENT, "x")]


def test_willful_agent_on_a_scripted_oracle_neither_crashes_nor_triggers():
    # a scripted oracle has no snapshot store, so there is nothing to project
    contract, clock, journal, ledger = make_contract()
    oracle = scripted_oracle(contract.spec, (300.0, -300.0, 300.0))
    agents = {p: WillfulAgent(threshold=0) for p in contract.spec.parties}
    Engine(contract, oracle, agents=agents).run()
    assert not any(agent.triggered for agent in agents.values())
    assert contract.state().cause is TerminationCause.MATURED
