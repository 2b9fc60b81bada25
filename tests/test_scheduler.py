from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from sdcsim import (
    Engine,
    EventKind,
    Journal,
    LifecycleEvent,
    MarginOracle,
    MarketModel,
    MarketSnapshot,
    Mode,
    Phase,
    RequestOutcome,
    ScriptStep,
    SettlementAmount,
    TerminationCause,
    format_script,
    generate_path,
    parse_script,
    timeline_script,
)
from sdcsim.errors import ScenarioParseError, WrongState
from sdcsim.simulator import CompliantAgent, PolicySpec, WillfulAgent, make_policy

from conftest import make_contract, make_spec, make_world, scripted_oracle
from support import path_of

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
    oracle = MarginOracle(path_of([MarketSnapshot(as_of=0, spot=100.0, zero_rate=0.0)]),
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
    contract.initialize()  # the clock is at inception, tick 0
    stranger = engine.contract.ledger.open_account("stranger")

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


def test_only_parties_and_a_set_oracle_account_may_request():
    bare = make_engine()  # built without an oracle account
    bare.contract.initialize()
    blocks = len(bare.journal)
    assert bare.request_event(None, E.OPEN_ACCOUNTS, 0) == (False, "NotAuthorized")
    assert len(bare.journal) == blocks
    assert bare.request_event(bare.spec.party_b, E.OPEN_ACCOUNTS, 0).accepted

    contract = make_engine().contract
    oracle = contract.ledger.open_account("oracle")
    engine = Engine(contract, scripted_oracle(contract.spec, (0.0,) * 3), oracle_account=oracle)
    contract.initialize()
    assert engine.request_event(None, E.OPEN_ACCOUNTS, 0).reason == "NotAuthorized"
    assert engine.request_event(oracle, E.OPEN_ACCOUNTS, 0).accepted


@pytest.mark.parametrize("now,refusal", [(0, WrongState), (5, ValueError)])
def test_run_refuses_a_contract_already_initialized(now, refusal):
    """`run` initializes the contract at inception itself, so it has no resume: with the clock
    at inception `initialize` refuses a second start, and past it the clock refuses to go back.
    Either way the run changes nothing."""
    engine = make_engine()
    engine.contract.initialize()
    engine.clock.advance_to(now)
    state, blocks = engine.contract.state(), len(engine.journal)
    with pytest.raises(refusal):
        engine.run()
    assert (engine.contract.state(), len(engine.journal), engine.clock.now()) == (state, blocks, now)


def test_rejected_requests_change_nothing():
    engine = make_engine()
    engine.contract.initialize()
    state = engine.contract.state()
    blocks = len(engine.journal)
    assert not engine.request_event(engine.spec.party_a, E.SETTLEMENT, 0).accepted
    assert engine.contract.state() == state
    assert len(engine.journal) == blocks


class LateValuations:
    """Oracle fake: every period is valued one tick after its settlement tick."""

    def query(self, period_start: int, period_end: int) -> SettlementAmount:
        return SettlementAmount(5.0, period_end + 1)


def test_a_refused_event_leaves_its_row_due():
    contract, clock, journal, _ = make_contract()
    engine = Engine(contract, LateValuations())
    a, b = contract.spec.parties
    contract.initialize()
    contract.deposit_margin(a, 400)
    contract.deposit_margin(b, 400)
    for row in engine.timeline:
        clock.advance_to(row.tick)
        if row.kind is E.VALUATION:
            break
        assert engine.request_event(a, row.kind, row.tick).accepted
    assert (row.kind, row.tick) == (E.VALUATION, 10)
    blocks = len(journal)
    assert engine.request_event(a, E.VALUATION, 10) == RequestOutcome(
        False, "valuation is for tick 11, settlement due 10")
    assert len(journal) == blocks
    assert contract.label == "AwaitValuation[settleAt=10]"

    engine.oracle = scripted_oracle(contract.spec, (5.0, 0.0, 0.0))
    assert engine.request_event(a, E.VALUATION, 10).accepted  # the refused row stayed due
    assert contract.phase is Phase.MARGIN_CALCULATION


# -- driver scripts --

def test_driver_replay_of_active_sequence_is_bit_identical():
    timeline = make_engine(values=(7.0, -3.0, 2.0))
    timeline.run()
    assert timeline.contract.state().cause is TerminationCause.MATURED

    driver = make_engine(values=(7.0, -3.0, 2.0))
    driver.run(script=timeline_script(driver.spec))
    assert driver.journal.final_hash() == timeline.journal.final_hash()
    assert driver.contract.ledger.to_csv() == timeline.contract.ledger.to_csv()


def requested_by_party_b(spec):
    return [s._replace(party=spec.party_b) for s in timeline_script(spec)]


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
    script = script[:i] + [script[i]._replace(tick=tick)] + script[i + 1:]
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


# -- wake phases --

class CountingCompliant(CompliantAgent):
    wakes = frozenset({Phase.ACCOUNTS_OPEN})  # the phase alone: hooked on every open-window tick

    def __init__(self):
        self.calls = 0

    def on_tick(self, engine, party):
        self.calls += 1
        super().on_tick(engine, party)


def count_visits(engine, monkeypatch) -> list[int]:
    """Record every tick `run` moves the clock to, the inception tick included."""
    visits = []
    advance_to = engine.clock.advance_to
    monkeypatch.setattr(engine.clock, "advance_to", lambda t: visits.append(t) or advance_to(t))
    return visits


@pytest.mark.parametrize("grid,window", [((0, 10, 20, 30), 3), ((4, 9, 30), 1), ((0, 12), 11)])
def test_declared_policies_are_hooked_only_in_open_windows(monkeypatch, grid, window):
    engine = make_engine(values=(0.0,) * (len(grid) - 1), compliant=False, grid=grid,
                         window=window)
    agents = {p: CountingCompliant() for p in engine.spec.parties}
    engine.agents.update(agents)  # assigned after construction, and honoured
    visits = count_visits(engine, monkeypatch)
    engine.run()
    cycles = engine.spec.cycles
    assert engine.contract.state().cause is TerminationCause.MATURED
    assert [agent.calls for agent in agents.values()] == [window * cycles] * 2
    assert len(visits) <= (window + 2) * cycles + 1
    assert visits == sorted(set(visits)) and visits[-1] == grid[-1] == engine.clock.now()


class CountingOnRows(CountingCompliant):
    wakes = CompliantAgent.wakes


@pytest.mark.parametrize("grid,window", [((0, 10, 20, 30), 3), ((4, 9, 30), 1), ((0, 12), 11)])
def test_a_compliant_pair_is_hooked_once_per_open_window_row_tick(monkeypatch, grid, window):
    """Each window opens at a row's tick (inception, then each settlement), and the pair is
    hooked there and nowhere else: the loop visits the timeline's row ticks only."""
    engine = make_engine(values=(0.0,) * (len(grid) - 1), compliant=False, grid=grid,
                         window=window)
    agents = {p: CountingOnRows() for p in engine.spec.parties}
    engine.agents.update(agents)
    visits = count_visits(engine, monkeypatch)
    engine.run()
    assert engine.contract.state().cause is TerminationCause.MATURED
    assert sum(agent.calls for agent in agents.values()) == 2 * engine.spec.cycles
    assert visits == sorted({step.tick for step in engine.timeline})


def test_a_willful_partner_keeps_every_open_window_tick_visited():
    engine = make_engine(compliant=False)
    a, b = engine.spec.parties
    engine.agents.update({a: CountingOnRows(), b: WillfulAgent(threshold=10**9)})
    engine.run()
    assert engine.agents[a].calls == engine.spec.prefund_window * engine.spec.cycles


def test_a_subclass_without_its_own_wakes_is_hooked_on_every_tick(monkeypatch):
    engine = make_engine()
    counter = engine.agents[engine.spec.party_b] = CountingAgent()  # overrides on_tick only
    visits = count_visits(engine, monkeypatch)
    engine.run()
    grid = engine.spec.settlement_times
    assert counter.calls == len(visits) == grid[-1] - grid[0] + 1
    assert engine.contract.state().cause is TerminationCause.MATURED


@pytest.mark.parametrize("script,now", [
    (lambda spec: [s for s in timeline_script(spec) if s.tick < 20], 30),  # stops awaiting
    (lambda spec: [s for s in timeline_script(spec) if s.tick < 10], 30),  # stops open
    (lambda spec: timeline_script(spec) + [ScriptStep(99, E.MATURITY, spec.party_a)], 99),
    (lambda spec: [], 30),
])
def test_skipping_ends_the_clock_where_stepping_every_tick_does(script, now):
    """A skip stops at the final grid tick, as a step through every tick does."""
    for policy in (CompliantAgent, CountingAgent):
        engine = make_engine(compliant=False)
        engine.agents.update({p: policy() for p in engine.spec.parties})
        engine.run(script=script(engine.spec))
        assert engine.clock.now() == now


@st.composite
def engine_cases(draw):
    """A small grid and window, two built-in policies, party A's funding, a GBM
    path and up to three edits to the timeline: a row cut, or moved to another tick."""
    cycles = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.integers(2, 7), min_size=cycles, max_size=cycles))
    grid = tuple(accumulate(gaps, initial=draw(st.integers(0, 3))))
    window = draw(st.integers(1, min(gaps) - 1))
    policy = st.one_of(
        st.just(PolicySpec("compliant")),
        st.builds(PolicySpec, st.just("defaulting"), st.integers(0, cycles)),
        st.builds(PolicySpec, st.just("willful"), st.sampled_from([0, 300, 10**9])))
    edit = st.tuples(st.sampled_from(["cut", "move"]), st.integers(0, 5 * cycles),
                     st.integers(0, grid[-1] + 3))
    return dict(grid=grid, window=window, margin=draw(st.sampled_from([100, 400, 5000])),
                policies=(draw(policy), draw(policy)),
                funding_a=draw(st.sampled_from([5_600, 100_000])),
                volatility=draw(st.sampled_from([0.0, 0.3, 1.5])),
                seed=draw(st.integers(0, 2**16)),
                edits=draw(st.none() | st.lists(edit, max_size=3)))


def run_case(case, every_tick: bool):
    """Run `case` with the built-in policies, or with each wrapped in a subclass
    that declares no `wakes` and so is hooked on every tick."""
    contract, clock, journal, _ = make_contract(grid=case["grid"], window=case["window"],
                                                margin=case["margin"],
                                                funding_a=case.get("funding_a", 100_000))
    spec = contract.spec
    path = generate_path(MarketModel(100.0, 0.01, case["volatility"], 0.0, spec.tick_years),
                         case["seed"], spec.settlement_times[-1] + 1)
    oracle = MarginOracle(path, spec.product, spec.pricer_version, spec.tick_years)
    agents = {}
    for party, policy_spec in zip(spec.parties, case["policies"]):
        policy = agents[party] = make_policy(policy_spec)
        if every_tick:
            policy.__class__ = type("Undeclared", (type(policy),), {})
    script = None
    if case["edits"] is not None:
        script = timeline_script(spec)
        for op, at, tick in case["edits"]:
            step = script.pop(at % len(script)) if script else None
            if op == "move" and step is not None:
                script.append(step._replace(tick=tick))
                script.sort(key=lambda s: s.tick)
    Engine(contract, oracle, agents=agents).run(script=script)
    return journal.payloads(), clock.now(), agents


def assert_skipping_is_exact(case):
    payloads, now, agents = run_case(case, every_tick=False)
    assert run_case(case, every_tick=True)[:2] == (payloads, now)
    return agents


@settings(max_examples=40, deadline=None)
@given(engine_cases())
@example(dict(grid=(0, 6, 12, 18), window=2, margin=400, volatility=0.0, seed=0, edits=[],
              policies=(PolicySpec("defaulting", 1), PolicySpec("compliant"))))
# a compliant pair whose first CLOSE_ACCOUNTS row moves off its tick, so the window never closes
@example(dict(grid=(0, 6, 12, 18, 24), window=3, margin=5000, volatility=0.3, seed=4,
              edits=[("move", 1, 5)], policies=(PolicySpec("compliant"), PolicySpec("compliant"))))
# A, defaulting from cycle 3, tops up 188 at tick 6, then only the 212 it has left at tick 12
@example(dict(grid=(0, 6, 12, 18, 24), window=3, margin=5000, volatility=0.3, seed=8,
              edits=None, funding_a=5_600,
              policies=(PolicySpec("defaulting", 3), PolicySpec("compliant"))))
def test_skipping_ticks_changes_no_journal_byte_and_no_final_tick(case):
    """The built-in compliant and defaulting policies, hooked only at row ticks in an open
    window, journal what `Undeclared` copies of them, hooked on every tick, journal."""
    assert_skipping_is_exact(case)


def test_a_willful_trigger_skips_ticks_exactly_too():
    case = dict(grid=(0, 6, 12, 18, 24), window=3, margin=400, volatility=1.5, seed=3,
                edits=None, policies=(PolicySpec("willful", 0), PolicySpec("willful", 0)))
    agents = assert_skipping_is_exact(case)
    assert any(agent.triggered for agent in agents.values())


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
    parsed = parse_script(format_script(steps))
    assert parsed == steps
    # `==` compares plain tuples; `_replace` and field access need the exact type
    assert {type(step) for step in steps + parsed} == {ScriptStep}


def test_script_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioParseError) as exc:
        parse_script("0,OPEN_ACCOUNTS,a\nnot-a-row\n")
    assert exc.value.line == 2


def test_script_skips_blank_whitespace_and_comment_lines():
    rows = "0,OPEN_ACCOUNTS,a\n3,CLOSE_ACCOUNTS,b\n"
    padded = "\n   \n# a comment\n0,OPEN_ACCOUNTS,a\n\t\n  # indented\n3,CLOSE_ACCOUNTS,b\n\n"
    assert parse_script(padded) == parse_script(rows) == [
        ScriptStep(0, E.OPEN_ACCOUNTS, "a"), ScriptStep(3, E.CLOSE_ACCOUNTS, "b")]
    with pytest.raises(ScenarioParseError) as exc:
        parse_script(padded + "not-a-row\n")
    assert exc.value.line == 9  # its own line, the skipped lines counted


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
