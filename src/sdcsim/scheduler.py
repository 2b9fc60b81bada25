"""Event timeline and the one replay loop behind the three trigger regimes.

The timeline (`timeline_script`) lays one cycle per settlement interval
onto the integer tick grid: wallets open at t_i, close `prefund_window`
ticks later, the margin check runs on the next tick, and valuation then
settlement share the period-end tick t_{i+1} (valuation strictly first).
The final cycle carries a MATURITY event that posts the fees back.

`Engine.run` replays (tick, event, party) rows through one loop: the
engine's timeline or a caller's script. Each row goes through
`request_event`, the single admissibility check: it runs only if a
contract party or the engine's oracle account (when it has one) names the
next-due timeline row's event at its scheduled tick, with the clock on that
tick. Any other row (an early VALUATION, a late CLOSE_ACCOUNTS, one from an
outsider) changes no state and is journaled as a rejection.

While the contract is live, the loop steps from inception to maturity,
running each tick's rows and then the agent hooks, so agents act the same
whoever requests the events. A policy declaring `wakes` is hooked only in
those phases, and one with `ON_ROWS` in its `wakes` acts only on what a row
changes. When no hooked policy can act between rows in the current phase,
the loop steps straight to the next row. Past the final grid tick, or once
the contract is final, it jumps from row to row. So any party requesting
the timeline's rows yields one journal, bit for bit.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from typing import NamedTuple, Protocol, Sequence

from .contract import FINAL_PHASES, ContractInstance, ContractSpec, TerminationCause
from .errors import PreconditionFailed, ScenarioParseError, SdcError
from .journal import REJECTION
from .ledger import AccountId
from .valuation import SettlementAmount


class LifecycleEvent(str, Enum):
    OPEN_ACCOUNTS = "OPEN_ACCOUNTS"
    CLOSE_ACCOUNTS = "CLOSE_ACCOUNTS"
    MARGIN_CHECK = "MARGIN_CHECK"
    VALUATION = "VALUATION"
    SETTLEMENT = "SETTLEMENT"
    MATURITY = "MATURITY"


class ScriptStep(NamedTuple):
    tick: int
    kind: LifecycleEvent
    party: AccountId


def timeline_script(spec: ContractSpec) -> list[ScriptStep]:
    """The timeline: one cycle per settlement interval, the last cycle
    carrying MATURITY, every event requested by party A."""
    window, grid, E = spec.prefund_window, spec.settlement_times, LifecycleEvent
    opens, settles = grid[:-1], grid[1:]
    ticks = [*chain.from_iterable(zip(opens, map(window.__add__, opens),
                                      map((window + 1).__add__, opens), settles, settles)),
             grid[-1]]
    kinds = ((E.OPEN_ACCOUNTS, E.CLOSE_ACCOUNTS, E.MARGIN_CHECK, E.VALUATION, E.SETTLEMENT)
             * len(opens) + (E.MATURITY,))
    # `tuple.__new__` is what `ScriptStep._make` calls, without its Python frame per row
    return list(map(tuple.__new__, repeat(ScriptStep), zip(ticks, kinds, repeat(spec.party_a))))


_EVENTS = {kind.value: kind for kind in LifecycleEvent}


def format_script(steps: Sequence[ScriptStep]) -> str:
    return "".join(f"{s.tick},{s.kind._value_},{s.party}\n" for s in steps)  # `.value`: ~0.3 us


def parse_script(text: str) -> list[ScriptStep]:
    ticks, kinds, parties = [], [], []  # columns: freed row tuples would fragment the heap
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ScenarioParseError("expected 'tick,event_kind,requesting_party'", line=lineno)
        try:
            tick = int(parts[0])
            if tick >= 1 << 64:
                raise ValueError(f"tick {tick} does not fit the journal's 8-byte timestamp")
            # the constructor only for an unknown kind, whose ValueError it words
            kind = _EVENTS.get(parts[1].strip()) or LifecycleEvent(parts[1].strip())
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line=lineno) from None
        ticks.append(tick)
        kinds.append(kind)
        parties.append(parts[2].strip())
    return list(map(tuple.__new__, repeat(ScriptStep), zip(ticks, kinds, parties)))


class RequestOutcome(NamedTuple):
    accepted: bool
    reason: str | None = None


ACCEPTED = RequestOutcome(True)
ON_ROWS = "on-rows"  # in a policy's `wakes`: it reads only what a row or its own hook changes


class AgentPolicy(Protocol):
    """Hooked on every tick `Engine.run` visits, or only in the phases its class declares in
    its own `wakes` (a frozenset, not inherited); with `ON_ROWS` in it, on no tick between rows."""

    def on_tick(self, engine: "Engine", party: AccountId) -> None: ...


class Oracle(Protocol):
    def query(self, period_start: int, period_end: int) -> SettlementAmount: ...
    def value(self, period_end: int, as_of: int) -> float: ...


# What each event runs on a live contract, given the engine: OPEN_ACCOUNTS nothing (initialization
# and each settlement reopen the wallets), MATURITY nothing (it matters once the contract is final).
# Module-level: a per-engine table of its bound methods would hold each engine in a reference cycle.
_HANDLERS = {LifecycleEvent.CLOSE_ACCOUNTS: lambda engine: engine.contract.close_accounts(),
             LifecycleEvent.MARGIN_CHECK: lambda engine: engine.contract.margin_check(),
             LifecycleEvent.VALUATION: lambda engine: engine._run_valuation(),
             LifecycleEvent.SETTLEMENT: lambda engine: engine.contract.settle()}


class Engine:
    """Single-threaded executor for one contract, on its ledger's clock and journal."""

    def __init__(self, contract: ContractInstance, oracle: Oracle,
                 agents: dict[AccountId, AgentPolicy] | None = None,
                 oracle_account: AccountId | None = None):
        self.contract = contract
        self.oracle = oracle
        self.clock = contract.ledger.clock
        self.journal = contract.ledger.journal
        self.agents = agents or {}
        self.oracle_account = oracle_account
        self.timeline = timeline_script(contract.spec)
        self._cursor = 0
        # fixed here: the parties, and the oracle account unless there is none
        self._requesters = {*contract.spec.parties, oracle_account} - {None}

    @property
    def spec(self) -> ContractSpec:
        return self.contract.spec

    # -- the replay loop --

    def run(self, script: Sequence[ScriptStep] | None = None) -> None:
        """Move the clock to inception and initialize the contract there, then replay `script`,
        or the timeline when it is None, advancing the clock once per visited tick. A refused
        initialization ends the run; a contract past `PreCheck` raises."""
        self.clock.advance_to(self.spec.settlement_times[0])
        try:
            self.contract.initialize()
        except PreconditionFailed:
            return
        if script is None:
            script = self.timeline
        hooks = [(party, policy.on_tick, vars(type(policy)).get("wakes"))
                 for party in self.spec.parties if (policy := self.agents.get(party)) is not None]
        # the phases some hooked policy acts in between rows; None when one acts in every phase
        stepping = [wakes for *_, wakes in hooks if ON_ROWS not in (wakes or ())]
        awake = None if None in stepping else frozenset().union(*stepping)
        contract, clock, request = self.contract, self.clock, self.request_event
        last = self.spec.settlement_times[-1]
        tick = clock.now()
        i, n = 0, len(script)
        while True:
            while i < n and script[i].tick <= tick:
                step = script[i]
                i += 1
                outcome = request(step.party, step.kind, step.tick)
                if not outcome.accepted:
                    self._journal_rejection(step, outcome.reason)
            phase = contract.phase  # and again after each hook that ran: it may request an event
            for party, on_tick, wakes in hooks:
                if wakes is None or phase in wakes:
                    on_tick(self, party)
                    phase = contract.phase
            if tick < last and phase not in FINAL_PHASES:
                if awake is None or phase in awake:
                    tick += 1
                else:  # no policy acts before the next row, which alone changes what they read
                    tick = script[i].tick if i < n else last
            elif i < n:
                tick = script[i].tick  # nothing can fire in between: jump to the next row
            else:
                return
            clock.advance_to(tick)  # every branch above moved the tick forward

    def request_event(self, party: AccountId, kind: LifecycleEvent, now: int) -> RequestOutcome:
        """Execute the event iff it is the next due timeline event, requested
        at its scheduled tick (which the clock must show) by a contract party
        or the oracle account the engine was built with, if any. A rejection
        changes nothing."""
        if party not in self._requesters:
            return RequestOutcome(False, "NotAuthorized")
        if self._cursor >= len(self.timeline):
            return RequestOutcome(False, "NotDue")
        due = self.timeline[self._cursor]
        if kind is not due.kind or now != due.tick or now != self.clock.now():
            return RequestOutcome(False, "NotDue")
        c = self.contract
        try:
            if not c.is_final:
                if (handler := _HANDLERS.get(kind)) is not None:
                    handler(self)
            # once final, ERROR runs nothing and TERMINATED only the fee return after maturity
            elif kind is LifecycleEvent.MATURITY and c.state().cause is TerminationCause.MATURED:
                c.return_fees()
        except SdcError as exc:
            return RequestOutcome(False, str(exc))
        self._cursor += 1
        return ACCEPTED

    def _journal_rejection(self, step: ScriptStep, reason: str) -> None:
        state, cid = self.contract.label, self.spec.contract_id
        self.journal.append(REJECTION.pack(self.clock.now(), step.party, "rejected", cid, state,
                                           step.kind.value, reason, state))

    # -- event execution --

    def _run_valuation(self) -> None:
        grid, cycle = self.spec.settlement_times, self.contract.cycle
        try:
            amount = self.oracle.query(grid[cycle], grid[cycle + 1])
        except SdcError as exc:  # any refusal by the oracle or its pricer
            self.contract.mark_error(str(exc))
            return
        self.contract.deliver_valuation(amount)
