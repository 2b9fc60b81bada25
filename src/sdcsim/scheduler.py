"""Event timeline and the one replay loop behind the three trigger regimes.

The timeline lays one cycle per settlement interval onto the integer
tick grid: wallets open at t_i, close `prefund_window` ticks later, the
margin check runs on the following tick, and valuation then settlement
share the period-end tick t_{i+1} (valuation strictly first). The final
cycle carries a MATURITY event that posts the termination fees back.

Every mode replays (tick, event, party) rows through one loop. Active
(the trusted third party) and passive (party A requests each event)
replay the timeline itself; driver replays a caller's script. Each row
goes through `request_event`, the single admissibility check: it runs
only if a contract party or the oracle account names the next-due
timeline event at that event's scheduled tick, with the clock on that
tick. Any other row (an early VALUATION, a late CLOSE_ACCOUNTS) changes
no state and is journaled as a rejection.

The loop visits every tick from inception to maturity while the contract
is live, running that tick's rows first and then the agent hooks, so
agents act identically in every mode. Past the final grid tick, or once
the contract has finished, it jumps from row to row. For the same
scenario the three modes therefore produce bit-identical journals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence

from .contract import ContractInstance, ContractSpec, Phase, SettleOutcome, TerminationCause
from .errors import MissingSnapshot, PreconditionFailed, ScenarioParseError, SdcError
from .journal import Clock, EventKind, EventRecord, Journal
from .ledger import AccountId, Ledger
from .valuation import SettlementAmount


class LifecycleEvent(str, Enum):
    OPEN_ACCOUNTS = "OPEN_ACCOUNTS"
    CLOSE_ACCOUNTS = "CLOSE_ACCOUNTS"
    MARGIN_CHECK = "MARGIN_CHECK"
    VALUATION = "VALUATION"
    SETTLEMENT = "SETTLEMENT"
    MATURITY = "MATURITY"


class Mode(str, Enum):
    ACTIVE = "active"
    PASSIVE = "passive"
    DRIVER = "driver"


@dataclass(frozen=True)
class TimelineEntry:
    tick: int
    kind: LifecycleEvent
    cycle: int


def build_timeline(spec: ContractSpec) -> list[TimelineEntry]:
    """One cycle per settlement interval; the last cycle carries MATURITY."""
    entries: list[TimelineEntry] = []
    grid = spec.settlement_times
    for i in range(spec.cycles):
        t_open = grid[i]
        t_settle = grid[i + 1]
        entries.append(TimelineEntry(t_open, LifecycleEvent.OPEN_ACCOUNTS, i))
        entries.append(TimelineEntry(t_open + spec.prefund_window, LifecycleEvent.CLOSE_ACCOUNTS, i))
        entries.append(TimelineEntry(t_open + spec.prefund_window + 1, LifecycleEvent.MARGIN_CHECK, i))
        entries.append(TimelineEntry(t_settle, LifecycleEvent.VALUATION, i))
        entries.append(TimelineEntry(t_settle, LifecycleEvent.SETTLEMENT, i))
    entries.append(TimelineEntry(grid[-1], LifecycleEvent.MATURITY, spec.cycles - 1))
    assert all(a.tick <= b.tick for a, b in zip(entries, entries[1:]))
    return entries


@dataclass(frozen=True)
class ScriptStep:
    tick: int
    kind: LifecycleEvent
    party: AccountId


def timeline_script(spec: ContractSpec, party: AccountId | None = None) -> list[ScriptStep]:
    requester = party if party is not None else spec.party_a
    return [ScriptStep(e.tick, e.kind, requester) for e in build_timeline(spec)]


def format_script(steps: Sequence[ScriptStep]) -> str:
    return "".join(f"{s.tick},{s.kind.value},{s.party}\n" for s in steps)


def parse_script(text: str) -> list[ScriptStep]:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ScenarioParseError("expected 'tick,event_kind,requesting_party'", line=lineno)
        try:
            tick = int(parts[0])
            kind = LifecycleEvent(parts[1].strip())
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line=lineno) from None
        steps.append(ScriptStep(tick, kind, parts[2].strip()))
    return steps


@dataclass(frozen=True)
class RequestOutcome:
    accepted: bool
    reason: str | None = None

    @classmethod
    def ok(cls) -> "RequestOutcome":
        return cls(accepted=True)

    @classmethod
    def rejected(cls, reason: str) -> "RequestOutcome":
        return cls(accepted=False, reason=reason)


class AgentPolicy(Protocol):
    def on_tick(self, engine: "Engine", party: AccountId) -> None: ...


class Oracle(Protocol):
    def query(self, binding, period_start: int, period_end: int) -> SettlementAmount: ...


@dataclass
class CycleRecord:
    """Per-cycle run log row: what the oracle said and what moved."""

    cycle: int
    period_start: int
    settle_tick: int
    value_end: float | None
    f_value: float
    amount: int
    payer: str
    receiver: str
    result: str


class Engine:
    """Single-threaded executor for one contract on one ledger."""

    def __init__(self, contract: ContractInstance, oracle: Oracle, clock: Clock,
                 journal: Journal, agents: dict[AccountId, AgentPolicy] | None = None,
                 oracle_account: AccountId | None = None):
        self.contract = contract
        self.oracle = oracle
        self.clock = clock
        self.journal = journal
        self.agents = agents or {}
        self.oracle_account = oracle_account
        self.timeline = build_timeline(contract.spec)
        self.cycle_log: list[CycleRecord] = []
        self.init_error: PreconditionFailed | None = None
        self._cursor = 0

    @property
    def ledger(self) -> Ledger:
        return self.contract.ledger

    @property
    def spec(self) -> ContractSpec:
        return self.contract.spec

    # -- the replay loop --

    def run(self, mode: Mode = Mode.ACTIVE, script: Sequence[ScriptStep] | None = None) -> None:
        """Replay `script` (driver mode) or the timeline (every other mode)."""
        if not self._initialize():
            return
        if mode is not Mode.DRIVER or script is None:
            script = timeline_script(self.spec)
        last = self.spec.settlement_times[-1]
        tick = self.clock.now()
        i = 0
        while True:
            self.clock.advance_to(tick)
            while i < len(script) and script[i].tick <= tick:
                step = script[i]
                i += 1
                outcome = self.request_event(step.party, step.kind, step.tick)
                if not outcome.accepted:
                    self._journal_rejection(step, outcome.reason)
            self._agent_hooks()
            if tick < last and not self._finished():
                tick += 1
            elif i < len(script):
                tick = script[i].tick  # nothing can fire in between: jump to the next row
            else:
                return

    def _initialize(self) -> bool:
        if self.contract.phase is not Phase.PRE_CHECK:
            return True
        start = self.spec.settlement_times[0]
        self.clock.advance_to(start)
        try:
            self.contract.initialize(start)
        except PreconditionFailed as exc:
            self.init_error = exc
            return False
        return True

    def request_event(self, party: AccountId, kind: LifecycleEvent, now: int) -> RequestOutcome:
        """Execute the event iff it is the next due timeline event, requested
        at its scheduled tick (which the clock must show) by a contract party
        or the oracle account. A rejection changes nothing."""
        if party not in self.spec.parties and party != self.oracle_account:
            return RequestOutcome.rejected("NotAuthorized")
        if self._cursor >= len(self.timeline):
            return RequestOutcome.rejected("NotDue")
        entry = self.timeline[self._cursor]
        if kind is not entry.kind or now != entry.tick or now != self.clock.now():
            return RequestOutcome.rejected("NotDue")
        self._cursor += 1
        try:
            self._fire(entry)
        except SdcError as exc:
            self._cursor -= 1
            return RequestOutcome.rejected(str(exc))
        return RequestOutcome.ok()

    def _journal_rejection(self, step: ScriptStep, reason: str) -> None:
        state = self.contract.state().label()
        self.journal.append(EventRecord.create(
            self.clock.now(), EventKind.STATE_TRANSITION, step.party,
            contract=self.spec.contract_id, src=state, dst=state, cause="rejected",
            event=step.kind.value, reason=reason))

    # -- event execution --

    def _fire(self, entry: TimelineEntry) -> None:
        c = self.contract
        if c.phase is Phase.ERROR:
            return
        if c.phase is Phase.TERMINATED:
            if (entry.kind is LifecycleEvent.MATURITY
                    and c.state().cause is TerminationCause.MATURED):
                c.return_fees()
            return
        now = self.clock.now()
        if entry.kind is LifecycleEvent.CLOSE_ACCOUNTS:
            c.close_accounts(now)
        elif entry.kind is LifecycleEvent.MARGIN_CHECK:
            c.margin_check()
        elif entry.kind is LifecycleEvent.VALUATION:
            self._run_valuation(entry)
        elif entry.kind is LifecycleEvent.SETTLEMENT:
            f = c.pending_valuation
            outcome = c.settle(f, now)
            self._log_cycle(entry, f, outcome)
        # OPEN_ACCOUNTS is a no-op (initialization and each settlement reopen
        # the wallets); MATURITY matters only once the contract matured (above).

    def _run_valuation(self, entry: TimelineEntry) -> None:
        grid = self.spec.settlement_times
        try:
            amount = self.oracle.query(self.spec.binding, grid[entry.cycle], grid[entry.cycle + 1])
        except MissingSnapshot as exc:
            self.contract.mark_error(str(exc))
            return
        self.contract.deliver_valuation(amount)

    def _log_cycle(self, entry: TimelineEntry, f: SettlementAmount,
                   outcome: SettleOutcome) -> None:
        self.cycle_log.append(CycleRecord(
            cycle=entry.cycle, period_start=self.spec.settlement_times[entry.cycle],
            settle_tick=entry.tick, value_end=f.value_end, f_value=outcome.value,
            amount=outcome.amount, payer=outcome.payer or "", receiver=outcome.receiver or "",
            result=outcome.result.value))

    def _agent_hooks(self) -> None:
        for party in self.spec.parties:
            policy = self.agents.get(party)
            if policy is not None:
                policy.on_tick(self, party)

    def _finished(self) -> bool:
        if self.contract.phase is Phase.ERROR:
            return True
        if self.contract.phase is Phase.TERMINATED:
            state = self.contract.state()
            return state.cause is not TerminationCause.MATURED or self.contract.fees_returned
        return False
