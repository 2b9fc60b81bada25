"""Derivative contract lifecycle state machine.

One instance walks a fixed settlement grid t_0 < t_1 < ... < t_n. Each
cycle i runs: accounts open at t_i for `prefund_window` ticks (the only
window in which parties may move margin), accounts close, margin buckets
are checked against the required buffers, the period's settlement amount
is delivered by the oracle and journaled, and the settlement executes at
t_{i+1}.

Termination is total and absorbing, with exactly three causes:

  * INSUFFICIENT_PREFUND -- a margin bucket below its buffer at the check;
    the deficient party's fee bucket crosses to the other party.
  * SETTLEMENT_FAILED -- the owed amount exceeds the payer's margin bucket;
    the whole bucket settles partially and the payer's fee crosses.
  * MATURED -- the final settlement executed; margin remainders return
    immediately and both fee buckets are posted back to their owners.

An oracle failure instead ends the contract in ERROR, which is absorbing
as well: nothing leaves it, and both margin and fee buckets stay locked.
The locked amounts remain on the ledger (`MARGIN:`/`FEE:` rows of its
CSV export) and in each party's wealth.

Every transition, transfer and termination is journaled; a failed call
raises and changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (
    AccountsNotOpen,
    NotAParty,
    PreconditionFailed,
    TimestampMismatch,
    TooEarly,
    WrongState,
)
from .journal import (FAILED_TERMINATION, MATURED_TERMINATION, PREFUND_TERMINATION, SETTLEMENT,
                      SYSTEM_ACTOR, TRANSITION, VALUATION, RecordShape)
from .ledger import AccountId, Bucket, Ledger, check_amount
from .valuation import MATURITY_TOLERANCE, Product, SettlementAmount, round_to_minor_units


class Phase(str, Enum):
    PRE_CHECK = "PreCheck"
    ACCOUNTS_OPEN = "AccountsOpen"
    MARGIN_CHECK = "MarginCheck"
    AWAIT_VALUATION = "AwaitValuation"
    MARGIN_CALCULATION = "MarginCalculation"
    SETTLED = "Settled"
    TERMINATED = "Terminated"
    ERROR = "Error"


# the members as module names: a lookup on an Enum class (`Phase.ERROR`) costs ~0.2 us
(PRE_CHECK, ACCOUNTS_OPEN, MARGIN_CHECK, AWAIT_VALUATION, MARGIN_CALCULATION, SETTLED, TERMINATED,
 ERROR) = Phase
MARGIN, FEE = Bucket.MARGIN, Bucket.FEE
FINAL_PHASES = frozenset({TERMINATED, ERROR})


class TerminationCause(str, Enum):
    INSUFFICIENT_PREFUND = "INSUFFICIENT_PREFUND"
    SETTLEMENT_FAILED = "SETTLEMENT_FAILED"
    MATURED = "MATURED"


# the label of a state in each phase that carries a field; any other is labelled by its value
_LABELS = {
    ACCOUNTS_OPEN: lambda s: f"AccountsOpen[until={s.until}]",
    AWAIT_VALUATION: lambda s: f"AwaitValuation[settleAt={s.settle_at}]",
    SETTLED: lambda s: f"Settled[{s.cycle}]",
    TERMINATED: lambda s: f"Terminated[{s.cause.value}@{s.at}]",
    ERROR: lambda s: f"Error[{s.detail}]",
}


class ContractState(NamedTuple):
    phase: Phase
    until: int | None = None          # ACCOUNTS_OPEN: first tick with access denied
    settle_at: int | None = None      # AWAIT_VALUATION / MARGIN_CALCULATION
    cycle: int | None = None          # SETTLED
    cause: TerminationCause | None = None
    at: int | None = None             # TERMINATED
    detail: str | None = None         # ERROR

    def label(self) -> str:
        render = _LABELS.get(self.phase)
        return self.phase._value_ if render is None else render(self)  # `.value` costs ~0.3 us


@dataclass(frozen=True)
class ContractSpec:
    """Full deterministic contract terms agreed at inception."""

    contract_id: str
    party_a: AccountId
    party_b: AccountId
    product: Product
    settlement_times: tuple[int, ...]   # ticks t_0..t_n; t_0 is inception, t_n maturity
    margin_a: int
    margin_b: int
    fee_a: int
    fee_b: int
    prefund_window: int                 # ticks of wallet access after each settlement
    pricer_version: str
    tick_years: float

    def __post_init__(self):
        for name in ("margin_a", "margin_b", "fee_a", "fee_b"):
            if check_amount(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be positive")
        grid = self.settlement_times
        if len(grid) < 2:
            raise ValueError("need at least inception and one settlement time")
        if grid[0] < 0:
            raise ValueError(f"inception tick must be non-negative, got {grid[0]}")
        if any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
            raise ValueError("settlement times must be strictly increasing")
        gap = min(t2 - t1 for t1, t2 in zip(grid, grid[1:]))
        if not 1 <= self.prefund_window < gap:
            raise ValueError(f"prefund window must be in [1, {gap}), got {self.prefund_window}")
        if not self.tick_years > 0:
            raise ValueError("tick_years must be positive")
        grid_maturity = grid[-1] * self.tick_years
        if not abs(self.product.maturity - grid_maturity) <= MATURITY_TOLERANCE:
            raise ValueError(f"product maturity {self.product.maturity} does not sit on the "
                             f"final grid tick ({grid_maturity})")
        if self.party_a == self.party_b:
            raise ValueError("contract needs two distinct parties")

    @property
    def parties(self) -> tuple[AccountId, AccountId]:
        return (self.party_a, self.party_b)

    @property
    def cycles(self) -> int:
        return len(self.settlement_times) - 1

    def margin_required(self, party: AccountId) -> int:
        return self.margin_a if party == self.party_a else self.margin_b

    def fee(self, party: AccountId) -> int:
        return self.fee_a if party == self.party_a else self.fee_b

    def other(self, party: AccountId) -> AccountId:
        return self.party_b if party == self.party_a else self.party_a

    def payer_receiver(self, value: float) -> tuple[str, str]:
        """Who pays whom a settlement value: positive means B pays A; ("", "") at zero."""
        if value > 0:
            return self.party_b, self.party_a
        if value < 0:
            return self.party_a, self.party_b
        return "", ""


class ContractInstance:
    """A single contract bound to a ledger, on that ledger's journal and clock."""

    def __init__(self, spec: ContractSpec, ledger: Ledger):
        for party in spec.parties:
            ledger.balance_of(party)  # parties must exist on this ledger
        self.spec = spec
        self.ledger = ledger
        self._append, self._now = ledger.journal.append, ledger.clock.now  # bound once
        self._state = ContractState(PRE_CHECK)
        self._label = self._state.label()  # rendered once per state, by `_transition`
        self.cycle = 0
        self.pending_valuation: SettlementAmount | None = None

    # -- reads --

    def state(self) -> ContractState:
        return self._state

    @property
    def label(self) -> str:
        """`state().label()`, as the last transition journaled it."""
        return self._label

    @property
    def phase(self) -> Phase:
        return self._state.phase

    @property
    def is_final(self) -> bool:
        return self._state.phase in FINAL_PHASES

    def margin_bucket(self, party: AccountId) -> int:
        return self.ledger.segregated_balance(self.spec.contract_id, party, MARGIN)

    def fee_bucket(self, party: AccountId) -> int:
        return self.ledger.segregated_balance(self.spec.contract_id, party, FEE)

    # -- helpers --

    def _require_party(self, party: AccountId) -> None:
        if party not in self.spec.parties:
            raise NotAParty(f"{party} is not a party to {self.spec.contract_id}")

    def _transition(self, new: ContractState, cause: str) -> None:
        old, self._label = self._label, new.label()
        self._state = new
        self._append(TRANSITION.pack(self._now(), SYSTEM_ACTOR, cause, self.spec.contract_id,
                                     self._label, old))

    def _release(self, party: AccountId, bucket: Bucket, amount: int, to: AccountId) -> None:
        if amount > 0:
            self.ledger.release_segregated(self.spec.contract_id, party, bucket,
                                           amount, to, actor=SYSTEM_ACTOR)

    def _journal(self, shape: RecordShape, *values) -> None:
        """Journal a `shape` record by the system, now; `values` in its key order."""
        self._append(shape.pack(self._now(), SYSTEM_ACTOR, *values))

    # -- lifecycle operations --

    def initialize(self) -> None:
        """Lock both termination fees and open the first prefunding window.

        Requires each party's free balance to cover its fee top-up plus
        first margin buffer; refuses (naming the deficient party) without
        touching the ledger otherwise.
        """
        if self._state.phase is not PRE_CHECK:
            raise WrongState(f"{self.spec.contract_id} already initialized")
        top_ups = {}
        for party in self.spec.parties:
            top_up = max(0, self.spec.fee(party) - self.fee_bucket(party))
            need = top_up + self.spec.margin_required(party)
            if self.ledger.balance_of(party) < need:
                raise PreconditionFailed(
                    party, f"{party} holds {self.ledger.balance_of(party)}, "
                           f"needs {need} (fee plus margin buffer)")
            top_ups[party] = top_up
        for party in self.spec.parties:
            if top_ups[party]:
                self.ledger.lock_segregated(self.spec.contract_id, party, FEE,
                                            top_ups[party], actor=SYSTEM_ACTOR)
        self._transition(ContractState(ACCOUNTS_OPEN, until=self._now() + self.spec.prefund_window),
                         cause="initialized")

    def deposit_margin(self, party: AccountId, amount: int) -> None:
        self._require_party(party)
        if self._state.phase is not ACCOUNTS_OPEN:
            raise AccountsNotOpen(f"margin wallet closed in {self._label}")
        self.ledger.lock_segregated(self.spec.contract_id, party, MARGIN, amount, actor=party)

    def withdraw_margin(self, party: AccountId, amount: int) -> None:
        self._require_party(party)
        if self._state.phase is not ACCOUNTS_OPEN:
            raise AccountsNotOpen(f"margin wallet closed in {self._label}")
        self.ledger.release_segregated(self.spec.contract_id, party, MARGIN,
                                       amount, party, actor=party)

    def deposit_fee(self, party: AccountId, amount: int) -> None:
        """Fee posting is legal only before initialization completes."""
        self._require_party(party)
        if self._state.phase is not PRE_CHECK:
            raise WrongState("termination fee can only be posted at inception")
        self.ledger.lock_segregated(self.spec.contract_id, party, FEE, amount, actor=party)

    def withdraw_fee(self, party: AccountId, amount: int) -> None:
        """Fee withdrawal is legal only after regular termination at maturity."""
        self._require_party(party)
        if not (self._state.phase is TERMINATED
                and self._state.cause is TerminationCause.MATURED):
            raise WrongState("termination fee is locked until the contract matures")
        self.ledger.release_segregated(self.spec.contract_id, party, FEE, amount, party, actor=party)

    def close_accounts(self) -> None:
        if self._state.phase is not ACCOUNTS_OPEN:
            raise WrongState(f"cannot close accounts in {self._label}")
        now = self._now()
        if now < self._state.until:
            raise TooEarly(f"window open until tick {self._state.until}, now {now}")
        self._transition(ContractState(MARGIN_CHECK), cause="window-closed")

    def margin_check(self) -> None:
        """Verify both margin buckets cover their buffers; terminate otherwise."""
        if self._state.phase is not MARGIN_CHECK:
            raise WrongState(f"no margin check due in {self._label}")
        deficient = tuple(p for p in self.spec.parties
                          if self.margin_bucket(p) < self.spec.margin_required(p))
        if not deficient:
            settle_at = self.spec.settlement_times[self.cycle + 1]
            self._transition(ContractState(AWAIT_VALUATION, settle_at=settle_at),
                             cause="margins-sufficient")
            return
        # Termination for insufficient prefunding: each deficient party's fee
        # bucket crosses to the counterparty; margins and surviving fees return.
        for party in self.spec.parties:
            if party in deficient:
                self._release(party, FEE, self.fee_bucket(party), self.spec.other(party))
        for party in self.spec.parties:
            self._release(party, MARGIN, self.margin_bucket(party), party)
            if party not in deficient:
                self._release(party, FEE, self.fee_bucket(party), party)
        now = self._now()
        self._journal(PREFUND_TERMINATION, TerminationCause.INSUFFICIENT_PREFUND.value,
                      self.spec.contract_id, ",".join(deficient), now)
        self._transition(ContractState(TERMINATED,
                                       cause=TerminationCause.INSUFFICIENT_PREFUND, at=now),
                         cause="margin-prefunding-insufficient")

    def deliver_valuation(self, amount: SettlementAmount) -> None:
        """Journal the period's delivered valuation and await its settlement."""
        if self._state.phase is not AWAIT_VALUATION:
            raise WrongState(f"no valuation awaited in {self._label}")
        if amount.as_of != self._state.settle_at:
            raise TimestampMismatch(
                f"valuation is for tick {amount.as_of}, settlement due {self._state.settle_at}")
        self.pending_valuation = amount
        self._journal(VALUATION, self.spec.contract_id, amount.as_of,
                      self.spec.settlement_times[self.cycle], self.spec.pricer_version,
                      repr(amount.value))
        self._transition(ContractState(MARGIN_CALCULATION, settle_at=self._state.settle_at),
                         cause="valuation-delivered")

    def settle(self) -> None:
        """Execute the delivered valuation out of the payer's margin bucket.

        Covered amounts keep the contract alive (reopening the wallets) or
        mature it on the final grid time; an uncovered amount settles
        partially with the whole bucket, crosses the payer's fee and
        terminates.
        """
        if self._state.phase is not MARGIN_CALCULATION:
            raise WrongState(f"cannot settle in {self._label}")
        due = self._state.settle_at
        now = self._now()
        if now < due:
            raise TooEarly(f"settlement due at tick {due}, now {now}")
        if now > due:
            raise WrongState(f"settlement was due at tick {due}, now {now}")

        f = self.pending_valuation
        amount = abs(round_to_minor_units(f.value))
        payer, receiver = self.spec.payer_receiver(f.value)
        maturing = self.cycle == self.spec.cycles - 1
        cid = self.spec.contract_id

        if payer and amount > self.margin_bucket(payer):
            # Partial settlement: whole margin bucket plus the fee cross over.
            paid = self.margin_bucket(payer)
            self._release(payer, MARGIN, paid, receiver)
            self._release(payer, FEE, self.fee_bucket(payer), receiver)
            self._release(receiver, MARGIN, self.margin_bucket(receiver), receiver)
            self._release(receiver, FEE, self.fee_bucket(receiver), receiver)
            self._journal(SETTLEMENT, paid, cid, self.cycle, "partial", payer, receiver,
                          repr(f.value))
            self._journal(FAILED_TERMINATION, TerminationCause.SETTLEMENT_FAILED.value, cid,
                          paid, amount, payer, now)
            self._transition(ContractState(TERMINATED,
                                           cause=TerminationCause.SETTLEMENT_FAILED, at=now),
                             cause="settlement-exceeded-margin")
            return

        self._release(payer, MARGIN, amount, receiver)  # 0 when no one pays, and 0 moves nothing
        self._journal(SETTLEMENT, amount, cid, self.cycle, "matured" if maturing else "settled",
                      payer, receiver, repr(f.value))
        settled_cycle = self.cycle
        self.pending_valuation = None
        if maturing:
            for party in self.spec.parties:
                self._release(party, MARGIN, self.margin_bucket(party), party)
            self._journal(MATURED_TERMINATION, TerminationCause.MATURED.value, cid, now)
            self._transition(ContractState(SETTLED, cycle=settled_cycle),
                             cause="final-settlement-executed")
            self._transition(ContractState(TERMINATED, cause=TerminationCause.MATURED, at=now),
                             cause="matured")
            return
        self.cycle += 1
        self._transition(ContractState(SETTLED, cycle=settled_cycle), cause="settlement-executed")
        self._transition(ContractState(ACCOUNTS_OPEN, until=now + self.spec.prefund_window),
                         cause="cycle-complete")

    def return_fees(self) -> None:
        """Post both termination fees back after regular maturity; a second
        call finds both buckets empty and changes nothing."""
        if not (self._state.phase is TERMINATED
                and self._state.cause is TerminationCause.MATURED):
            raise WrongState("fees are only posted back after maturity")
        for party in self.spec.parties:
            held = self.fee_bucket(party)
            if held:
                self.withdraw_fee(party, held)

    def mark_error(self, detail: str) -> None:
        """End the contract in ERROR on an oracle failure: absorbing, every bucket stays locked."""
        if self.is_final:
            raise WrongState(f"contract already final in {self._label}")
        self._transition(ContractState(ERROR, detail=detail), cause="oracle-failure")
