"""Stable-coin token ledger.

Balances are non-negative integers in minor currency units (cents); no
fractional amounts exist anywhere, so conservation is exact and testable
with integer equality. A single issuer account may mint and burn supply.
Besides free balances the ledger keeps per-contract segregated buckets
(MARGIN and FEE) that contracts lock collateral into; locked funds leave
the owner's free balance but stay attributed to the owner until released.

Every successful mutation appends one event to the journal. A failed
operation raises and leaves balances, allowances and the journal
untouched.
"""

from __future__ import annotations

import io
from enum import Enum
from pathlib import Path
from typing import Callable

from .errors import (
    InsufficientAllowance,
    InsufficientBalance,
    InsufficientSegregated,
    NotIssuer,
    UnknownAccount,
)
from .journal import Clock, EventKind, EventRecord, Journal, write_atomic

AccountId = str

MINT_SOURCE = "MINT"


class Bucket(str, Enum):
    MARGIN = "MARGIN"
    FEE = "FEE"


def check_amount(amount: int) -> int:
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise TypeError(f"amount must be an int of minor units, got {amount!r}")
    if amount < 0:
        raise ValueError(f"amount must be non-negative, got {amount}")
    return amount


class Ledger:
    """Account balances, allowances and segregated margin/fee buckets."""

    def __init__(self, journal: Journal, clock: Clock, issuer_label: str = "issuer"):
        self._journal = journal
        self._clock = clock
        self._accounts: dict[AccountId, int] = {}
        self._allowances: dict[tuple[AccountId, AccountId], int] = {}
        self._segregated: dict[tuple[str, AccountId, Bucket], int] = {}
        self._seq = 0
        self._minted = 0
        self._burned = 0
        self._approval_hooks: list[Callable[[AccountId, AccountId, int], None]] = []
        self.issuer = self.open_account(issuer_label)

    # -- accounts and queries --

    def open_account(self, label: str) -> AccountId:
        """Create a fresh account; ids are never reused, labels may repeat."""
        if not label:
            raise ValueError("account label must be non-empty")
        account = f"{label}#{self._seq}"
        self._seq += 1
        self._accounts[account] = 0
        return account

    def _known(self, account: AccountId) -> AccountId:
        if account not in self._accounts:
            raise UnknownAccount(f"no such account: {account}")
        return account

    def balance_of(self, account: AccountId) -> int:
        return self._accounts[self._known(account)]

    def allowance(self, owner: AccountId, spender: AccountId) -> int:
        return self._allowances.get((owner, spender), 0)

    def segregated_balance(self, contract_id: str, party: AccountId, bucket: Bucket) -> int:
        return self._segregated.get((contract_id, party, bucket), 0)

    def total_supply(self) -> int:
        return self._minted - self._burned

    def check_conservation(self) -> bool:
        held = sum(self._accounts.values()) + sum(self._segregated.values())
        return held == self.total_supply()

    def _emit(self, kind: EventKind, actor: str, **details) -> None:
        self._journal.append(EventRecord.create(self._clock.now(), kind, actor, **details))

    # -- supply --

    def mint(self, caller: AccountId, to: AccountId, amount: int) -> None:
        check_amount(amount)
        if caller != self.issuer:
            raise NotIssuer(f"{caller} is not the issuer")
        self._known(to)
        self._accounts[to] += amount
        self._minted += amount
        self._emit(EventKind.TRANSFER, caller, src=MINT_SOURCE, dst=to, amount=amount)

    def burn(self, caller: AccountId, from_: AccountId, amount: int) -> None:
        check_amount(amount)
        if caller != self.issuer:
            raise NotIssuer(f"{caller} is not the issuer")
        self._known(from_)
        if self._accounts[from_] < amount:
            raise InsufficientBalance(f"{from_} holds {self._accounts[from_]}, cannot burn {amount}")
        self._accounts[from_] -= amount
        self._burned += amount
        self._emit(EventKind.BURN, caller, src=from_, amount=amount)

    # -- transfers and allowances --

    def transfer(self, from_: AccountId, to: AccountId, amount: int, actor: str | None = None) -> None:
        check_amount(amount)
        self._known(from_)
        self._known(to)
        if self._accounts[from_] < amount:
            raise InsufficientBalance(f"{from_} holds {self._accounts[from_]}, cannot send {amount}")
        self._accounts[from_] -= amount
        self._accounts[to] += amount
        self._emit(EventKind.TRANSFER, actor or from_, src=from_, dst=to, amount=amount)

    def approve(self, owner: AccountId, spender: AccountId, amount: int) -> None:
        """Set (not add to) the spender allowance."""
        check_amount(amount)
        self._known(owner)
        self._known(spender)
        self._allowances[(owner, spender)] = amount
        self._emit(EventKind.APPROVAL, owner, owner=owner, spender=spender, amount=amount)

    def on_approval(self, hook: Callable[[AccountId, AccountId, int], None]) -> None:
        self._approval_hooks.append(hook)

    def approve_and_call(self, owner: AccountId, spender: AccountId, amount: int) -> None:
        """Approve, then notify registered engine hooks (no code execution)."""
        self.approve(owner, spender, amount)
        for hook in self._approval_hooks:
            hook(owner, spender, amount)

    def transfer_from(self, spender: AccountId, from_: AccountId, to: AccountId, amount: int) -> None:
        check_amount(amount)
        self._known(from_)
        self._known(to)
        allowed = self.allowance(from_, spender)
        if allowed < amount:
            raise InsufficientAllowance(f"allowance {allowed} < {amount}")
        if self._accounts[from_] < amount:
            raise InsufficientBalance(f"{from_} holds {self._accounts[from_]}, cannot send {amount}")
        self._allowances[(from_, spender)] = allowed - amount
        self._accounts[from_] -= amount
        self._accounts[to] += amount
        self._emit(EventKind.TRANSFER, spender, src=from_, dst=to, amount=amount, spender=spender)

    # -- segregated buckets --

    def lock_segregated(self, contract_id: str, party: AccountId, bucket: Bucket,
                        amount: int, actor: str | None = None) -> None:
        check_amount(amount)
        self._known(party)
        if self._accounts[party] < amount:
            raise InsufficientBalance(f"{party} holds {self._accounts[party]}, cannot lock {amount}")
        self._accounts[party] -= amount
        key = (contract_id, party, bucket)
        self._segregated[key] = self._segregated.get(key, 0) + amount
        self._emit(EventKind.LOCK, actor or party, contract=contract_id, party=party,
                   bucket=bucket.value, amount=amount)

    def release_segregated(self, contract_id: str, party: AccountId, bucket: Bucket,
                           amount: int, to: AccountId, actor: str | None = None) -> None:
        check_amount(amount)
        self._known(to)
        key = (contract_id, party, bucket)
        held = self._segregated.get(key, 0)
        if held < amount:
            raise InsufficientSegregated(
                f"{party} {bucket.value} bucket holds {held}, cannot release {amount}")
        self._segregated[key] = held - amount
        self._accounts[to] += amount
        self._emit(EventKind.RELEASE, actor or party, contract=contract_id, party=party,
                   bucket=bucket.value, amount=amount, dst=to)

    # -- export --

    def to_csv(self) -> str:
        """Full state as CSV: account_id, bucket, balance_minor_units."""
        buf = io.StringIO()
        buf.write("account_id,bucket,balance_minor_units\n")
        rows = [(acct, "FREE", bal) for acct, bal in self._accounts.items()]
        rows += [(party, f"{bucket.value}:{cid}", bal)
                 for (cid, party, bucket), bal in self._segregated.items() if bal]
        for acct, bucket, bal in sorted(rows):
            buf.write(f"{acct},{bucket},{bal}\n")
        return buf.getvalue()

    def export_csv(self, path: str | Path) -> None:
        write_atomic(path, self.to_csv().encode())
