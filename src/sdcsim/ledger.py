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

from .errors import (
    InsufficientAllowance,
    InsufficientBalance,
    InsufficientSegregated,
    NotIssuer,
    UnknownAccount,
)
from .journal import (APPROVAL, BURN, LOCK, RELEASE, TRANSFER, TRANSFER_FROM, Clock, Journal,
                      write_atomic)

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

    def __init__(self, journal: Journal, clock: Clock):
        self.journal = journal
        self.clock = clock
        self._accounts: dict[AccountId, int] = {}
        self._allowances: dict[tuple[AccountId, AccountId], int] = {}
        self._segregated: dict[tuple[str, AccountId, Bucket], int] = {}
        self._seq = 0
        self._minted = 0
        self._burned = 0
        self.issuer = self.open_account("issuer")

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

    # -- supply --

    def mint(self, caller: AccountId, to: AccountId, amount: int) -> None:
        check_amount(amount)
        if caller != self.issuer:
            raise NotIssuer(f"{caller} is not the issuer")
        self._known(to)
        self._accounts[to] += amount
        self._minted += amount
        self.journal.append(TRANSFER.pack(self.clock.now(), caller, amount, to, MINT_SOURCE))

    def burn(self, caller: AccountId, from_: AccountId, amount: int) -> None:
        check_amount(amount)
        if caller != self.issuer:
            raise NotIssuer(f"{caller} is not the issuer")
        self._known(from_)
        if self._accounts[from_] < amount:
            raise InsufficientBalance(f"{from_} holds {self._accounts[from_]}, cannot burn {amount}")
        self._accounts[from_] -= amount
        self._burned += amount
        self.journal.append(BURN.pack(self.clock.now(), caller, amount, from_))

    # -- transfers and allowances --

    def transfer(self, from_: AccountId, to: AccountId, amount: int, actor: str | None = None) -> None:
        check_amount(amount)
        self._known(from_)
        self._known(to)
        if self._accounts[from_] < amount:
            raise InsufficientBalance(f"{from_} holds {self._accounts[from_]}, cannot send {amount}")
        self._accounts[from_] -= amount
        self._accounts[to] += amount
        self.journal.append(TRANSFER.pack(self.clock.now(), actor or from_, amount, to, from_))

    def approve(self, owner: AccountId, spender: AccountId, amount: int) -> None:
        """Set (not add to) the spender allowance."""
        check_amount(amount)
        self._known(owner)
        self._known(spender)
        self._allowances[(owner, spender)] = amount
        self.journal.append(APPROVAL.pack(self.clock.now(), owner, amount, owner, spender))

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
        self.journal.append(TRANSFER_FROM.pack(self.clock.now(), spender, amount, to, spender, from_))

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
        # `_value_` is what Enum's `value` property returns; the property costs ~0.3 us
        self.journal.append(LOCK.pack(self.clock.now(), actor or party,
                                      amount, bucket._value_, contract_id, party))

    def release_segregated(self, contract_id: str, party: AccountId, bucket: Bucket,
                           amount: int, to: AccountId, actor: str | None = None) -> None:
        check_amount(amount)
        self._known(party)
        self._known(to)
        key = (contract_id, party, bucket)
        held = self._segregated.get(key, 0)
        if held < amount:
            raise InsufficientSegregated(
                f"{party} {bucket.value} bucket holds {held}, cannot release {amount}")
        self._segregated[key] = held - amount
        self._accounts[to] += amount
        self.journal.append(RELEASE.pack(self.clock.now(), actor or party,
                                         amount, bucket._value_, contract_id, to, party))

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
