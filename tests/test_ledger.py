from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from sdcsim import Bucket, Clock, EventKind, Journal, Ledger
from sdcsim.errors import (
    InsufficientAllowance,
    InsufficientBalance,
    InsufficientSegregated,
    NotIssuer,
    SdcError,
    UnknownAccount,
)
from sdcsim.ledger import check_amount


@pytest.fixture
def funded(ledger):
    a = ledger.open_account("bank1")
    b = ledger.open_account("bank2")
    ledger.mint(ledger.issuer, a, 1_000)
    ledger.mint(ledger.issuer, b, 1_000)
    return ledger, a, b


def test_open_account_starts_empty(ledger):
    acct = ledger.open_account("bank1")
    assert ledger.balance_of(acct) == 0


def test_same_label_gets_distinct_ids(ledger):
    first = ledger.open_account("bank1")
    second = ledger.open_account("bank1")
    assert first != second


def test_empty_label_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.open_account("")


def test_mint_requires_issuer(ledger):
    acct = ledger.open_account("bank1")
    with pytest.raises(NotIssuer):
        ledger.mint(acct, acct, 100)
    ledger.mint(ledger.issuer, acct, 100_000)
    assert ledger.balance_of(acct) == 100_000
    assert ledger.total_supply() == 100_000


def test_mint_zero_is_a_noop_on_supply(ledger):
    acct = ledger.open_account("bank1")
    ledger.mint(ledger.issuer, acct, 0)
    assert ledger.total_supply() == 0
    assert ledger.balance_of(acct) == 0


def test_transfer_moves_funds(funded):
    ledger, a, b = funded
    ledger.transfer(a, b, 30)
    assert ledger.balance_of(a) == 970
    assert ledger.balance_of(b) == 1_030


def test_transfer_zero_still_journals(funded, journal):
    ledger, a, b = funded
    before = len(journal)
    ledger.transfer(a, b, 0)
    assert ledger.balance_of(a) == 1_000
    assert len(journal) == before + 1


def test_transfer_overdraft_changes_nothing(funded, journal):
    ledger, a, b = funded
    csv_before, blocks_before = ledger.to_csv(), len(journal)
    with pytest.raises(InsufficientBalance):
        ledger.transfer(a, b, 1_001)
    assert ledger.to_csv() == csv_before
    assert len(journal) == blocks_before


def test_approve_overwrites(funded):
    ledger, a, b = funded
    ledger.approve(a, b, 500)
    assert ledger.allowance(a, b) == 500
    ledger.approve(a, b, 200)
    assert ledger.allowance(a, b) == 200


def test_approve_unknown_spender(funded):
    ledger, a, _ = funded
    with pytest.raises(UnknownAccount):
        ledger.approve(a, "ghost#9", 10)


def test_transfer_from_decrements_allowance_exactly(funded):
    ledger, a, b = funded
    ledger.approve(a, b, 500)
    ledger.transfer_from(b, a, b, 300)
    assert ledger.allowance(a, b) == 200
    assert ledger.balance_of(a) == 700
    assert ledger.balance_of(b) == 1_300


def test_transfer_from_respects_allowance(funded):
    ledger, a, b = funded
    ledger.approve(a, b, 100)
    with pytest.raises(InsufficientAllowance):
        ledger.transfer_from(b, a, b, 101)
    assert ledger.allowance(a, b) == 100


def test_transfer_from_balance_short_keeps_allowance(ledger):
    a = ledger.open_account("bank1")
    b = ledger.open_account("bank2")
    ledger.mint(ledger.issuer, a, 50)
    ledger.approve(a, b, 500)
    with pytest.raises(InsufficientBalance):
        ledger.transfer_from(b, a, b, 60)
    assert ledger.allowance(a, b) == 500
    assert ledger.balance_of(a) == 50


def test_burn_reduces_supply(funded):
    ledger, a, _ = funded
    ledger.burn(ledger.issuer, a, 1_000)
    assert ledger.balance_of(a) == 0
    assert ledger.total_supply() == 1_000  # b's balance remains


def test_burn_zero_is_noop(funded):
    ledger, a, _ = funded
    ledger.burn(ledger.issuer, a, 0)
    assert ledger.total_supply() == 2_000


def test_burn_requires_issuer(funded):
    ledger, a, b = funded
    with pytest.raises(NotIssuer):
        ledger.burn(a, b, 1)


def test_lock_moves_free_to_bucket(funded):
    ledger, a, _ = funded
    ledger.lock_segregated("C", a, Bucket.MARGIN, 400)
    assert ledger.balance_of(a) == 600
    assert ledger.segregated_balance("C", a, Bucket.MARGIN) == 400


def test_lock_entire_balance(funded):
    ledger, a, _ = funded
    ledger.lock_segregated("C", a, Bucket.FEE, 1_000)
    assert ledger.balance_of(a) == 0


def test_lock_beyond_free_rejected(funded):
    ledger, a, _ = funded
    with pytest.raises(InsufficientBalance):
        ledger.lock_segregated("C", a, Bucket.MARGIN, 1_001)


def test_release_to_counterparty(funded):
    ledger, a, b = funded
    ledger.lock_segregated("C", a, Bucket.MARGIN, 400)
    ledger.release_segregated("C", a, Bucket.MARGIN, 100, to=b)
    assert ledger.balance_of(b) == 1_100
    assert ledger.segregated_balance("C", a, Bucket.MARGIN) == 300


def test_release_full_bucket(funded):
    ledger, a, _ = funded
    ledger.lock_segregated("C", a, Bucket.FEE, 250)
    ledger.release_segregated("C", a, Bucket.FEE, 250, to=a)
    assert ledger.segregated_balance("C", a, Bucket.FEE) == 0
    assert ledger.balance_of(a) == 1_000


def test_release_beyond_bucket_rejected(funded):
    ledger, a, _ = funded
    ledger.lock_segregated("C", a, Bucket.MARGIN, 10)
    with pytest.raises(InsufficientSegregated):
        ledger.release_segregated("C", a, Bucket.MARGIN, 11, to=a)


@pytest.mark.parametrize("amount", [0, 5])
def test_release_for_an_unknown_party_is_refused_and_journals_nothing(funded, amount):
    ledger, a, _ = funded
    ledger.lock_segregated("C", a, Bucket.MARGIN, 10)
    before = (ledger.journal.final_hash(), ledger.to_csv())
    with pytest.raises(UnknownAccount, match="ghost#99"):
        ledger.release_segregated("C", "ghost#99", Bucket.MARGIN, amount, to=a)
    assert (ledger.journal.final_hash(), ledger.to_csv()) == before


def test_negative_amounts_never_accepted(funded):
    ledger, a, b = funded
    with pytest.raises(ValueError):
        ledger.transfer(a, b, -1)


@pytest.mark.parametrize("amount", [True, 1.5])
def test_an_amount_must_be_an_int_not_a_bool_or_float(amount):
    with pytest.raises(TypeError, match="^amount must be an int of minor units"):
        check_amount(amount)


def test_csv_export_lists_buckets(funded, tmp_path):
    ledger, a, b = funded
    ledger.lock_segregated("SDC-1", a, Bucket.MARGIN, 400)
    path = tmp_path / "ledger.csv"
    ledger.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "account_id,bucket,balance_minor_units"
    assert f"{a},FREE,600" in lines
    assert f"{a},MARGIN:SDC-1,400" in lines
    assert f"{b},FREE,1000" in lines


class LedgerMachine(RuleBasedStateMachine):
    """Random op sequences preserve conservation, non-negativity, atomicity."""

    def __init__(self):
        super().__init__()
        self.journal = Journal()
        self.ledger = Ledger(self.journal, Clock())
        self.accounts = [self.ledger.open_account(f"acct{i}") for i in range(4)]

    amounts = st.integers(min_value=0, max_value=500)
    idx = st.integers(min_value=0, max_value=3)

    def snapshot(self):
        return (self.ledger.to_csv(), dict(self.ledger._allowances), len(self.journal))

    def attempt(self, op):
        before = self.snapshot()
        try:
            op()
        except SdcError:
            assert self.snapshot() == before  # failed ops leave no trace
        except ValueError:
            assert self.snapshot() == before

    @initialize()
    def fund(self):
        for acct in self.accounts:
            self.ledger.mint(self.ledger.issuer, acct, 1_000)

    @rule(i=idx, j=idx, amount=amounts)
    def transfer(self, i, j, amount):
        self.attempt(lambda: self.ledger.transfer(self.accounts[i], self.accounts[j], amount))

    @rule(i=idx, j=idx, amount=amounts)
    def approve(self, i, j, amount):
        self.attempt(lambda: self.ledger.approve(self.accounts[i], self.accounts[j], amount))

    @rule(i=idx, j=idx, k=idx, amount=amounts)
    def transfer_from(self, i, j, k, amount):
        self.attempt(lambda: self.ledger.transfer_from(
            self.accounts[i], self.accounts[j], self.accounts[k], amount))

    @rule(i=idx, amount=amounts, bucket=st.sampled_from([Bucket.MARGIN, Bucket.FEE]))
    def lock(self, i, amount, bucket):
        self.attempt(lambda: self.ledger.lock_segregated("C", self.accounts[i], bucket, amount))

    @rule(i=idx, j=idx, amount=amounts, bucket=st.sampled_from([Bucket.MARGIN, Bucket.FEE]))
    def release(self, i, j, amount, bucket):
        self.attempt(lambda: self.ledger.release_segregated(
            "C", self.accounts[i], bucket, amount, to=self.accounts[j]))

    @rule(i=idx, amount=amounts)
    def burn(self, i, amount):
        self.attempt(lambda: self.ledger.burn(self.ledger.issuer, self.accounts[i], amount))

    @invariant()
    def conserved(self):
        assert self.ledger.check_conservation()

    @invariant()
    def non_negative(self):
        assert all(v >= 0 for v in self.ledger._accounts.values())
        assert all(v >= 0 for v in self.ledger._segregated.values())
        assert all(v >= 0 for v in self.ledger._allowances.values())

    @invariant()
    def journal_intact(self):
        assert self.journal.verify()


LedgerMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=30,
                                           deadline=None)
TestLedgerProperties = LedgerMachine.TestCase
