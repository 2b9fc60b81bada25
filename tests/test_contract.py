from __future__ import annotations

import math
import re
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from sdcsim import (
    Bucket,
    ContractInstance,
    EventKind,
    Phase,
    SettlementAmount,
    TerminationCause,
)
from sdcsim import contract as contract_module
from sdcsim.errors import (
    AccountsNotOpen,
    InsufficientSegregated,
    NotAParty,
    PreconditionFailed,
    SdcError,
    TimestampMismatch,
    TooEarly,
    WrongState,
)
from sdcsim.valuation import MATURITY_TOLERANCE

from conftest import make_contract, make_spec, make_world

# Defaults from make_contract: grid (0, 10, 20, 30), margin 400, fee 200, window 3.
M, P = 400, 200


def fund_margins(contract, amount_a=M, amount_b=M):
    contract.deposit_margin(contract.spec.party_a, amount_a)
    contract.deposit_margin(contract.spec.party_b, amount_b)


def to_margin_check(contract, clock):
    clock.advance_to(contract.state().until)
    contract.close_accounts()


class Settled(NamedTuple):
    amount: int
    payer: str
    receiver: str
    outcome: str


def run_cycle(contract, clock, value: float) -> Settled:
    """Drive the current cycle from its open window through a settlement at
    `value`; return the facts of the journaled Settlement."""
    to_margin_check(contract, clock)
    contract.margin_check()
    assert contract.phase is Phase.AWAIT_VALUATION
    settle_at = contract.state().settle_at
    clock.advance_to(settle_at)
    contract.deliver_valuation(SettlementAmount(value=value, as_of=settle_at))
    contract.settle()
    record = contract.ledger.journal.records(EventKind.SETTLEMENT)[-1]
    return Settled(int(record.detail("amount")), record.detail("payer"),
                   record.detail("receiver"), record.detail("outcome"))


def deficient(journal) -> str:
    (termination,) = journal.records(EventKind.TERMINATION)
    return termination.detail("deficient")


def test_the_module_names_are_the_enum_members():
    """`contract.py` binds its phases by unpacking `Phase` in definition order,
    and its buckets by name: each module name must be the member it names."""
    assert all(getattr(contract_module, phase.name) is phase for phase in Phase)
    assert all(getattr(contract_module, bucket.name) is bucket for bucket in Bucket)


@pytest.mark.parametrize("terms,message", [
    (dict(tick_years=math.nan), "tick_years must be positive"),
    # zero and a negative tick fail the same check as NaN
    (dict(tick_years=0.0), "tick_years must be positive"),
    (dict(tick_years=-0.004), "tick_years must be positive"),
    # a product that does not check its own maturity reaches the grid test
    (dict(product=SimpleNamespace(maturity=math.nan)),
     "product maturity nan does not sit on the final grid tick (0.3)"),
], ids=["tick_years", "tick_years_zero", "tick_years_negative", "product_maturity"])
def test_nan_fails_the_spec_checks(terms, message):
    spec = make_spec("bank1", "bank2")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(spec, **terms)


def test_a_maturity_exactly_the_tolerance_off_the_grid_is_accepted():
    """The grid check is `<=` the tolerance. A float difference equals 1e-9 (an odd
    multiple of 2**-82) only below 2**-29 years, hence the tiny tick."""
    spec = make_spec("bank1", "bank2", tick_years=2.0 ** -36)
    grid_maturity = spec.settlement_times[-1] * spec.tick_years
    at_tolerance = grid_maturity + MATURITY_TOLERANCE
    assert at_tolerance - grid_maturity == MATURITY_TOLERANCE
    replace(spec, product=replace(spec.product, maturity=at_tolerance))
    with pytest.raises(ValueError, match="does not sit on the final grid tick"):
        replace(spec, product=replace(spec.product, maturity=math.nextafter(at_tolerance, 1.0)))


# -- initialization --

def test_initialize_locks_fees_at_exact_funding_boundary():
    contract, clock, journal, ledger = make_contract(funding_a=P + M, funding_b=P + M)
    contract.initialize()
    for party in contract.spec.parties:
        assert contract.fee_bucket(party) == P
        assert ledger.balance_of(party) == M
    assert contract.phase is Phase.ACCOUNTS_OPEN
    assert contract.state().until == 3


def test_initialize_names_the_deficient_party_and_touches_nothing():
    contract, clock, journal, ledger = make_contract(funding_a=P + M, funding_b=P + M - 1)
    csv_before, blocks_before = ledger.to_csv(), len(journal)
    with pytest.raises(PreconditionFailed) as exc:
        contract.initialize()
    assert exc.value.party == contract.spec.party_b
    assert ledger.to_csv() == csv_before
    assert len(journal) == blocks_before
    assert contract.phase is Phase.PRE_CHECK


def test_duplicate_initialize_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    with pytest.raises(WrongState):
        contract.initialize()


def test_early_fee_posting_reduces_the_top_up():
    contract, clock, journal, ledger = make_contract()
    a = contract.spec.party_a
    contract.deposit_fee(a, 50)
    contract.initialize()
    assert contract.fee_bucket(a) == P
    assert ledger.balance_of(a) == 100_000 - P


# -- wallet windows --

def test_deposit_inside_window_grows_bucket():
    contract, clock, *_ = make_contract()
    contract.initialize()
    contract.deposit_margin(contract.spec.party_a, 150)
    assert contract.margin_bucket(contract.spec.party_a) == 150


def test_deposit_after_close_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    to_margin_check(contract, clock)
    with pytest.raises(AccountsNotOpen):
        contract.deposit_margin(contract.spec.party_a, 1)


def test_third_account_is_not_a_party():
    contract, clock, journal, ledger = make_contract()
    stranger = ledger.open_account("stranger")
    contract.initialize()
    with pytest.raises(NotAParty):
        contract.deposit_margin(stranger, 1)


def test_withdraw_full_buffer_during_window():
    contract, clock, *_ = make_contract()
    contract.initialize()
    a = contract.spec.party_a
    contract.deposit_margin(a, M)
    contract.withdraw_margin(a, M)
    assert contract.margin_bucket(a) == 0


def test_withdraw_when_closed_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    fund_margins(contract)
    to_margin_check(contract, clock)
    with pytest.raises(AccountsNotOpen):
        contract.withdraw_margin(contract.spec.party_a, 1)


def test_withdraw_beyond_bucket_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    contract.deposit_margin(contract.spec.party_a, 10)
    with pytest.raises(InsufficientSegregated):
        contract.withdraw_margin(contract.spec.party_a, 11)


# -- fee wallet timing --

def test_fee_posting_after_initialization_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    with pytest.raises(WrongState):
        contract.deposit_fee(contract.spec.party_a, 1)


def test_fee_withdrawal_while_alive_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    with pytest.raises(WrongState):
        contract.withdraw_fee(contract.spec.party_a, 1)


def test_fee_withdrawal_after_maturity_returns_to_free():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    for _ in range(3):
        fund_margins(contract)
        run_cycle(contract, clock, 0.0)
    assert contract.state().cause is TerminationCause.MATURED
    a = contract.spec.party_a
    free_before = ledger.balance_of(a)
    contract.withdraw_fee(a, P)
    assert ledger.balance_of(a) == free_before + P
    assert contract.fee_bucket(a) == 0


# -- closing the window --

def test_close_accounts_at_window_end():
    contract, clock, *_ = make_contract()
    contract.initialize()
    clock.advance_to(3)
    contract.close_accounts()
    assert contract.phase is Phase.MARGIN_CHECK


def test_close_accounts_one_tick_early_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    with pytest.raises(TooEarly):
        contract.close_accounts()  # the clock at 0
    clock.advance_to(2)
    with pytest.raises(TooEarly):
        contract.close_accounts()
    assert contract.phase is Phase.ACCOUNTS_OPEN


def test_close_accounts_twice_rejected():
    contract, clock, *_ = make_contract()
    contract.initialize()
    to_margin_check(contract, clock)
    clock.advance_to(4)
    with pytest.raises(WrongState):
        contract.close_accounts()


# -- margin check --

def test_margin_check_passes_at_exact_buffer():
    contract, clock, *_ = make_contract()
    contract.initialize()
    fund_margins(contract, M, M)
    to_margin_check(contract, clock)
    contract.margin_check()
    assert contract.phase is Phase.AWAIT_VALUATION
    assert contract.state().settle_at == 10


def test_margin_check_one_unit_short_terminates_and_crosses_fee():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    a, b = contract.spec.parties
    fund_margins(contract, M - 1, M)
    to_margin_check(contract, clock)
    free_a, free_b = ledger.balance_of(a), ledger.balance_of(b)
    contract.margin_check()
    assert deficient(journal) == a
    state = contract.state()
    assert state.phase is Phase.TERMINATED
    assert state.cause is TerminationCause.INSUFFICIENT_PREFUND
    # a loses its fee, gets its margin back; b gets margin, fee and a's fee back
    assert ledger.balance_of(a) == free_a + (M - 1)
    assert ledger.balance_of(b) == free_b + M + P + P
    for party in (a, b):
        assert contract.margin_bucket(party) == 0
        assert contract.fee_bucket(party) == 0


def test_margin_check_both_deficient_crosses_both_fees():
    # Decision table for the two-sided case: each deficient party's fee goes
    # to the other, margins return to their owners.
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    a, b = contract.spec.parties
    fund_margins(contract, M - 1, 0)
    to_margin_check(contract, clock)
    free_a, free_b = ledger.balance_of(a), ledger.balance_of(b)
    contract.margin_check()
    assert deficient(journal) == f"{a},{b}"
    assert ledger.balance_of(a) == free_a + (M - 1) + P  # own margin back + b's fee
    assert ledger.balance_of(b) == free_b + 0 + P        # own margin back + a's fee
    assert contract.state().cause is TerminationCause.INSUFFICIENT_PREFUND


def test_margin_check_wrong_state():
    contract, clock, *_ = make_contract()
    contract.initialize()
    with pytest.raises(WrongState):
        contract.margin_check()


# -- settlement --

def test_zero_settlement_advances_cycle_without_transfer():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    fund_margins(contract)
    a, b = contract.spec.parties
    free = (ledger.balance_of(a), ledger.balance_of(b))
    settled = run_cycle(contract, clock, 0.0)
    assert settled == Settled(0, "", "", "settled")
    assert (ledger.balance_of(a), ledger.balance_of(b)) == free
    assert contract.cycle == 1
    assert contract.phase is Phase.ACCOUNTS_OPEN


def test_settlement_equal_to_bucket_keeps_contract_alive():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    fund_margins(contract)
    a, b = contract.spec.parties
    free_a = ledger.balance_of(a)
    settled = run_cycle(contract, clock, float(M))  # B pays A exactly the buffer
    assert settled == Settled(M, b, a, "settled")
    assert contract.margin_bucket(b) == 0
    assert ledger.balance_of(a) == free_a + M
    assert contract.phase is Phase.ACCOUNTS_OPEN


def test_settlement_beyond_bucket_pays_partially_and_terminates():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    fund_margins(contract)
    a, b = contract.spec.parties
    free_a = ledger.balance_of(a)
    settled = run_cycle(contract, clock, float(M + 100))
    assert settled == Settled(M, b, a, "partial")  # the whole bucket, not the owed amount
    assert ledger.balance_of(a) == free_a + M + P + M + P  # partial + b's fee + own buckets
    state = contract.state()
    assert state.cause is TerminationCause.SETTLEMENT_FAILED
    for party in (a, b):
        assert contract.margin_bucket(party) == 0
        assert contract.fee_bucket(party) == 0


def test_negative_value_means_party_a_pays():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    fund_margins(contract)
    a, b = contract.spec.parties
    free_b = ledger.balance_of(b)
    settled = run_cycle(contract, clock, -120.0)
    assert (settled.payer, settled.receiver) == (a, b)
    assert ledger.balance_of(b) == free_b + 120


def test_sub_half_unit_settlement_rounds_to_nothing():
    contract, clock, *_ = make_contract()
    contract.initialize()
    fund_margins(contract)
    assert run_cycle(contract, clock, 0.4).amount == 0
    assert run_cycle(contract, clock, 0.5).amount == 1


@pytest.mark.parametrize("value", [0.004, -0.004, 0.0])
def test_a_value_rounding_to_zero_journals_a_zero_settlement_and_no_release(value):
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    fund_margins(contract)
    a, b = contract.spec.parties
    payer, receiver = contract.spec.payer_receiver(value)
    releases = len(journal.records(EventKind.RELEASE))
    free = (ledger.balance_of(a), ledger.balance_of(b))
    assert run_cycle(contract, clock, value) == Settled(0, payer, receiver, "settled")
    assert len(journal.records(EventKind.RELEASE)) == releases
    assert (ledger.balance_of(a), ledger.balance_of(b)) == free
    assert [contract.margin_bucket(p) for p in (a, b)] == [M, M]


def test_final_settlement_matures_and_returns_margin_buffers():
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    a, b = contract.spec.parties
    for expected_cycle in range(3):
        fund_margins(contract)
        settled = run_cycle(contract, clock, 100.0)
        assert settled.amount == 100
        assert settled.outcome == ("matured" if expected_cycle == 2 else "settled")
    state = contract.state()
    assert state.cause is TerminationCause.MATURED
    assert state.at == 30
    assert contract.margin_bucket(a) == 0 and contract.margin_bucket(b) == 0
    # fees stay locked until posted back
    assert contract.fee_bucket(a) == P and contract.fee_bucket(b) == P
    contract.return_fees()
    assert contract.fee_bucket(a) == 0 and contract.fee_bucket(b) == 0
    assert ledger.balance_of(b) == 100_000 - 300  # paid 100 per cycle, all else returned
    assert ledger.balance_of(a) == 100_000 + 300


def test_settle_guards():
    contract, clock, journal, _ = make_contract()
    contract.initialize()
    fund_margins(contract)
    to_margin_check(contract, clock)
    contract.margin_check()
    clock.advance_to(10)
    state, blocks = contract.state(), len(journal)
    with pytest.raises(TimestampMismatch):
        contract.deliver_valuation(SettlementAmount(5.0, as_of=20))
    assert contract.state() == state and len(journal) == blocks
    assert contract.pending_valuation is None
    contract.deliver_valuation(SettlementAmount(5.0, as_of=10))
    contract.settle()
    with pytest.raises(WrongState):
        contract.settle()


def test_deliver_valuation_journals_the_valuation_before_its_transition():
    contract, clock, journal, _ = make_contract()
    contract.initialize()
    fund_margins(contract)
    run_cycle(contract, clock, 0.0)  # a zero settlement leaves both buffers funded
    to_margin_check(contract, clock)
    contract.margin_check()
    clock.advance_to(18)
    blocks = len(journal)
    contract.deliver_valuation(SettlementAmount(-12.5, as_of=20, value_end=3.0))
    valuation, transition = journal.records()[blocks:]
    assert (valuation.kind, valuation.timestamp) == (EventKind.VALUATION, 18)
    assert dict(valuation.details) == {
        "contract": "SDC-TEST", "period_start": "10", "period_end": "20",
        "value": "-12.5", "pricer": "flat-curve-v1"}
    assert transition.kind is EventKind.STATE_TRANSITION
    assert transition.detail("cause") == "valuation-delivered"


def test_settle_timing_is_pinned_to_the_grid():
    contract, clock, *_ = make_contract()
    contract.initialize()
    fund_margins(contract)
    to_margin_check(contract, clock)
    contract.margin_check()
    clock.advance_to(9)
    contract.deliver_valuation(SettlementAmount(1.0, as_of=10))
    with pytest.raises(TooEarly):
        contract.settle()
    clock.advance_to(11)
    with pytest.raises(WrongState):
        contract.settle()


def test_terminated_is_absorbing():
    contract, clock, *_ = make_contract()
    contract.initialize()
    to_margin_check(contract, clock)
    contract.margin_check()  # no margin funded: terminates
    assert contract.is_final
    with pytest.raises((WrongState, AccountsNotOpen)):
        contract.deposit_margin(contract.spec.party_a, 1)
    with pytest.raises(WrongState):
        contract.margin_check()
    with pytest.raises(WrongState):
        contract.mark_error("late failure")


def test_mark_error_suspends():
    contract, clock, *_ = make_contract()
    contract.initialize()
    fund_margins(contract)
    to_margin_check(contract, clock)
    contract.margin_check()
    contract.mark_error("no market data for tick 10")
    assert contract.phase is Phase.ERROR
    with pytest.raises(WrongState):
        contract.deliver_valuation(SettlementAmount(0.0, as_of=10))
    # ERROR is absorbing: both parties' margin and fee buckets stay locked
    for party in contract.spec.parties:
        assert (contract.margin_bucket(party), contract.fee_bucket(party)) == (M, P)


# -- closed transition graph --

def _fresh(phase: str):
    contract, clock, journal, ledger = make_contract()
    if phase == "PRE_CHECK":
        return contract, clock
    contract.initialize()
    if phase == "ACCOUNTS_OPEN":
        return contract, clock
    fund_margins(contract)
    to_margin_check(contract, clock)
    if phase == "MARGIN_CHECK":
        return contract, clock
    contract.margin_check()
    if phase == "AWAIT_VALUATION":
        return contract, clock
    clock.advance_to(10)
    contract.deliver_valuation(SettlementAmount(0.0, as_of=10))
    if phase == "MARGIN_CALCULATION":
        return contract, clock
    raise AssertionError(phase)


def _terminated(cause: str):
    contract, clock, journal, ledger = make_contract()
    contract.initialize()
    if cause == "INSUFFICIENT_PREFUND":
        to_margin_check(contract, clock)
        contract.margin_check()
    elif cause == "SETTLEMENT_FAILED":
        fund_margins(contract)
        run_cycle(contract, clock, float(M + 1))
    else:
        for _ in range(3):
            fund_margins(contract)
            run_cycle(contract, clock, 0.0)
    return contract, clock


def _errored():
    contract, clock, *_ = make_contract()
    contract.initialize()
    contract.mark_error("boom")
    return contract, clock


OPS = {
    "initialize": lambda c, clk: c.initialize(),
    "deposit_margin": lambda c, clk: c.deposit_margin(c.spec.party_a, 1),
    "withdraw_margin": lambda c, clk: c.withdraw_margin(c.spec.party_a, 1),
    "deposit_fee": lambda c, clk: c.deposit_fee(c.spec.party_a, 1),
    "withdraw_fee": lambda c, clk: c.withdraw_fee(c.spec.party_a, 1),
    "close_accounts": lambda c, clk: c.close_accounts(),
    "margin_check": lambda c, clk: c.margin_check(),
    "deliver_valuation": lambda c, clk: c.deliver_valuation(
        SettlementAmount(0.0, as_of=c.state().settle_at if c.state().settle_at else 0)),
    "settle": lambda c, clk: c.settle(),
    "return_fees": lambda c, clk: c.return_fees(),
    "mark_error": lambda c, clk: c.mark_error("x"),
}

# (phase key, operation) pairs allowed to succeed, with permitted end phases.
ALLOWED = {
    ("PRE_CHECK", "initialize"): {Phase.ACCOUNTS_OPEN},
    ("PRE_CHECK", "deposit_fee"): {Phase.PRE_CHECK},
    ("PRE_CHECK", "mark_error"): {Phase.ERROR},
    ("ACCOUNTS_OPEN", "deposit_margin"): {Phase.ACCOUNTS_OPEN},
    ("ACCOUNTS_OPEN", "withdraw_margin"): {Phase.ACCOUNTS_OPEN},
    ("ACCOUNTS_OPEN", "close_accounts"): {Phase.MARGIN_CHECK},
    ("ACCOUNTS_OPEN", "mark_error"): {Phase.ERROR},
    ("MARGIN_CHECK", "margin_check"): {Phase.AWAIT_VALUATION, Phase.TERMINATED},
    ("MARGIN_CHECK", "mark_error"): {Phase.ERROR},
    ("AWAIT_VALUATION", "deliver_valuation"): {Phase.MARGIN_CALCULATION},
    ("AWAIT_VALUATION", "mark_error"): {Phase.ERROR},
    ("MARGIN_CALCULATION", "settle"): {Phase.ACCOUNTS_OPEN, Phase.TERMINATED},
    ("MARGIN_CALCULATION", "mark_error"): {Phase.ERROR},
    ("TERMINATED_MATURED", "withdraw_fee"): {Phase.TERMINATED},
    ("TERMINATED_MATURED", "return_fees"): {Phase.TERMINATED},
}


def _builders():
    yield "PRE_CHECK", lambda: _fresh("PRE_CHECK")
    yield "ACCOUNTS_OPEN", lambda: _fresh("ACCOUNTS_OPEN")
    yield "MARGIN_CHECK", lambda: _fresh("MARGIN_CHECK")
    yield "AWAIT_VALUATION", lambda: _fresh("AWAIT_VALUATION")
    yield "MARGIN_CALCULATION", lambda: _fresh("MARGIN_CALCULATION")
    yield "TERMINATED_PREFUND", lambda: _terminated("INSUFFICIENT_PREFUND")
    yield "TERMINATED_FAILED", lambda: _terminated("SETTLEMENT_FAILED")
    yield "TERMINATED_MATURED", lambda: _terminated("MATURED")
    yield "ERROR", lambda: _errored()


@pytest.mark.parametrize("op_name", sorted(OPS))
def test_transition_graph_is_closed(op_name):
    """Every (resting state, operation) pair either performs a documented
    transition or rejects with a protocol error leaving state untouched."""
    for phase_key, build in _builders():
        contract, clock = build()
        before = contract.state()
        csv_before = contract.ledger.to_csv()
        advanced = clock.now()
        if op_name == "close_accounts" and phase_key == "ACCOUNTS_OPEN":
            clock.advance_to(before.until)  # make the timing guard passable
        try:
            OPS[op_name](contract, clock)
        except SdcError:
            assert contract.state() == before, (phase_key, op_name)
            assert contract.ledger.to_csv() == csv_before, (phase_key, op_name)
            continue
        assert (phase_key, op_name) in ALLOWED, (phase_key, op_name)
        assert contract.phase in ALLOWED[(phase_key, op_name)], (phase_key, op_name)
