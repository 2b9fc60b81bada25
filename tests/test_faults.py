"""Planted faults, and the check that must catch each one.

Each fault is planted by patching one method for one run in active mode,
of the bundled `volatile_forward` scenario, which matures after ten cycles,
or of its `thin_margins` variant (margins of 30), which ends in
SETTLEMENT_FAILED. Each row names the check that must read False on the faulted run:
one of the run's own checks, or `audit`, the independent journal auditor
that ROADMAP item 1 plans. A fault that no check catches yet is a strict
expected failure whose reason names the item meant to catch it, so the
row turns red once the fault is caught and its mark must go.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from sdcsim import ContractInstance, Journal, Ledger, load_scenario, run_simulation, simulator
from sdcsim.contract import TerminationCause
from sdcsim.journal import LOCK, MATURED_TERMINATION, RELEASE, SETTLEMENT
from sdcsim.ledger import Bucket
from sdcsim.simulator import CompliantAgent

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "volatile_forward.ini"

SCENARIOS = {
    "volatile_forward": lambda scenario: scenario,
    # a payer owes more than its margin of 30: a partial Settlement, then SETTLEMENT_FAILED
    "thin_margins": lambda scenario: replace(
        scenario, contract=replace(scenario.contract, margin_a=30, margin_b=30)),
}

lock_segregated, release_segregated = Ledger.lock_segregated, Ledger.release_segregated
release, journal_record, return_fees = (ContractInstance._release, ContractInstance._journal,
                                        ContractInstance.return_fees)


@contextmanager
def _unjournaled(ledger):
    """What `ledger` journals meanwhile goes to a journal nobody reads."""
    journal, ledger.journal = ledger.journal, Journal()
    try:
        yield journal
    finally:
        ledger.journal = journal


def lock_journaling_one_more(self, contract_id, party, bucket, amount, actor=None):
    with _unjournaled(self) as journal:
        lock_segregated(self, contract_id, party, bucket, amount, actor)
    journal.append(LOCK.pack(self.clock.now(), actor or party, amount + 1, bucket.value,
                             contract_id, party))


def margin_lock_unjournaled(self, contract_id, party, bucket, amount, actor=None):
    if bucket is not Bucket.MARGIN:
        return lock_segregated(self, contract_id, party, bucket, amount, actor)
    with _unjournaled(self):
        lock_segregated(self, contract_id, party, bucket, amount, actor)


def release_paying_the_releaser(self, contract_id, party, bucket, amount, to, actor=None):
    with _unjournaled(self) as journal:
        release_segregated(self, contract_id, party, bucket, amount, party, actor)
    journal.append(RELEASE.pack(self.clock.now(), actor or party, amount, bucket.value,
                                contract_id, to, party))


def payment_back_to_the_payer(self, party, bucket, amount, to):
    # in a run that matures, the only margin released to another party is a settlement payment
    release(self, party, bucket, amount, party if bucket is Bucket.MARGIN else to)


def deposit_margin_unguarded(self, party, amount):
    self.ledger.lock_segregated(self.spec.contract_id, party, Bucket.MARGIN, amount, actor=party)


def terminating_twice(self):
    return_fees(self)
    journal_record(self, MATURED_TERMINATION, TerminationCause.MATURED.value,
                   self.spec.contract_id, self._now())


def settlement_overstating_the_payment(self, shape, *values):
    if shape is SETTLEMENT:
        values = (values[0] + 1, *values[1:])
    journal_record(self, shape, *values)


def partial_settlement_understating_the_payment(self, shape, *values):
    if shape is SETTLEMENT and values[3] == "partial":  # amount, contract, cycle, outcome, ...
        values = (values[0] - 1, *values[1:])
    journal_record(self, shape, *values)


class DepositsEveryTick(CompliantAgent):
    """Compliant, and deposits one more unit on every tick of a live contract."""

    wakes = None  # hooked in every phase

    def on_tick(self, engine, party):
        super().on_tick(engine, party)
        if not engine.contract.is_final:
            engine.contract.deposit_margin(party, 1)


class Fault(NamedTuple):
    name: str
    owner: type
    method: str
    planted: Callable
    check: str                  # a key of the run report's checks, or "audit"
    pending: str | None = None  # the item meant to catch a fault no check catches yet
    policy: type | None = None  # both parties' agent, if not the scenario's
    scenario: str = "volatile_forward"  # a key of SCENARIOS
    ends: str = "MATURED"       # the termination cause of the scenario's clean run


BALANCES = "item 1: the audit's balances disagree with the ledger's (a run check from item 16)"

FAULTS = [
    Fault("lock_journals_one_more", Ledger, "lock_segregated", lock_journaling_one_more,
          "conservation", BALANCES),
    Fault("margin_lock_unjournaled", Ledger, "lock_segregated", margin_lock_unjournaled,
          "conservation", BALANCES),
    Fault("release_pays_the_releaser", Ledger, "release_segregated", release_paying_the_releaser,
          "conservation", BALANCES + "; the journal is the golden one"),
    Fault("payment_back_to_the_payer", ContractInstance, "_release", payment_back_to_the_payer,
          "settlements_reconciled", "item 1: no Release pays the receiver a Settlement names"),
    Fault("margin_deposit_after_the_window", ContractInstance, "deposit_margin",
          deposit_margin_unguarded, "audit",
          "item 1: a party's margin Lock outside an AccountsOpen window", DepositsEveryTick),
    Fault("second_termination", ContractInstance, "return_fees", terminating_twice, "audit",
          "item 1: the run must end in exactly one Termination"),
    Fault("settlement_overstates_the_payment", ContractInstance, "_journal",
          settlement_overstating_the_payment, "settlements_reconciled"),
    Fault("partial_settlement_understates_the_payment", ContractInstance, "_journal",
          partial_settlement_understating_the_payment, "audit",
          "item 1: a partial Settlement's amount must be what its Release took from the payer",
          scenario="thin_margins", ends="SETTLEMENT_FAILED"),
]


def _run(monkeypatch, scenario: str, fault: Fault | None = None):
    if fault is not None:
        monkeypatch.setattr(fault.owner, fault.method, fault.planted)
        if fault.policy is not None:
            monkeypatch.setattr(simulator, "make_policy", lambda spec: fault.policy())
    return run_simulation(SCENARIOS[scenario](load_scenario(SCENARIO)))


def _marked(fault: Fault):
    marks = () if fault.pending is None else pytest.mark.xfail(strict=True, reason=fault.pending)
    return pytest.param(fault, id=fault.name, marks=marks)


@pytest.mark.parametrize("fault", map(_marked, FAULTS))
def test_a_check_catches_the_planted_fault(fault, monkeypatch):
    assert _run(monkeypatch, fault.scenario, fault).report.checks.get(fault.check) is False


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_each_planted_fault_changes_a_run_that_still_matures(fault, monkeypatch):
    # so that an expected failure above is the check missing the fault, not a dead plant; the
    # faulted run ends as the clean one does (matures, for every row on `volatile_forward`)
    clean = _run(monkeypatch, fault.scenario)
    faulted = _run(monkeypatch, fault.scenario, fault)
    assert faulted.report.termination_cause == clean.report.termination_cause == fault.ends
    assert (faulted.report.journal_hash, faulted.report.final_wealth) \
        != (clean.report.journal_hash, clean.report.final_wealth)
