from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sdcsim import (
    Clock,
    ContractInstance,
    ContractSpec,
    Forward,
    Journal,
    Ledger,
    SettlementAmount,
    price,
    register_pricer,
)
from sdcsim.errors import MissingSnapshot

COUNTING_PRICER = "counting-test"


@pytest.fixture
def counting_pricer():
    """Registers the flat-curve pricer under COUNTING_PRICER, recording the
    (t, snapshot tick) of every evaluation in the returned list."""
    calls = []

    def counting(product, t, snapshot):
        calls.append((t, snapshot.as_of))
        return price(product, t, snapshot)

    register_pricer(COUNTING_PRICER, counting)
    return calls


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def journal():
    return Journal()


@pytest.fixture
def ledger(journal, clock):
    return Ledger(journal, clock)


def make_world(funding_a: int = 100_000, funding_b: int = 100_000):
    """Fresh clock/journal/ledger with two funded parties."""
    clock = Clock()
    journal = Journal()
    ledger = Ledger(journal, clock)
    a = ledger.open_account("bank1")
    b = ledger.open_account("bank2")
    ledger.mint(ledger.issuer, a, funding_a)
    ledger.mint(ledger.issuer, b, funding_b)
    return clock, journal, ledger, a, b


def make_spec(a: str, b: str, *, grid=(0, 10, 20, 30), margin=400, fee=200,
              margin_a=None, margin_b=None, fee_a=None, fee_b=None,
              window=3, notional=100.0, strike=100.0, tick_years=0.01) -> ContractSpec:
    return ContractSpec(
        contract_id="SDC-TEST",
        party_a=a,
        party_b=b,
        product=Forward(notional=notional, strike=strike, maturity=grid[-1] * tick_years),
        settlement_times=tuple(grid),
        margin_a=margin_a if margin_a is not None else margin,
        margin_b=margin_b if margin_b is not None else margin,
        fee_a=fee_a if fee_a is not None else fee,
        fee_b=fee_b if fee_b is not None else fee,
        prefund_window=window,
        pricer_version="flat-curve-v1",
        tick_years=tick_years,
    )


def make_contract(**kwargs):
    clock, journal, ledger, a, b = make_world(
        kwargs.pop("funding_a", 100_000), kwargs.pop("funding_b", 100_000))
    spec = make_spec(a, b, **kwargs)
    contract = ContractInstance(spec, ledger)
    return contract, clock, journal, ledger


class ScriptedValues:
    """Oracle fake: prescribed per-period settlement values, no market snapshots."""

    def __init__(self, values: dict[tuple[int, int], float]):
        self.values = values

    def query(self, period_start: int, period_end: int) -> SettlementAmount:
        try:
            return SettlementAmount(self.values[(period_start, period_end)], period_end)
        except KeyError:
            raise MissingSnapshot(
                f"no scripted value for period ({period_start}, {period_end})") from None

    def value(self, period_end: int, as_of: int) -> float:
        raise MissingSnapshot(f"no market snapshot stored for tick {as_of}")


def scripted_oracle(spec, values_by_cycle) -> ScriptedValues:
    """Map per-cycle settlement values onto the spec's period keys."""
    grid = spec.settlement_times
    return ScriptedValues({(grid[i], grid[i + 1]): v for i, v in enumerate(values_by_cycle)})
