"""Market snapshots, product pricing and the settlement-amount oracle.

The pricing model is deliberately small: a flat continuously-compounded
zero rate per snapshot, so df(t, T) = exp(-r * (T - t)). Two reference
products are priced on it:

  * Forward: N * (S - K) * df(t, T) -- settlement algebra is hand-checkable
    (with r = 0 a settlement equals N * dS exactly).
  * VanillaSwap (payer-fixed): N * sum over remaining payments of
    tau_j * (f_j - K) * df(t, T_j), with forward rates read off the same
    curve and the first remaining period accruing from t.

A period's settlement amount is the value change induced purely by the
market-data move: both value terms are evaluated at the period end, one
on the end snapshot and one on the start snapshot. Equal snapshots give
exactly zero. Positive amounts mean party B pays party A.

Valuations are plain floats at minor-unit scale and are rounded
half-away-from-zero to integer minor units only when money actually
moves on the ledger.

The MarginOracle wraps a snapshot store and a pinned pricer version; the
value for a (contract, period) pair is computed once, journaled once and
cached, so repeated queries by either party see one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import (
    EmptySamples,
    MissingSnapshot,
    NegativeTenor,
    PastMaturity,
    TimestampMismatch,
    UnknownPricer,
)
from .journal import Clock, EventKind, EventRecord, Journal, SYSTEM_ACTOR


@dataclass(frozen=True)
class MarketSnapshot:
    """Observed market data at one simulation tick."""

    as_of: int            # tick on the simulation grid
    spot: float           # observable index level, > 0
    zero_rate: float      # flat continuously-compounded rate p.a.

    def __post_init__(self):
        if self.spot <= 0:
            raise ValueError(f"spot must be positive, got {self.spot}")


@dataclass(frozen=True)
class Forward:
    """Linear payoff on the spot index: value N * (S - K) * df(t, T)."""

    notional: float
    strike: float
    maturity: float       # years

    def __post_init__(self):
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")


@dataclass(frozen=True)
class VanillaSwap:
    """Payer-fixed interest rate swap: fixed K against the curve's forwards."""

    notional: float
    fixed_rate: float
    payment_times: tuple[float, ...]   # years, strictly increasing
    accruals: tuple[float, ...]        # year fractions, positive

    def __post_init__(self):
        if not self.payment_times:
            raise ValueError("swap needs at least one payment time")
        if len(self.payment_times) != len(self.accruals):
            raise ValueError("payment_times and accruals must have equal length")
        if any(t2 <= t1 for t1, t2 in zip(self.payment_times, self.payment_times[1:])):
            raise ValueError("payment times must be strictly increasing")
        if self.payment_times[0] <= 0:
            raise ValueError("first payment time must be after contract start")
        if any(tau <= 0 for tau in self.accruals):
            raise ValueError("accruals must be positive")

    @property
    def maturity(self) -> float:
        return self.payment_times[-1]


Product = Union[Forward, VanillaSwap]


def discount_factor(snapshot: MarketSnapshot, t: float, maturity: float) -> float:
    """df(t, T) = exp(-r (T - t)) on the snapshot's flat curve; 1 when T = t."""
    if maturity < t:
        raise NegativeTenor(f"discounting backwards: t={t}, T={maturity}")
    return math.exp(-snapshot.zero_rate * (maturity - t))


def price(product: Product, t: float, snapshot: MarketSnapshot) -> float:
    """Value V(t, M(s)) of the product's remaining cash flows at time t (years)."""
    if t > product.maturity:
        raise PastMaturity(f"t={t} is past maturity {product.maturity}")
    if isinstance(product, Forward):
        return product.notional * (snapshot.spot - product.strike) * \
            discount_factor(snapshot, t, product.maturity)
    total = 0.0
    period_start = t  # first remaining period accrues from t
    for T_j, tau in zip(product.payment_times, product.accruals):
        if T_j <= t:
            continue
        df_start = discount_factor(snapshot, t, period_start)
        df_end = discount_factor(snapshot, t, T_j)
        fwd = (df_start / df_end - 1.0) / tau
        total += tau * (fwd - product.fixed_rate) * df_end
        period_start = T_j
    return product.notional * total


@dataclass(frozen=True)
class SettlementAmount:
    """Net cash flow for one period; positive means party B pays party A."""

    value: float
    as_of: int            # period-end tick
    value_end: float | None = None   # V(t_end) on the end snapshot, when priced


def settlement_amount(product: Product, period_start: int, period_end: int,
                      snap_old: MarketSnapshot, snap_new: MarketSnapshot,
                      tick_years: float,
                      pricer: Callable[[Product, float, MarketSnapshot], float] = price,
                      ) -> SettlementAmount:
    """Value change over (period_start, period_end] induced by the market move.

    Both prices are taken at the period end, one per snapshot, so an
    unchanged market yields exactly zero.
    """
    if period_start >= period_end:
        raise TimestampMismatch(f"period must advance: {period_start} -> {period_end}")
    if snap_old.as_of != period_start or snap_new.as_of != period_end:
        raise TimestampMismatch(
            f"snapshots at ({snap_old.as_of}, {snap_new.as_of}) do not match "
            f"period ({period_start}, {period_end})")
    t = period_end * tick_years
    value_end = pricer(product, t, snap_new)
    # positional: keyword construction of this frozen dataclass costs
    # measurably more, and calibration calls this once per trial
    return SettlementAmount(value_end - pricer(product, t, snap_old), period_end, value_end)


def round_to_minor_units(value: float) -> int:
    """Half-away-from-zero rounding at the ledger boundary."""
    return int(math.floor(abs(value) + 0.5)) * (1 if value >= 0 else -1)


def margin_buffer(samples: Sequence[float], q: float) -> int:
    """Nearest-rank q-quantile of |samples|, rounded up to minor units."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {q}")
    if len(samples) == 0:
        raise EmptySamples("margin sizing needs at least one sample")
    magnitudes = sorted(abs(s) for s in samples)
    rank = max(1, math.ceil(round(q * len(magnitudes), 9)))
    return math.ceil(magnitudes[rank - 1])


# -- pricer registry: contracts pin a pricer by version identifier --

PRICER_FLAT_CURVE_V1 = "flat-curve-v1"

_PRICERS: dict[str, Callable[[Product, float, MarketSnapshot], float]] = {
    PRICER_FLAT_CURVE_V1: price,
}


def register_pricer(version: str, pricer: Callable[[Product, float, MarketSnapshot], float]) -> None:
    _PRICERS[version] = pricer


def get_pricer(version: str) -> Callable[[Product, float, MarketSnapshot], float]:
    try:
        return _PRICERS[version]
    except KeyError:
        raise UnknownPricer(f"no pricer registered under {version!r}") from None


class MarketStore:
    """Snapshot history keyed by tick; single writer, asOf strictly increasing."""

    def __init__(self):
        self._snapshots: dict[int, MarketSnapshot] = {}
        self._last_tick: int | None = None

    def add(self, snapshot: MarketSnapshot) -> None:
        if self._last_tick is not None and snapshot.as_of <= self._last_tick:
            raise ValueError(f"snapshots must arrive in increasing tick order "
                             f"({self._last_tick} then {snapshot.as_of})")
        self._snapshots[snapshot.as_of] = snapshot
        self._last_tick = snapshot.as_of

    def has(self, tick: int) -> bool:
        return tick in self._snapshots

    def get(self, tick: int) -> MarketSnapshot:
        try:
            return self._snapshots[tick]
        except KeyError:
            raise MissingSnapshot(f"no market snapshot stored for tick {tick}") from None

    def ticks(self) -> list[int]:
        return sorted(self._snapshots)


@dataclass(frozen=True)
class OracleBinding:
    """What a contract pins: the product, pricer version and tick scale."""

    contract_id: str
    product: Product
    pricer_version: str
    tick_years: float


class MarginOracle:
    """Settlement-amount source shared by both parties.

    One valuation per (contract, period): computed by `_compute`, here from
    stored snapshots, journaled as a Valuation event, cached for idempotent
    re-queries. The journaled pricer is `pricer_label`, or the binding's
    pricer version when that is None.
    """

    pricer_label: str | None = None

    def __init__(self, store: MarketStore | None, journal: Journal, clock: Clock):
        self.store = store
        self._journal = journal
        self._clock = clock
        self._cache: dict[tuple[str, int, int], SettlementAmount] = {}

    def query(self, binding: OracleBinding, period_start: int, period_end: int) -> SettlementAmount:
        key = (binding.contract_id, period_start, period_end)
        if key in self._cache:
            return self._cache[key]
        amount = self._compute(binding, period_start, period_end)
        self._journal.append(EventRecord.create(
            self._clock.now(), EventKind.VALUATION, SYSTEM_ACTOR,
            contract=binding.contract_id, period_start=period_start,
            period_end=period_end, value=repr(amount.value),
            pricer=self.pricer_label or binding.pricer_version))
        self._cache[key] = amount
        return amount

    def _compute(self, binding: OracleBinding, period_start: int,
                 period_end: int) -> SettlementAmount:
        pricer = get_pricer(binding.pricer_version)
        snap_old = self.store.get(period_start)
        snap_new = self.store.get(period_end)
        return settlement_amount(binding.product, period_start, period_end,
                                 snap_old, snap_new, binding.tick_years, pricer)


class ScriptedOracle(MarginOracle):
    """Oracle returning prescribed per-period values (test/driver use).

    It has no snapshot store; caching and journaling are MarginOracle's,
    with the pricer journaled as "scripted".
    """

    pricer_label = "scripted"

    def __init__(self, journal: Journal, clock: Clock,
                 values: dict[tuple[int, int], float]):
        super().__init__(None, journal, clock)
        self._values = dict(values)

    def _compute(self, binding: OracleBinding, period_start: int,
                 period_end: int) -> SettlementAmount:
        try:
            value = self._values[(period_start, period_end)]
        except KeyError:
            raise MissingSnapshot(
                f"no scripted value for period ({period_start}, {period_end})") from None
        return SettlementAmount(value=value, as_of=period_end)
