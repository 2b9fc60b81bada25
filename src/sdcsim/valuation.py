"""Market snapshots, product pricing and the settlement-amount oracle.

The pricing model is deliberately small: a flat continuously-compounded
zero rate per snapshot, so df(t, T) = exp(-r * (T - t)). Two reference
products are priced on it:

  * Forward: N * (S - K) * df(t, T) -- settlement algebra is hand-checkable
    (with r = 0 a settlement equals N * dS exactly).
  * VanillaSwap (payer-fixed): N * sum over remaining payments of
    tau_j * (f_j - K) * df(t, T_j), with forward rates read off the same
    curve and the first remaining period accruing from t. The remaining
    schedule is built once per valuation time; the arithmetic per payment
    is unchanged.

A period's settlement amount is the value change induced purely by the
market-data move: both value terms are evaluated at the period end, one
on the end snapshot and one on the start snapshot. Equal snapshots give
exactly zero. Positive amounts mean party B pays party A.

Valuations are plain floats at minor-unit scale and are rounded
half-away-from-zero to integer minor units only when money actually
moves on the ledger.

The MarginOracle, built once per contract over its market path with the
terms the contract pins, is the one place a run prices the period-end value
V(t_end). It only prices: settlement_amount computes a period's amount once,
reading the value terms through a memo kept for the current period end, and
the amount is cached, so both parties see one number (the contract journals
it) and the willful agents' projections and the settlement share each price.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .errors import (
    EmptySamples,
    MissingSnapshot,
    PastMaturity,
    TimestampMismatch,
    UnknownPricer,
    ValuationOutOfRange,
)


class _MarketData(NamedTuple):
    as_of: int            # tick on the simulation grid
    spot: float           # observable index level, > 0
    zero_rate: float      # flat continuously-compounded rate p.a.


class MarketSnapshot(_MarketData):
    """Observed market data at one simulation tick. Construction raises
    ValueError unless spot > 0 (so a NaN spot fails); `_make`, `_replace` and
    `tuple.__new__` skip the check, as `MarketPath.at` does."""

    __slots__ = ()

    def __new__(cls, as_of: int, spot: float, zero_rate: float):
        if not spot > 0:
            raise ValueError(f"spot must be positive, got {spot}")
        return tuple.__new__(cls, (as_of, spot, zero_rate))


@dataclass(eq=False)
class MarketPath:
    """A market path as three columns of one length, ticks strictly increasing. It has no
    row view: `at` builds the MarketSnapshot of one tick, by `tuple.__new__` (no spot check),
    when it is read, and keeps none."""

    ticks: Sequence[int] = ()
    spots: Sequence[float] = ()
    rates: Sequence[float] = ()     # zero rates

    def __post_init__(self):
        ticks, lengths = self.ticks, tuple(map(len, (self.ticks, self.spots, self.rates)))
        if len(set(lengths)) > 1:
            raise ValueError(f"path columns differ in length (ticks, spots, rates: {lengths})")
        if not all(map(operator.lt, ticks, ticks[1:])):  # one pass; a loop names the pair
            prev, tick = next((a, b) for a, b in zip(ticks, ticks[1:]) if not a < b)
            raise ValueError(f"snapshots must arrive in increasing tick order ({prev} then {tick})")

    def at(self, tick: int) -> MarketSnapshot:
        """The snapshot at `tick`, at its offset from the first tick; the ticks strictly
        increase, so only a column with gaps is searched (by bisection)."""
        ticks, n = self.ticks, len(self.ticks)
        i = tick - ticks[0] if n else n
        if not (0 <= i < n and ticks[i] == tick):
            i = bisect_left(ticks, tick) if n and ticks[-1] - ticks[0] >= n else n
            if i == n or ticks[i] != tick:
                raise MissingSnapshot(f"no market snapshot stored for tick {tick}")
        return tuple.__new__(MarketSnapshot, (ticks[i], self.spots[i], self.rates[i]))


@dataclass(frozen=True)
class Forward:
    """Linear payoff on the spot index: value N * (S - K) * df(t, T)."""

    notional: float
    strike: float
    maturity: float       # years

    def __post_init__(self):
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")


@dataclass(frozen=True)
class VanillaSwap:
    """Payer-fixed interest rate swap: fixed K against the curve's forwards."""

    notional: float
    fixed_rate: float
    payment_times: tuple[float, ...]   # years, strictly increasing
    accruals: tuple[float, ...]        # year fractions, positive
    # (t, ((T_j - t, tau_j), ...)) for the last valuation time `price` saw: a
    # cache, so no argument and no part of ==, hash or repr
    _remaining: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.payment_times:
            raise ValueError("swap needs at least one payment time")
        if len(self.payment_times) != len(self.accruals):
            raise ValueError("payment_times and accruals must have equal length")
        if any(not t2 > t1 for t1, t2 in zip(self.payment_times, self.payment_times[1:])):
            raise ValueError("payment times must be strictly increasing")
        if not self.payment_times[0] > 0:
            raise ValueError("first payment time must be after contract start")
        if any(not tau > 0 for tau in self.accruals):
            raise ValueError("accruals must be positive")

    @property
    def maturity(self) -> float:
        return self.payment_times[-1]


Product = Union[Forward, VanillaSwap]

# years by which a valuation time may pass the maturity, and a contract's final
# grid time (tick * tick_years, which need not round to it) may miss it
MATURITY_TOLERANCE = 1e-9


def price(product: Product, t: float, snapshot: MarketSnapshot) -> float:
    """Value V(t, M(s)) of the product's remaining cash flows at time t (years)."""
    if t > product.maturity + MATURITY_TOLERANCE:
        raise PastMaturity(f"t={t} is past maturity {product.maturity}")
    if isinstance(product, Forward):
        return product.notional * (snapshot.spot - product.strike) * \
            math.exp(-snapshot.zero_rate * (product.maturity - t))  # df(t, T)
    memo_t, remaining = product._remaining
    if t != memo_t:  # a NaN t never matches, and every payment is kept for it
        remaining = tuple((T_j - t, tau) for T_j, tau in zip(product.payment_times,
                                                             product.accruals) if not T_j <= t)
        object.__setattr__(product, "_remaining", (t, remaining))
    neg_r, fixed_rate, exp = -snapshot.zero_rate, product.fixed_rate, math.exp
    total = 0.0
    df_start = 1.0  # first remaining period accrues from t: df(t, t)
    for tenor, tau in remaining:
        df_end = exp(neg_r * tenor)  # df(t, T_j)
        fwd = (df_start / df_end - 1.0) / tau
        total += tau * (fwd - fixed_rate) * df_end
        df_start = df_end
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
    return SettlementAmount(value_end - pricer(product, t, snap_old), period_end, value_end)


def round_to_minor_units(value: float) -> int:
    """Half-away-from-zero rounding at the ledger boundary."""
    return int(math.floor(abs(value) + 0.5)) * (1 if value >= 0 else -1)


def margin_buffer(samples: Sequence[float], q: float) -> int:
    """Nearest-rank q-quantile of |samples|, rounded up to minor units. The rank is
    selected in one float64 copy, not sorted; a NaN or infinite sample raises ValueError."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {q}")
    if len(samples) == 0:
        raise EmptySamples("margin sizing needs at least one sample")
    import numpy as np  # on first use, as in journal._walk (about 2 MB of RSS)
    magnitudes = np.array(samples, np.float64)  # a copy, so the in-place steps are ours
    np.abs(magnitudes, out=magnitudes)
    if not np.isfinite(magnitudes).all():
        raise ValueError("margin sizing needs finite samples")
    rank = max(1, math.ceil(round(q * len(magnitudes), 9)))
    magnitudes.partition(rank - 1)  # selection: the rank-th smallest lands at rank - 1
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


class MarginOracle:
    """Settlement-amount source shared by both parties of one contract.

    Built over the contract's MarketPath with the terms it pins. A snapshot
    is built only for a tick it prices, once per pricing. Each period is
    valued once by `settlement_amount` and cached for idempotent re-queries;
    nothing is journaled here. A pricer overflow, a swap's discount factor
    that underflows to zero or a non-finite period value raises
    ValuationOutOfRange and caches nothing.

    `value` prices V(t_end) on one snapshot; `settlement_amount` and agents
    projecting the upcoming settlement price through it. Its memo holds the
    current period end only and restarts when that changes, so it never holds
    more than one period's snapshots (window ticks, start and end).
    """

    def __init__(self, path: MarketPath, product: Product,
                 pricer_version: str, tick_years: float):
        self._snapshot = path.at  # a tick the path lacks raises MissingSnapshot
        self.product = product
        self.pricer_version = pricer_version
        self.tick_years = tick_years
        self._cache: dict[tuple[int, int], SettlementAmount] = {}
        self._memo_end: int | None = None
        self._memo: dict[int, float] = {}

    def value(self, period_end: int, as_of: int) -> float:
        """V(t_end) of the contract's product on the snapshot at `as_of`."""
        return self._value(period_end, as_of)

    def _value(self, period_end: int, as_of: int, snapshot: MarketSnapshot | None = None) -> float:
        """`value`, pricing `snapshot` (the one at `as_of`) if given on a memo miss."""
        if period_end != self._memo_end:
            self._memo_end = period_end
            self._memo = {}
        value = self._memo.get(as_of)
        if value is None:
            pricer = get_pricer(self.pricer_version)
            try:
                value = pricer(self.product, period_end * self.tick_years,
                               snapshot or self._snapshot(as_of))
            except (OverflowError, ZeroDivisionError) as exc:
                raise ValuationOutOfRange(f"pricing tick {as_of} overflows ({exc})") from None
            self._memo[as_of] = value
        return value

    def query(self, period_start: int, period_end: int) -> SettlementAmount:
        key = (period_start, period_end)
        amount = self._cache.get(key)
        if amount is None:
            # a missing start is reported before a missing end; each snapshot is priced as built
            amount = settlement_amount(
                self.product, period_start, period_end, self._snapshot(period_start),
                self._snapshot(period_end), self.tick_years,
                lambda product, t, snapshot: self._value(period_end, snapshot.as_of, snapshot))
            if not math.isfinite(amount.value):
                raise ValuationOutOfRange(
                    f"period ({period_start}, {period_end}) is {amount.value!r}")
            self._cache[key] = amount
        return amount

    def cached(self, period_start: int, period_end: int) -> SettlementAmount | None:
        """The period's amount if `query` has computed it; never prices."""
        return self._cache.get((period_start, period_end))
