from __future__ import annotations

import ast
import copy
import importlib
import itertools
import math
import pkgutil
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdcsim import (
    Forward,
    MarginOracle,
    MarketPath,
    MarketSnapshot,
    VanillaSwap,
    margin_buffer,
    price,
    register_pricer,
    round_to_minor_units,
    settlement_amount,
)
from sdcsim.errors import (
    EmptySamples,
    MissingSnapshot,
    PastMaturity,
    TimestampMismatch,
    UnknownPricer,
    ValuationOutOfRange,
)
import sdcsim
from sdcsim import valuation
from sdcsim.valuation import get_pricer

from conftest import COUNTING_PRICER
from support import par_rate, path_of, product_value, reference_swap_price, sort_quantile


def snap(tick=0, spot=100.0, rate=0.02) -> MarketSnapshot:
    return MarketSnapshot(as_of=tick, spot=spot, zero_rate=rate)


# -- market snapshots --

@pytest.mark.parametrize("spot", [0.0, -1.0, -0.0])
def test_snapshot_rejects_a_spot_that_is_not_positive(spot):
    with pytest.raises(ValueError, match="spot must be positive"):
        MarketSnapshot(3, spot, 0.01)
    with pytest.raises(ValueError, match="spot must be positive"):
        MarketSnapshot(as_of=3, spot=spot, zero_rate=0.01)


def test_snapshot_is_a_named_tuple():
    s = MarketSnapshot(3, 101.5, 0.01)
    assert (s.as_of, s.spot, s.zero_rate) == tuple(s) == (3, 101.5, 0.01)
    assert s._replace(spot=99.0) == MarketSnapshot(3, 99.0, 0.01)
    assert type(s._replace(spot=99.0)) is MarketSnapshot


# -- NaN fails every positivity and order check, and so do zero and a repeated time --

NAN = math.nan


@pytest.mark.parametrize("make,message", [
    (lambda: MarketSnapshot(0, NAN, 0.0), "spot must be positive, got nan"),
    (lambda: Forward(1.0, 1.0, NAN), "maturity must be positive"),
    (lambda: VanillaSwap(1.0, 0.02, (NAN,), (0.5,)),
     "first payment time must be after contract start"),
    (lambda: VanillaSwap(1.0, 0.02, (NAN, 1.0), (0.5, NAN)),
     "payment times must be strictly increasing"),
    (lambda: VanillaSwap(1.0, 0.02, (0.5, NAN), (0.5, 0.5)),
     "payment times must be strictly increasing"),
    (lambda: VanillaSwap(1.0, 0.02, (0.5, 1.0), (0.5, NAN)), "accruals must be positive"),
    # not NaN: a swap with no payment fails before any of its time checks
    (lambda: VanillaSwap(1.0, 0.02, (), ()), "swap needs at least one payment time"),
    (lambda: Forward(1.0, 1.0, 0.0), "maturity must be positive"),
    (lambda: VanillaSwap(1.0, 0.02, (0.0,), (0.5,)),
     "first payment time must be after contract start"),
    (lambda: VanillaSwap(1.0, 0.02, (0.5, 0.5), (0.5, 0.5)),
     "payment times must be strictly increasing"),
    (lambda: VanillaSwap(1.0, 0.02, (0.5, 1.0), (0.5, 0.0)), "accruals must be positive"),
], ids=["snapshot_spot", "forward_maturity", "swap_first_payment_time",
        "swap_payment_times_nan_first", "swap_payment_times_nan_later", "swap_accruals",
        "swap_no_payment_times", "forward_maturity_zero", "swap_first_payment_time_zero",
        "swap_payment_times_repeated", "swap_accruals_zero"])
def test_nan_fails_the_snapshot_and_product_checks(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# -- forward pricing --

def test_forward_at_strike_is_worthless():
    product = Forward(notional=1000.0, strike=100.0, maturity=2.0)
    for rate in (0.0, 0.03, 0.1):
        assert price(product, 0.5, snap(spot=100.0, rate=rate)) == 0.0


def test_forward_zero_rate_arithmetic():
    product = Forward(notional=1.0, strike=100.0, maturity=1.0)
    assert price(product, 0.0, snap(spot=105.0, rate=0.0)) == 5.0


def test_forward_discounts_the_payoff():
    product = Forward(notional=10.0, strike=90.0, maturity=3.0)
    value = price(product, 1.0, snap(spot=100.0, rate=0.05))
    assert value == pytest.approx(10.0 * 10.0 * math.exp(-0.05 * 2.0), rel=1e-15)
    assert price(product, 3.0, snap(spot=100.0, rate=0.05)) == 10.0 * 10.0  # df(T, T) is 1


def test_pricing_past_maturity_rejected():
    product = Forward(notional=1.0, strike=100.0, maturity=1.0)
    with pytest.raises(PastMaturity):
        price(product, 1.5, snap())
    with pytest.raises(PastMaturity):
        price(product, 1.0 + 2 * valuation.MATURITY_TOLERANCE, snap())
    # a grid time within the contract's maturity tolerance, or exactly on it, is priced
    for t in (1.0 + valuation.MATURITY_TOLERANCE / 2, 1.0 + valuation.MATURITY_TOLERANCE):
        assert price(product, t, snap(spot=101.0)) == pytest.approx(1.0)


# -- swap pricing --

def semiannual_swap(fixed_rate: float, years: int = 5, notional: float = 1e6) -> VanillaSwap:
    times = tuple(0.5 * k for k in range(1, 2 * years + 1))
    return VanillaSwap(notional=notional, fixed_rate=fixed_rate,
                       payment_times=times, accruals=(0.5,) * (2 * years))


def test_swap_at_par_rate_is_worthless():
    for rate in (0.0, 0.01, 0.04, 0.09):
        k_par = par_rate(semiannual_swap(0.0).payment_times,
                         semiannual_swap(0.0).accruals, rate)
        swap = semiannual_swap(k_par)
        assert abs(price(swap, 0.0, snap(rate=rate))) < 1e-12 * swap.notional


def test_swap_agrees_with_brute_force_dcf():
    rng = random.Random(1414)
    for _ in range(300):
        n = rng.randint(1, 40)
        tau = rng.choice([0.25, 0.5, 1.0])
        times = tuple(tau * k for k in range(1, n + 1))
        swap = VanillaSwap(notional=rng.uniform(1e3, 1e7), fixed_rate=rng.uniform(0.0, 0.12),
                           payment_times=times, accruals=(tau,) * n)
        rate = rng.uniform(0.0, 0.10)
        t = rng.uniform(0.0, times[-1])
        mine = price(swap, t, snap(rate=rate))
        oracle = product_value(swap, t, snap(rate=rate))
        assert mine == pytest.approx(oracle, rel=1e-10, abs=1e-10 * swap.notional)


def test_swap_value_sign_follows_rates():
    swap = semiannual_swap(0.03)
    assert price(swap, 0.0, snap(rate=0.06)) > 0  # payer-fixed gains when rates rise
    assert price(swap, 0.0, snap(rate=0.005)) < 0


def test_swap_mid_schedule_keeps_only_remaining_payments():
    swap = semiannual_swap(0.03, years=1)
    at_last = price(swap, 1.0, snap(rate=0.04))
    assert at_last == 0.0  # nothing remains at the final payment date


@st.composite
def swaps_and_times(draw):
    """A swap on a random payment grid, a valuation time at 0, exactly on
    a payment date or between two dates, and a curve rate."""
    n = draw(st.integers(1, 12))
    times = tuple(itertools.accumulate(
        draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))))
    swap = VanillaSwap(
        notional=draw(st.floats(1.0, 1e8)), fixed_rate=draw(st.floats(-0.05, 0.15)),
        payment_times=times,
        accruals=tuple(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))))
    dates = (0.0,) + times
    gaps = [(a + b) / 2 for a, b in zip(dates, dates[1:])]
    t = draw(st.one_of(st.just(0.0), st.sampled_from(times), st.sampled_from(gaps)))
    rate = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.2, 0.2)))
    return swap, t, rate


@settings(max_examples=300)
@given(swaps_and_times(), st.floats(1e-6, 10.0))
def test_swap_price_is_bit_identical_to_the_two_discount_factor_loop(case, past):
    swap, t, rate = case
    s = snap(rate=rate)
    assert price(swap, t, s) == reference_swap_price(swap, t, s)
    with pytest.raises(PastMaturity):
        price(swap, swap.maturity + past, s)


def test_swap_remaining_schedule_follows_the_valuation_time():
    # the swap keeps the schedule of the last time it was priced at; going
    # back to an earlier time, or on to a payment date, must rebuild it
    swap = VanillaSwap(notional=1e6, fixed_rate=0.025, payment_times=(0.5, 1.0, 1.75, 2.5),
                       accruals=(0.5, 0.5, 0.75, 0.75))
    twin = VanillaSwap(swap.notional, swap.fixed_rate, swap.payment_times, swap.accruals)
    before = (hash(swap), repr(swap))
    for t in (1.2, 1.2, 0.0, 1.0, 1.2, -0.0, 0.5, 2.1, 2.5, 0.75):
        for rate in (0.03, 0.0, -0.0, -0.01):
            s = snap(rate=rate)
            assert price(swap, t, s) == reference_swap_price(swap, t, s), (t, rate)
    assert math.isnan(price(swap, math.nan, snap()))  # no payment is dropped for a NaN time
    assert price(swap, 1.2, snap()) == reference_swap_price(swap, 1.2, snap())
    assert swap == twin and (hash(swap), repr(swap)) == before
    assert replace(swap, fixed_rate=0.03) == replace(twin, fixed_rate=0.03)
    copied = copy.deepcopy(swap)
    assert copied == swap and price(copied, 0.5, snap()) == price(twin, 0.5, snap())
    with pytest.raises(TypeError):
        VanillaSwap(1e6, 0.025, (1.0,), (1.0,), (None, ()))


# -- settlement amounts --

def test_equal_snapshots_settle_to_exactly_zero():
    swap = semiannual_swap(0.025)
    s = snap(tick=5, spot=101.5, rate=0.0312)
    s2 = MarketSnapshot(as_of=10, spot=s.spot, zero_rate=s.zero_rate)
    f = settlement_amount(swap, 5, 10, s, s2, tick_years=0.01)
    assert f.value == 0.0


def test_forward_settlement_is_spot_move_at_zero_rate():
    product = Forward(notional=50.0, strike=100.0, maturity=1.0)
    old = snap(tick=0, spot=100.0, rate=0.0)
    new = MarketSnapshot(as_of=10, spot=103.0, zero_rate=0.0)
    f = settlement_amount(product, 0, 10, old, new, tick_years=0.01)
    assert f.value == pytest.approx(50.0 * 3.0, rel=1e-12)


def test_swap_settlement_vs_dcf_oracle_on_rate_move():
    swap = semiannual_swap(0.025)
    old = snap(tick=0, rate=0.02)
    new = MarketSnapshot(as_of=25, spot=100.0, zero_rate=0.03)
    f = settlement_amount(swap, 0, 25, old, new, tick_years=0.02)
    t = 25 * 0.02
    oracle = product_value(swap, t, new) - product_value(swap, t, old)
    assert f.value == pytest.approx(oracle, rel=1e-10)


def test_settlement_snapshot_timestamps_must_match():
    product = Forward(notional=1.0, strike=100.0, maturity=1.0)
    with pytest.raises(TimestampMismatch):
        settlement_amount(product, 0, 10, snap(tick=1), snap(tick=10), tick_years=0.01)
    with pytest.raises(TimestampMismatch):
        settlement_amount(product, 10, 10, snap(tick=10), snap(tick=10), tick_years=0.01)


@settings(max_examples=100)
@given(spot=st.floats(0.5, 500.0), rate=st.floats(0.0, 0.15),
       strike=st.floats(50.0, 150.0), notional=st.floats(1.0, 1e6))
def test_zero_move_neutrality_property(spot, rate, strike, notional):
    product = Forward(notional=notional, strike=strike, maturity=2.0)
    old = MarketSnapshot(as_of=3, spot=spot, zero_rate=rate)
    new = MarketSnapshot(as_of=7, spot=spot, zero_rate=rate)
    assert settlement_amount(product, 3, 7, old, new, tick_years=0.01).value == 0.0


# -- rounding --

@pytest.mark.parametrize("value,expected", [
    (0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3),
    (-0.4, 0), (-0.5, -1), (-2.5, -3), (100.49, 100),
])
def test_round_half_away_from_zero(value, expected):
    assert round_to_minor_units(value) == expected


# -- margin buffer quantile --

def test_buffer_nearest_rank_on_1_to_100():
    samples = [float(x) for x in range(1, 101)]
    assert margin_buffer(samples, 0.95) == 95


def test_buffer_q1_is_the_maximum():
    samples = [3.5, -9.25, 4.0, -1.0]
    assert margin_buffer(samples, 1.0) == 10  # ceil(9.25)


def test_buffer_matches_independent_sort_oracle():
    rng = random.Random(777)
    samples = [rng.gauss(0.0, 250.0) for _ in range(10_000)]
    for q in (0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
        assert margin_buffer(samples, q) == sort_quantile(samples, q)


def test_buffer_rejects_empty_and_bad_q():
    with pytest.raises(EmptySamples):
        margin_buffer([], 0.95)
    with pytest.raises(ValueError):
        margin_buffer([1.0], 1.5)
    with pytest.raises(ValueError):
        margin_buffer([1.0], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 4])
def test_buffer_rejects_a_sample_that_is_not_finite(bad, at):
    # a NaN has no rank, and an inf at the picked rank has no ceiling
    samples = [3.5, -9.25, 4.0, -1.0]
    samples.insert(at, bad)
    for q in (0.2, 0.5, 1.0):
        with pytest.raises(ValueError, match="finite samples"):
            margin_buffer(samples, q)


# magnitudes from subnormal to 1e300, with small whole numbers and signed
# zeros so that lists hold equal magnitudes
_SAMPLE = st.one_of(
    st.floats(-1e300, 1e300),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@st.composite
def _samples_and_level(draw):
    """A list of 1-500 finite samples and a level q in (0, 1] with at most six
    decimals, on which the float rank and the exact-fraction rank agree;
    half the time q * len(samples) is a whole number (q = 1.0 among them)."""
    samples = draw(st.lists(_SAMPLE, min_size=1, max_size=500))
    n = len(samples)
    whole = [k * 10**6 // n for k in range(1, n + 1) if k * 10**6 % n == 0]
    micros = draw(st.one_of(st.sampled_from(whole), st.integers(1, 10**6)))
    return samples, micros / 10**6


@settings(max_examples=200, deadline=None)
@given(_samples_and_level())
@example(([float(x) for x in range(1, 101)], 0.07))  # 0.07 * 100 is 7.000000000000001
def test_buffer_equals_the_sort_oracle_on_drawn_samples(case):
    samples, q = case
    assert margin_buffer(samples, q) == sort_quantile(samples, q)


def test_buffer_leaves_its_samples_alone():
    # the magnitudes are taken and partitioned in place, in a copy
    samples = [3.5, -9.25, 4.0, -1.0]
    array = np.array(samples)
    assert margin_buffer(samples, 0.5) == margin_buffer(array, 0.5) == 4
    assert samples == [3.5, -9.25, 4.0, -1.0]
    assert array.tolist() == samples


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.9, 0.95, 0.99]))
def test_buffer_coverage_property(seed, q):
    rng = random.Random(seed)
    samples = [rng.gauss(0.0, 100.0) for _ in range(10_000)]
    buffer = margin_buffer(samples, q)
    exceed = sum(1 for s in samples if abs(s) > buffer) / len(samples)
    assert exceed <= (1 - q) + 2 / math.sqrt(len(samples))


# -- the oracle over a market path --

FORWARD = Forward(notional=10.0, strike=100.0, maturity=0.2)


def oracle_over(path, product=FORWARD, pricer_version="flat-curve-v1",
                tick_years=0.01) -> MarginOracle:
    return MarginOracle(path, product, pricer_version, tick_years)


def _dict_lookup(rows, tick):
    """The row at `tick` from a dict over the rows, as the oracle once kept them."""
    try:
        return {row.as_of: row for row in rows}[tick]
    except KeyError:
        raise MissingSnapshot(f"no market snapshot stored for tick {tick}") from None


def _outcome(lookup, tick):
    try:
        return lookup(tick)
    except MissingSnapshot as exc:
        return MissingSnapshot, str(exc)


@settings(max_examples=150, deadline=None)
@given(first=st.integers(-4, 6), steps=st.lists(st.integers(1, 3), max_size=10),
       as_range=st.booleans(), data=st.data())
def test_path_lookup_equals_a_dict_over_its_rows(first, steps, as_range, data):
    ticks = list(itertools.accumulate(steps, initial=first))
    n = len(ticks)
    spots = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    rates = data.draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    rows = [MarketSnapshot(t, s, r) for t, s, r in zip(ticks, spots, rates)]
    step = steps[0] if steps else 1
    # a tick column with one step is also tried as a `range`, as `generate_path` makes it
    column = range(first, first + step * n, step) if as_range and set(steps) <= {step} else ticks
    path = MarketPath(column, spots, rates)
    lookups = {"path": path.at, "oracle": oracle_over(path)._snapshot}
    for tick in range(ticks[0] - 2, ticks[-1] + 3):
        want = _outcome(lambda t: _dict_lookup(rows, t), tick)
        for name, lookup in lookups.items():
            got = _outcome(lookup, tick)
            assert got == want, (name, tick)
            assert type(got) is type(want), (name, tick)


@settings(max_examples=150, deadline=None)
@given(ticks=st.lists(st.integers(-3, 6), max_size=8),
       span=st.tuples(st.integers(-3, 6), st.integers(-3, 6), st.sampled_from([-2, -1, 1, 2])))
def test_the_order_error_names_the_first_bad_pair_for_rows_and_columns(ticks, span):
    for column in (ticks, range(*span)):  # a `range` column, as `generate_path` makes
        rows = [snap(tick=t) for t in column]
        bad = next(((a, b) for a, b in zip(column, column[1:]) if b <= a), None)
        n = len(column)
        for build in (lambda: path_of(rows), lambda: MarketPath(column, [100.0] * n, [0.02] * n)):
            if bad is None:
                oracle_over(build())
                continue
            with pytest.raises(ValueError) as refused:  # the path itself refuses the order
                oracle_over(build())
            assert str(refused.value) == ("snapshots must arrive in increasing tick order "
                                          f"({bad[0]} then {bad[1]})")


def test_a_path_that_at_could_not_read_is_refused():
    # `at` would miss a tick each of the first two holds, and read past the third's short columns
    for ticks, n, message in (([0, 1, 1, 2], 4, r"\(1 then 1\)"), ([0, 5, 3], 3, r"\(5 then 3\)"),
                              ([0, 1, 2], 1, r"\(3, 1, 1\)")):
        with pytest.raises(ValueError, match=message):
            MarketPath(ticks, [1.0] * n, [0.0] * n)


def test_store_requires_increasing_ticks():
    for path in ([snap(tick=1), snap(tick=1)], [snap(tick=2), snap(tick=1)]):
        with pytest.raises(ValueError, match="increasing tick order"):
            oracle_over(path_of(path))
    with pytest.raises(MissingSnapshot, match="tick 2$"):
        oracle_over(path_of([snap(tick=1)])).value(2, 2)


def test_oracle_matches_direct_settlement_amount():
    old, new = snap(tick=0, spot=100.0, rate=0.0), MarketSnapshot(10, 104.0, 0.0)
    oracle = oracle_over(path_of([old, new]))
    got = oracle.query(0, 10)
    want = settlement_amount(FORWARD, 0, 10, old, new, 0.01)
    assert got == want


def test_oracle_missing_snapshot_refuses():
    with pytest.raises(MissingSnapshot, match="tick 10$"):
        oracle_over(path_of([snap(tick=0)])).query(0, 10)
    # with both missing, the journaled reason names the period start
    with pytest.raises(MissingSnapshot, match="tick 0$"):
        oracle_over(path_of([])).query(0, 10)


@pytest.mark.parametrize("product,rate,message", [
    (Forward(notional=10.0, strike=100.0, maturity=0.2), -1e6,     # exp() overflows
     "pricing tick 10 overflows (math range error)"),
    (Forward(notional=1e308, strike=1e308, maturity=0.2), 0.0,     # -inf - -inf
     "period (0, 10) is nan"),
    # df(t, T_j) underflows to 0.0 and the forward rate divides by it
    (VanillaSwap(notional=100.0, fixed_rate=0.02, payment_times=(0.15, 0.2),
                 accruals=(0.15, 0.05)), 1e6,
     "pricing tick 10 overflows (float division by zero)"),
], ids=["overflow", "nan", "zero_discount"])
def test_oracle_out_of_range_value_refuses_and_journals_nothing(product, rate, message):
    oracle = oracle_over(path_of([snap(tick=0, rate=rate), snap(tick=10, spot=101.0, rate=rate)]),
                         product)
    with pytest.raises(ValuationOutOfRange) as refused:
        oracle.query(0, 10)
    assert str(refused.value) == message
    assert oracle.cached(0, 10) is None


def test_oracle_period_must_advance():
    with pytest.raises(TimestampMismatch):
        oracle_over(path_of([snap(tick=10)])).query(10, 10)


def test_oracle_is_idempotent_per_period():
    oracle = oracle_over(path_of([snap(tick=0, spot=100.0), MarketSnapshot(10, 107.0, 0.02)]))
    first = oracle.query(0, 10)
    assert oracle.query(0, 10) is first
    assert oracle.cached(0, 10) is first


@pytest.mark.parametrize("module", ["journal", "contract"])
def test_pricing_module_imports_nothing_from(module):
    # the oracle only prices, taking the contract's terms as plain values;
    # the contract journals the valuation it is delivered
    tree = ast.parse(Path(valuation.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert module not in imported


def _numpy_imports(module) -> tuple[list[int], list[int]]:
    """Lines of the module's numpy imports at module level and in function bodies."""
    outside, inside = [], []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                (inside if in_function else outside).append(child.lineno)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(Path(module.__file__).read_text()), False)
    return outside, inside


SDCSIM_MODULES = {"__init__": sdcsim} | {
    info.name: importlib.import_module(f"sdcsim.{info.name}")
    for info in pkgutil.iter_modules(sdcsim.__path__)}
NUMPY_USERS = {"journal", "simulator", "valuation"}


@pytest.mark.parametrize("name", sorted(SDCSIM_MODULES))
def test_numpy_is_imported_only_inside_functions(name):
    # `import sdcsim` loads no numpy: a module-level numpy import anywhere in the
    # package would add about 100 ms and 13 MB to every fresh process
    outside, inside = _numpy_imports(SDCSIM_MODULES[name])
    assert outside == []
    assert bool(inside) == (name in NUMPY_USERS)  # the guard sees the imports kept in place


# -- the oracle's per-period value memo --

TICK_YEARS = 0.01
SWAP = VanillaSwap(notional=1e6, fixed_rate=0.02,
                   payment_times=(0.1, 0.2, 0.3), accruals=(0.1, 0.1, 0.1))


def rate_path(ticks: int) -> list[MarketSnapshot]:
    return [snap(tick=k, rate=0.02 + 0.001 * (k % 5)) for k in range(ticks)]


def swap_oracle(rows, pricer_version=COUNTING_PRICER) -> MarginOracle:
    return oracle_over(path_of(rows), SWAP, pricer_version, TICK_YEARS)


def test_oracle_prices_each_period_end_and_snapshot_once(counting_pricer):
    oracle = swap_oracle(rate_path(11))
    for _ in range(3):
        for as_of in (0, 1, 2, 3):
            oracle.value(10, as_of)
    oracle.query(0, 10)
    t = 10 * TICK_YEARS
    assert sorted(counting_pricer) == [(t, 0), (t, 1), (t, 2), (t, 3), (t, 10)]


def test_repeated_oracle_value_is_the_identical_float(counting_pricer):
    path = rate_path(11)
    oracle = swap_oracle(path)
    first = oracle.value(10, 3)
    assert oracle.value(10, 3) is first
    assert first == price(SWAP, 10 * TICK_YEARS, path[3])
    assert len(counting_pricer) == 1


def test_oracle_value_memo_holds_only_the_current_period(counting_pricer):
    oracle = swap_oracle(rate_path(21))
    oracle.value(10, 0)
    oracle.value(10, 1)
    oracle.value(20, 10)     # a new period: the memo restarts
    oracle.value(20, 10)     # kept
    oracle.value(10, 0)      # dropped with its period, so priced again
    t10, t20 = 10 * TICK_YEARS, 20 * TICK_YEARS
    assert counting_pricer == [(t10, 0), (t10, 1), (t20, 10), (t10, 0)]


def test_query_through_a_warm_memo_equals_settlement_amount():
    path = rate_path(11)
    oracle = swap_oracle(path, pricer_version="flat-curve-v1")
    for as_of in (0, 4, 10):
        oracle.value(10, as_of)
    assert oracle.query(0, 10) == settlement_amount(SWAP, 0, 10, path[0], path[10], TICK_YEARS)


def test_pricer_registry_round_trip():
    with pytest.raises(UnknownPricer):
        get_pricer("no-such-version")
    register_pricer("test-flat-v2", price)
    assert get_pricer("test-flat-v2") is price
