"""Scenario files, market paths, counterparty agents and full runs.

A scenario is a line-oriented INI file with sections [contract],
[market], [agents] and [run]; parsing is fail-closed (unknown sections
or keys are errors). The market is either a seeded geometric Brownian
spot path with the zero rate held flat, or an explicit CSV path file
supplying per-tick spot and rate.

Normal variates come from a Philox counter-based generator mapped
through the inverse normal CDF, so a (seed, stream) pair pins the whole
path bit-for-bit: every run of a scenario is reproducible, and report
bytes and journal hashes compare equal across repetitions.

Agent behaviors:

  * compliant      -- tops the margin bucket up to the buffer during
    every open window.
  * defaulting:K   -- compliant until cycle K, then stops funding
    (the credit-event termination path).
  * willful:T      -- compliant until its own one-step-ahead view of the
    upcoming settlement shows adverse exposure above T, then empties its
    margin wallet to force termination.
"""

from __future__ import annotations

import configparser
import io
import math
import operator
import re
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, chain, repeat
from pathlib import Path

from .contract import ACCOUNTS_OPEN, ContractInstance, ContractSpec, Phase
from .errors import ScenarioParseError, ScenarioValidationError, SdcError, UnknownPricer
from .journal import SETTLEMENT, SYSTEM_ACTOR, VALUATION, Clock, EventKind, Journal, write_atomic
from .ledger import AccountId, Bucket, Ledger
from .scheduler import ON_ROWS, Engine, ScriptStep, format_script, parse_script
from .valuation import (
    Forward,
    MarginOracle,
    MarketPath,
    MarketSnapshot,
    Product,
    VanillaSwap,
    get_pricer,
    margin_buffer,
    round_to_minor_units,
    settlement_amount,
)

ORACLE_LABEL = "oracle"

# The final settlement tick a scenario may name: the market path holds one
# snapshot per tick from 0 to it.
MAX_FINAL_TICK = 10**6

# The most variates one buffer calibration may draw: trials times the first
# period's length in ticks.
MAX_CALIBRATION_VARIATES = 10**7

# Philox sub-stream ids; a scenario seed plus one of these pins a variate stream.
PATH_STREAM = 0
CALIBRATION_STREAM = 1
EVALUATION_STREAM = 2


@dataclass(frozen=True)
class MarketModel:
    initial_spot: float
    initial_rate: float
    volatility: float       # p.a.
    drift: float            # p.a.
    tick_years: float

    def __post_init__(self):
        if not self.initial_spot > 0:
            raise ValueError("initial_spot must be positive")
        if not self.volatility >= 0:
            raise ValueError("volatility must be non-negative")
        if not self.tick_years > 0:
            raise ValueError("tick_years must be positive")


@dataclass(frozen=True)
class PolicySpec:
    kind: str               # a key of _POLICIES
    param: int | None = None


class Mode(str, Enum):
    """Who requests the lifecycle events: the oracle account, the trusted
    third party (active); party B (passive); or a driver script of party A's
    rows (driver). Every mode replays the timeline's rows, so all three
    journal the same bytes."""

    ACTIVE = "active"
    PASSIVE = "passive"
    DRIVER = "driver"


@dataclass(frozen=True)
class Scenario:
    name: str
    contract: ContractSpec      # party fields hold labels until accounts exist
    funding_a: int
    funding_b: int
    policy_a: PolicySpec
    policy_b: PolicySpec
    market: MarketModel | None
    path_file: str | None
    seed: int
    mode: Mode


# -- agent policies --


def _top_up(contract: ContractInstance, party: AccountId) -> None:
    """Deposit what the party's free balance allows of its margin shortfall."""
    shortfall = contract.spec.margin_required(party) - contract.margin_bucket(party)
    if shortfall > 0:
        deposit = min(shortfall, contract.ledger.balance_of(party))
        if deposit > 0:
            contract.deposit_margin(party, deposit)


class CompliantAgent:
    """Tops the margin bucket up to the required buffer whenever allowed."""

    wakes = frozenset({Phase.ACCOUNTS_OPEN, ON_ROWS})  # per class: the engine reads no base's

    def on_tick(self, engine: Engine, party: AccountId) -> None:
        contract = engine.contract
        if contract.phase is ACCOUNTS_OPEN:
            _top_up(contract, party)


class DefaultingAgent(CompliantAgent):
    """Stops funding from a given cycle on, as after a credit event."""

    wakes = CompliantAgent.wakes

    def __init__(self, at_cycle: int):
        self.at_cycle = at_cycle

    def on_tick(self, engine: Engine, party: AccountId) -> None:
        if engine.contract.cycle >= self.at_cycle:
            return
        super().on_tick(engine, party)


class WillfulAgent(CompliantAgent):
    """Empties the margin wallet once its projected exposure turns adverse.

    The projection uses the snapshot visible during the open window
    against the period-start snapshot, both priced by the oracle's `value`
    (so both agents and the settlement share one price per snapshot); the
    settlement-time snapshot is never available before accounts close.
    Without a projection (any `SdcError` pricing it) it only tops up.
    """

    wakes = frozenset({Phase.ACCOUNTS_OPEN})  # no ON_ROWS: it reads the market at `now`

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.triggered = False

    def on_tick(self, engine: Engine, party: AccountId) -> None:
        if self.triggered:
            return
        contract = engine.contract
        if contract.phase is not ACCOUNTS_OPEN:
            return
        spec, cycle = contract.spec, contract.cycle
        grid = spec.settlement_times  # an open window's cycle is never past the last one
        start, end = grid[cycle], grid[cycle + 1]
        value = engine.oracle.value
        try:
            projected = value(end, engine.clock.now()) - value(end, start)
        except SdcError:  # a missing snapshot, a price out of range or a pricer's refusal
            pass
        else:
            pays = spec.payer_receiver(projected)[0] == party
            if (abs(projected) if pays else 0.0) > self.threshold:
                held = contract.margin_bucket(party)
                if held > 0:
                    contract.withdraw_margin(party, held)
                self.triggered = True
                return
        _top_up(contract, party)


_POLICIES = {"compliant": lambda _: CompliantAgent(), "defaulting": DefaultingAgent,
             "willful": WillfulAgent}


def make_policy(spec: PolicySpec):
    if spec.kind not in _POLICIES:
        raise ScenarioParseError(f"unknown agent policy {spec.kind!r}")
    return _POLICIES[spec.kind](spec.param)


# -- seeded market paths --


# Variates are drawn and transformed this many at a time, which bounds the
# numpy temporaries. Chunking leaves the stream unchanged: each draw of
# integers(0, 2**53) takes exactly one 64-bit Philox output.
VARIATE_CHUNK = 1 << 16


def normal_variates(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard normals from a Philox counter keyed by (seed, stream),
    mapped through the inverse normal CDF."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))
    out = np.empty(count)
    for lo in range(0, count, VARIATE_CHUNK):
        # (raw + 0.5) / 2**53 in place in the float copy: two fewer chunk-sized temporaries
        p = gen.integers(0, 1 << 53, size=min(VARIATE_CHUNK, count - lo),
                         dtype=np.uint64).astype(np.float64)
        p += 0.5
        p /= 1 << 53
        out[lo:lo + len(p)] = inv_normal_cdf(p)
    return out


def inv_normal_cdf(p: np.ndarray) -> np.ndarray:
    """`NormalDist().inv_cdf` over an array of p in (0, 1), bit for bit.

    The central fit of Wichura's AS241 runs in numpy, in CPython's operation
    order and in place on every p (its denominator stays positive). The tails,
    about 15% of p, are then written over it by index from the function
    `NormalDist.inv_cdf` itself calls, so they are the reference's values.
    """
    import numpy as np
    from statistics import _normal_dist_inv_cdf  # first use: it imports fractions and decimal

    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _horner(r, _CENTRAL_NUM)
    x *= q
    x /= _horner(r, _CENTRAL_DEN)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    x[tail] = np.fromiter(map(_normal_dist_inv_cdf, p[tail].tolist(), repeat(0.0), repeat(1.0)),
                          np.float64, len(tail))
    return x


def _horner(r: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """(((c0 * r + c1) * r + c2) ...) + cn, one multiply and one add per step."""
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


# AS241's central coefficients, highest power first.
_CENTRAL_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
                4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
                1.3314166789178437745e+2, 3.3871328727963666080e+0)
_CENTRAL_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
                2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
                4.2313330701600911252e+1, 1.0)


def generate_path(model: MarketModel, seed: int, ticks: int,
                  stream: int = PATH_STREAM) -> MarketPath:
    """Geometric Brownian spot path of `ticks` snapshots starting at tick 0:
    `range` ticks, the spots, and the initial zero rate repeated."""
    if ticks < 1:
        raise ValueError("need at least one tick")
    import numpy as np
    drift_term, vol_term = _log_move_terms(model)
    # numpy's elementwise multiply and add round as Python's floats do, and an
    # inf or NaN here fails below as it would in Python
    with np.errstate(over="ignore", invalid="ignore"):
        log_moves = (drift_term + vol_term * normal_variates(seed, stream, ticks - 1)).tolist()
    try:
        spots = list(accumulate(map(math.exp, log_moves), operator.mul,
                                initial=model.initial_spot))
    except OverflowError as exc:
        raise _out_of_range("spot", exc) from None
    # a spot at 0.0 or inf stays there or turns NaN, so the last one tells for all
    if not 0.0 < spots[-1] < math.inf:
        raise _out_of_range("spot", f"spot {spots[-1]!r} at tick {ticks - 1}")
    return MarketPath(range(ticks), spots, [model.initial_rate] * ticks)


def _log_move_terms(model: MarketModel) -> tuple[float, float]:
    """Drift and volatility terms of one tick's log move."""
    dt = model.tick_years
    try:
        variance = model.volatility ** 2
    except OverflowError as exc:
        raise _out_of_range("spot", exc) from None
    return (model.drift - 0.5 * variance) * dt, model.volatility * math.sqrt(dt)


def _out_of_range(what: str, cause) -> ScenarioValidationError:
    return ScenarioValidationError(
        "market", f"the model drives the {what} out of the float range ({cause})")


def load_path_csv(path: str | Path) -> MarketPath:
    """Market path file: header `time,spot,zero_rate`, one row per tick, read
    into columns in one pass that names the first bad row by its line."""
    lines = _read_text(Path(path)).splitlines()
    if not lines or lines[0].strip() != "time,spot,zero_rate":
        raise ScenarioParseError("path file must start with header 'time,spot,zero_rate'", line=1)
    ticks, spots, rates = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise ScenarioParseError("expected 'time,spot,zero_rate'", line=lineno)
        try:
            tick, spot, rate = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line=lineno) from None
        if spot <= 0:  # a NaN spot passes, to be named as not finite
            raise ScenarioParseError(f"spot must be positive, got {spot}", line=lineno)
        if not math.isfinite(spot):
            raise ScenarioParseError(f"spot must be finite, got {spot!r}", line=lineno)
        if not math.isfinite(rate):
            raise ScenarioParseError(f"zero_rate must be finite, got {rate!r}", line=lineno)
        if ticks and tick <= ticks[-1]:
            raise ScenarioParseError("ticks must be strictly increasing", line=lineno)
        ticks.append(tick)
        spots.append(spot)
        rates.append(rate)
    return MarketPath(ticks, spots, rates)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") \
            from None


def write_path_csv(market: MarketPath, path: str | Path) -> None:
    out = io.StringIO()
    out.write("time,spot,zero_rate\n")
    for tick, spot, rate in zip(market.ticks, market.spots, market.rates):
        out.write(f"{tick},{spot!r},{rate!r}\n")
    write_atomic(path, out.getvalue().encode())


# -- scenario files --

_SECTION_KEYS = {
    "contract": {"contract_id", "party_a", "party_b", "product", "notional", "strike",
                 "payment_times", "accruals", "settlement_times", "margin_a", "margin_b",
                 "fee_a", "fee_b", "prefund_window", "pricer"},
    "market": {"tick_years", "initial_spot", "initial_rate", "volatility", "drift",
               "path_file"},
    "agents": {"policy_a", "policy_b", "funding_a", "funding_b"},
    "run": {"seed", "mode"},
}


def _get(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ScenarioParseError(f"missing key {key!r} in section [{section}]")
    return cp.get(section, key).strip()


# Ids end up as CSV fields and as account labels ("label#n"), so they may
# hold neither the column separator nor the account-number separator.
_ID = re.compile(r"[A-Za-z0-9_.-]+")


def _get_id(cp, key: str) -> str:
    raw = _get(cp, "contract", key)
    if not _ID.fullmatch(raw):
        raise ScenarioValidationError(key, f"must match {_ID.pattern}, got {raw!r}")
    return raw


def _get_int(cp, section, key, minimum: int | None = None) -> int:
    raw = _get(cp, section, key)
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioValidationError(key, f"not an integer: {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ScenarioValidationError(key, f"must be >= {minimum}, got {value}")
    return value


def _to_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioValidationError(key, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioValidationError(key, f"must be finite, got {raw!r}")
    return value


def _get_float(cp, section, key) -> float:
    return _to_float(_get(cp, section, key), key)


def _get_floats(cp, section, key) -> tuple[float, ...]:
    return tuple(_to_float(x.strip(), key) for x in _get(cp, section, key).split(","))


def _parse_policy(raw: str, field: str) -> PolicySpec:
    kind, _, arg = raw.partition(":")
    kind = kind.strip()
    if kind not in _POLICIES:
        raise ScenarioParseError(f"{field}: unknown agent policy {kind!r}")
    if kind == "compliant":
        if arg:
            raise ScenarioParseError(f"{field}: policy {kind!r} takes no argument")
        return PolicySpec(kind)
    try:
        return PolicySpec(kind, int(arg))
    except ValueError:
        raise ScenarioParseError(
            f"{field}: policy {kind!r} needs an integer argument, got {arg!r}") from None


def _parse_product(cp, tick_years: float, grid: tuple[int, ...]) -> Product:
    kind = _get(cp, "contract", "product")
    notional = _get_float(cp, "contract", "notional")
    strike = _get_float(cp, "contract", "strike")
    if kind == "forward":
        for key in ("payment_times", "accruals"):
            if cp.has_option("contract", key):
                raise ScenarioParseError(f"key {key!r} only applies to vanilla_swap")
        try:
            return Forward(notional=notional, strike=strike, maturity=grid[-1] * tick_years)
        except ValueError as exc:
            raise ScenarioValidationError("contract", str(exc)) from None
    if kind == "vanilla_swap":
        times = _get_floats(cp, "contract", "payment_times")
        accruals = _get_floats(cp, "contract", "accruals")
        try:
            return VanillaSwap(notional=notional, fixed_rate=strike,
                               payment_times=times, accruals=accruals)
        except ValueError as exc:
            raise ScenarioValidationError("payment_times", str(exc)) from None
    raise ScenarioParseError(f"unknown product {kind!r}")


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc), line=getattr(exc, "lineno", None)) from None

    for section in _SECTION_KEYS:
        if not cp.has_section(section):
            raise ScenarioParseError(f"missing section [{section}]")
    for section in cp.sections():
        allowed = _SECTION_KEYS.get(section)
        if allowed is None:
            raise ScenarioParseError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in allowed:
                raise ScenarioParseError(f"unknown key {key!r} in section [{section}]")

    tick_years = _get_float(cp, "market", "tick_years")
    try:
        grid = tuple(int(x) for x in _get(cp, "contract", "settlement_times").split(","))
    except ValueError:
        raise ScenarioValidationError("settlement_times", "must be comma-separated ticks") from None
    if grid[-1] > MAX_FINAL_TICK:
        raise ScenarioValidationError(
            "settlement_times", f"final tick must be <= {MAX_FINAL_TICK}, got {grid[-1]}")

    product = _parse_product(cp, tick_years, grid)
    pricer_version = _get(cp, "contract", "pricer")
    try:
        get_pricer(pricer_version)
    except UnknownPricer as exc:
        raise ScenarioValidationError("pricer", str(exc)) from None
    try:
        spec = ContractSpec(
            contract_id=_get_id(cp, "contract_id"),
            party_a=_get_id(cp, "party_a"),
            party_b=_get_id(cp, "party_b"),
            product=product,
            settlement_times=grid,
            margin_a=_get_int(cp, "contract", "margin_a", minimum=0),
            margin_b=_get_int(cp, "contract", "margin_b", minimum=0),
            fee_a=_get_int(cp, "contract", "fee_a", minimum=0),
            fee_b=_get_int(cp, "contract", "fee_b", minimum=0),
            prefund_window=_get_int(cp, "contract", "prefund_window", minimum=1),
            pricer_version=pricer_version,
            tick_years=tick_years,
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioValidationError("contract", str(exc)) from None

    if cp.has_option("market", "path_file"):
        model = None
        path_file = _get(cp, "market", "path_file")
        for key in ("initial_spot", "volatility", "drift", "initial_rate"):
            if cp.has_option("market", key):
                raise ScenarioParseError(f"[market] cannot mix path_file with {key!r}")
    else:
        path_file = None
        try:
            model = MarketModel(
                initial_spot=_get_float(cp, "market", "initial_spot"),
                initial_rate=_get_float(cp, "market", "initial_rate"),
                volatility=_get_float(cp, "market", "volatility"),
                drift=_get_float(cp, "market", "drift"),
                tick_years=tick_years,
            )
        except ValueError as exc:
            raise ScenarioValidationError("market", str(exc)) from None

    mode_raw = _get(cp, "run", "mode")
    try:
        mode = Mode(mode_raw)
    except ValueError:
        raise ScenarioValidationError("mode", f"must be active|passive|driver, got {mode_raw!r}") \
            from None

    return Scenario(
        name=name,
        contract=spec,
        funding_a=_get_int(cp, "agents", "funding_a", minimum=0),
        funding_b=_get_int(cp, "agents", "funding_b", minimum=0),
        policy_a=_parse_policy(_get(cp, "agents", "policy_a"), "policy_a"),
        policy_b=_parse_policy(_get(cp, "agents", "policy_b"), "policy_b"),
        market=model,
        path_file=path_file,
        seed=_get_int(cp, "run", "seed", minimum=0),
        mode=mode,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    scenario = parse_scenario(_read_text(path), name=path.stem)
    if scenario.path_file is not None:
        resolved = Path(scenario.path_file)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        scenario = replace(scenario, path_file=str(resolved))
    return scenario


# -- reports --


@dataclass
class CycleRow:
    """One report row: a cycle's settlement, derived and proved against its journaled Settlement."""

    cycle: int
    period_start: int
    settle_tick: int
    value_end: float | None
    f_value: float
    amount: int
    payer: str
    receiver: str
    result: str


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    seed: int
    mode: str
    termination_cause: str | None
    terminated_at: int | None
    cycles: list[CycleRow]
    initial_wealth: dict[str, int]
    final_free: dict[str, int]
    final_wealth: dict[str, int]
    journal_hash: str
    checks: dict[str, bool]


@dataclass
class RunArtifacts:
    """Everything a finished run leaves behind, for inspection and export."""

    report: RunReport
    engine: Engine
    journal: Journal
    ledger: Ledger


def _party_wealth(ledger: Ledger, contract_id: str, party: AccountId) -> int:
    return (ledger.balance_of(party)
            + ledger.segregated_balance(contract_id, party, Bucket.MARGIN)
            + ledger.segregated_balance(contract_id, party, Bucket.FEE))


_RESULTS = {"settled": "SETTLED", "matured": "MATURED", "partial": "FAILED"}
_ENDS = {Phase.PRE_CHECK: "PRECONDITION_FAILED", Phase.ERROR: "ERROR"}


def _settlement_rows(journal: Journal, spec: ContractSpec,
                     oracle: MarginOracle) -> tuple[list[CycleRow], bool]:
    """Report rows, and whether the journaled Valuations and Settlements reconcile: cycle c's
    pair must be the bytes `deliver_valuation` and `settle` write from the amount the oracle
    cached for period c. Only a Settlement that differs is decoded, and it passes only as a
    partial one: a smaller decimal amount, outcome `partial`, all else as written. Rows stop
    at the first record that is neither; they reconcile when every record got a row and no
    cached period is left unsettled."""
    grid, cid, last = spec.settlement_times, spec.contract_id, spec.cycles - 1
    valuations, settlements = journal.payloads_of(EventKind.VALUATION, EventKind.SETTLEMENT)
    rows: list[CycleRow] = []
    for c, valued, settled in zip(range(spec.cycles), valuations, settlements):
        start, end = grid[c], grid[c + 1]
        if (cached := oracle.cached(start, end)) is None:
            break
        value, f = cached.value, repr(cached.value)
        payer, receiver = spec.payer_receiver(value)
        due = amount = abs(round_to_minor_units(value))
        outcome = "matured" if c == last else "settled"
        if valued != VALUATION.pack(end, SYSTEM_ACTOR, cid, end, start, spec.pricer_version, f):
            break
        if settled != SETTLEMENT.pack(end, SYSTEM_ACTOR, due, cid, c, outcome, payer, receiver, f):
            paid = row[2][0] if (row := next(SETTLEMENT.read([settled]))) else ""
            if not (paid.isdecimal() and len(paid) <= len(str(due)) and int(paid) < due):
                break  # no more digits than `due`: `int` never meets a long string
            amount, outcome = int(paid), "partial"
            if settled != SETTLEMENT.pack(end, SYSTEM_ACTOR, amount, cid, c, outcome, payer,
                                          receiver, f):
                break
        rows.append(CycleRow(c, start, end, cached.value_end, value, amount, payer, receiver,
                             _RESULTS[outcome]))
    n = len(rows)
    return rows, n == len(valuations) == len(settlements) and (
        n == spec.cycles or oracle.cached(grid[n], grid[n + 1]) is None)


def run_simulation(scenario: Scenario) -> RunArtifacts:
    """Execute one scenario end to end and assemble its report."""
    clock = Clock()
    journal = Journal()
    ledger = Ledger(journal, clock)
    template = scenario.contract
    party_a = ledger.open_account(template.party_a)
    party_b = ledger.open_account(template.party_b)
    oracle_account = ledger.open_account(ORACLE_LABEL)
    ledger.mint(ledger.issuer, party_a, scenario.funding_a)
    ledger.mint(ledger.issuer, party_b, scenario.funding_b)
    spec = replace(template, party_a=party_a, party_b=party_b)

    if scenario.path_file is not None:
        path = load_path_csv(scenario.path_file)
    else:
        path = generate_path(scenario.market, scenario.seed, ticks=spec.settlement_times[-1] + 1)
    oracle = MarginOracle(path, spec.product, spec.pricer_version, spec.tick_years)
    contract = ContractInstance(spec, ledger)
    agents = {party_a: make_policy(scenario.policy_a),
              party_b: make_policy(scenario.policy_b)}
    engine = Engine(contract, oracle, agents=agents, oracle_account=oracle_account)

    initial_wealth = {p: _party_wealth(ledger, spec.contract_id, p) for p in spec.parties}
    initial_supply = ledger.total_supply()

    requester = {Mode.ACTIVE: oracle_account, Mode.PASSIVE: party_b, Mode.DRIVER: party_a}
    tick, kind, timeline = operator.itemgetter(0), operator.itemgetter(1), engine.timeline
    script = list(map(tuple.__new__, repeat(ScriptStep), zip(
        map(tick, timeline), map(kind, timeline), repeat(requester[scenario.mode]))))
    if scenario.mode is Mode.DRIVER:
        script = parse_script(format_script(script))
    engine.run(script)
    del script  # a row per timeline event: not held through the report

    state = contract.state()  # still PRE_CHECK if initialization was refused
    cause = state.cause.value if state.cause else _ENDS.get(state.phase)

    final_wealth = {p: _party_wealth(ledger, spec.contract_id, p) for p in spec.parties}
    cycles, reconciled = _settlement_rows(journal, spec, oracle)
    checks = {
        "conservation": (ledger.check_conservation()
                         and ledger.total_supply() == initial_supply
                         and sum(final_wealth.values()) == sum(initial_wealth.values())),
        "journal_verified": journal.verify(),
        "settlements_reconciled": reconciled,
    }
    report = RunReport(
        scenario_name=scenario.name,
        seed=scenario.seed,
        mode=scenario.mode.value,
        termination_cause=cause,
        terminated_at=state.at,
        cycles=cycles,
        initial_wealth=initial_wealth,
        final_free={p: ledger.balance_of(p) for p in spec.parties},
        final_wealth=final_wealth,
        journal_hash=journal.final_hash().hex(),
        checks=checks,
    )
    return RunArtifacts(report=report, engine=engine, journal=journal, ledger=ledger)


def calibrate_buffer(scenario: Scenario, q: float, trials: int) -> int:
    """Size the margin buffer as the q-quantile of simulated one-period
    settlement magnitudes, floored at one minor unit. The samples reach
    `margin_buffer` as the float64 column, not as `one_period_samples`' list."""
    return max(1, margin_buffer(_sample_column(scenario, trials, CALIBRATION_STREAM), q))


def one_period_samples(scenario: Scenario, trials: int,
                       stream: int = CALIBRATION_STREAM) -> list[float]:
    """Independent settlement amounts for the first period under the scenario's market
    model, as a list of floats, from one `settlement_amount` call whose end snapshot,
    built unchecked (the extreme trials bound every spot), holds all trials' spots as one
    float64 array; a pricer that does not price it element by element is refused. A swap
    is refused before any price or draw: the model holds its rate flat."""
    return _sample_column(scenario, trials, stream).tolist()


def _sample_column(scenario: Scenario, trials: int, stream: int) -> np.ndarray:
    """`one_period_samples` as the float64 column it converts to a list."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if scenario.market is None:
        raise ScenarioValidationError("path_file", "buffer calibration needs a market model")
    model, spec = scenario.market, scenario.contract
    start, end = spec.settlement_times[0], spec.settlement_times[1]
    gap = end - start
    if trials * gap > MAX_CALIBRATION_VARIATES:
        raise ScenarioValidationError(
            "trials", f"trials x first-period ticks must be <= {MAX_CALIBRATION_VARIATES}, "
                      f"got {trials} x {gap}")
    spot, rate, product = model.initial_spot, model.initial_rate, spec.product
    if isinstance(product, VanillaSwap):
        raise ScenarioValidationError("product", "buffer calibration holds the rate flat, "
                                      "so it cannot size a vanilla_swap's buffer")
    pricer = get_pricer(spec.pricer_version)
    snap_old = MarketSnapshot(start, spot, rate)
    import numpy as np
    shocks = normal_variates(scenario.seed, stream, trials * gap).reshape(trials, gap)
    drift_term, vol_term = _log_move_terms(model)
    # column by column, so each trial's shocks add up left to right (np.sum's pairwise
    # order would round differently); an inf or NaN fails the spot check below
    log_moves = np.zeros(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(gap):
            log_moves += drift_term + vol_term * shocks[:, j]
    # the spot rises with the log move, so the two extreme trials bound all
    try:
        lowest = spot * math.exp(log_moves.min())
        highest = spot * math.exp(log_moves.max())
    except OverflowError as exc:
        raise _out_of_range("spot", exc) from None
    if not 0.0 < lowest <= highest < math.inf:
        raise _out_of_range("spot", f"spots {lowest!r} to {highest!r}")
    # the log moves become floats 4096 at a time, not one list
    moves = chain.from_iterable(log_moves[i:i + 4096].tolist() for i in range(0, trials, 4096))
    spots = np.fromiter(map(math.exp, moves), np.float64, trials)  # np.exp may be one ulp off
    spots *= spot  # one IEEE product, so each spot is bit for bit spot * math.exp(move)
    try:  # one end snapshot holds every trial's spot; an inf or NaN sample fails below
        with np.errstate(over="ignore", invalid="ignore"):
            samples = settlement_amount(product, start, end, snap_old, MarketSnapshot._make(
                (end, spots, rate)), spec.tick_years, pricer).value
    except (OverflowError, ZeroDivisionError) as exc:
        raise _out_of_range("settlement value", exc) from None
    except TypeError:  # e.g. math.log of the spot column
        samples = None
    if not isinstance(samples, np.ndarray) or samples.shape != (trials,):
        raise ScenarioValidationError("pricer", f"{spec.pricer_version!r} does not price "
                                                "a column of spots element by element")
    # reported here as an input error; margin_buffer would raise a bare ValueError
    if not np.isfinite(samples).all():
        raise _out_of_range("settlement value", "not finite")
    return samples


def render_report_csv(report: RunReport) -> str:
    out = io.StringIO()
    out.write("cycle,period_start,settle_tick,value_end,f_value,transfer_minor,"
              "payer,receiver,result\n")
    for row in report.cycles:
        value_end = "" if row.value_end is None else repr(row.value_end)
        out.write(f"{row.cycle},{row.period_start},{row.settle_tick},{value_end},"
                  f"{row.f_value!r},{row.amount},{row.payer},{row.receiver},{row.result}\n")
    return out.getvalue()


def render_report_text(report: RunReport) -> str:
    out = io.StringIO()
    out.write(f"scenario: {report.scenario_name}\n")
    out.write(f"seed: {report.seed}\n")
    out.write(f"mode: {report.mode}\n")
    out.write(f"termination_cause: {report.termination_cause or 'NONE'}\n")
    out.write(f"terminated_at: {'' if report.terminated_at is None else report.terminated_at}\n")
    out.write(f"journal_hash: {report.journal_hash}\n")
    for label, balances in (("initial_wealth", report.initial_wealth),
                            ("final_free", report.final_free),
                            ("final_wealth", report.final_wealth)):
        parts = " ".join(f"{k}={v}" for k, v in sorted(balances.items()))
        out.write(f"{label}: {parts}\n")
    checks = " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(report.checks.items()))
    out.write(f"checks: {checks}\n")
    out.write(f"cycles: {len(report.cycles)}\n")
    for row in report.cycles:
        out.write(f"  cycle={row.cycle} settle_tick={row.settle_tick} f={row.f_value!r} "
                  f"transfer={row.amount} payer={row.payer or '-'} "
                  f"receiver={row.receiver or '-'} result={row.result}\n")
    return out.getvalue()


_RENDERERS = {"csv": render_report_csv, "text": render_report_text}


def write_report(report: RunReport, path: str | Path, fmt: str = "text") -> None:
    """Render deterministically and write atomically (see `write_atomic`)."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    write_atomic(path, _RENDERERS[fmt](report).encode())
