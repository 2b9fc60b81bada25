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
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .contract import ContractInstance, ContractSpec, Phase
from .errors import ScenarioParseError, ScenarioValidationError, UnknownPricer
from .journal import Clock, EventKind, Journal, write_atomic
from .ledger import AccountId, Bucket, Ledger
from .scheduler import CycleRecord, Engine, Mode
from .valuation import (
    Forward,
    MarginOracle,
    MarketSnapshot,
    MarketStore,
    Product,
    VanillaSwap,
    get_pricer,
    margin_buffer,
    settlement_amount,
)

ORACLE_LABEL = "oracle"

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
        if self.initial_spot <= 0:
            raise ValueError("initial_spot must be positive")
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")
        if self.tick_years <= 0:
            raise ValueError("tick_years must be positive")


@dataclass(frozen=True)
class PolicySpec:
    kind: str               # compliant | defaulting | willful
    param: int | None = None


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


class CompliantAgent:
    """Tops the margin bucket up to the required buffer whenever allowed."""

    def on_tick(self, engine: Engine, party: AccountId) -> None:
        contract = engine.contract
        if contract.phase is not Phase.ACCOUNTS_OPEN:
            return
        shortfall = contract.spec.margin_required(party) - contract.margin_bucket(party)
        if shortfall > 0:
            deposit = min(shortfall, engine.ledger.balance_of(party))
            if deposit > 0:
                contract.deposit_margin(party, deposit)


class DefaultingAgent(CompliantAgent):
    """Stops funding from a given cycle on, as after a credit event."""

    def __init__(self, at_cycle: int):
        self.at_cycle = at_cycle

    def on_tick(self, engine: Engine, party: AccountId) -> None:
        if engine.contract.cycle >= self.at_cycle:
            return
        super().on_tick(engine, party)


class WillfulAgent(CompliantAgent):
    """Empties the margin wallet once its projected exposure turns adverse.

    The projection uses the snapshot visible during the open window
    against the period-start snapshot; the settlement-time snapshot is
    never available before accounts close.
    """

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.triggered = False

    def on_tick(self, engine: Engine, party: AccountId) -> None:
        if self.triggered:
            return
        contract = engine.contract
        if contract.phase is not Phase.ACCOUNTS_OPEN:
            return
        exposure = self._projected_exposure(engine, party)
        if exposure is not None and exposure > self.threshold:
            held = contract.margin_bucket(party)
            if held > 0:
                contract.withdraw_margin(party, held)
            self.triggered = True
            return
        super().on_tick(engine, party)

    def _projected_exposure(self, engine: Engine, party: AccountId) -> float | None:
        store = getattr(engine.oracle, "store", None)
        spec = engine.spec
        cycle = engine.contract.cycle
        if store is None or cycle >= spec.cycles:
            return None
        start = spec.settlement_times[cycle]
        now = engine.clock.now()
        if not (store.has(start) and store.has(now)):
            return None
        pricer = get_pricer(spec.pricer_version)
        t = spec.settlement_times[cycle + 1] * spec.tick_years
        projected = pricer(spec.product, t, store.get(now)) \
            - pricer(spec.product, t, store.get(start))
        pays = projected > 0 if party == spec.party_b else projected < 0
        return abs(projected) if pays else 0.0


def make_policy(spec: PolicySpec):
    if spec.kind == "compliant":
        return CompliantAgent()
    if spec.kind == "defaulting":
        return DefaultingAgent(spec.param)
    if spec.kind == "willful":
        return WillfulAgent(spec.param)
    raise ScenarioParseError(f"unknown agent policy {spec.kind!r}")


# -- seeded market paths --


def normal_variates(seed: int, stream: int, count: int) -> list[float]:
    """Standard normals from a Philox counter keyed by (seed, stream),
    mapped through the inverse normal CDF."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))
    raw = gen.integers(0, 1 << 53, size=count, dtype=np.uint64)
    inv_cdf = NormalDist().inv_cdf
    return [inv_cdf((int(r) + 0.5) / (1 << 53)) for r in raw]


def generate_path(model: MarketModel, seed: int, ticks: int,
                  stream: int = PATH_STREAM) -> list[MarketSnapshot]:
    """Geometric Brownian spot path of `ticks` snapshots starting at tick 0;
    the zero rate stays at its initial value."""
    if ticks < 1:
        raise ValueError("need at least one tick")
    dt = model.tick_years
    drift_term = (model.drift - 0.5 * model.volatility ** 2) * dt
    vol_term = model.volatility * math.sqrt(dt)
    shocks = normal_variates(seed, stream, ticks - 1)
    spot = model.initial_spot
    path = [MarketSnapshot(as_of=0, spot=spot, zero_rate=model.initial_rate)]
    for k, z in enumerate(shocks):
        spot *= math.exp(drift_term + vol_term * z)
        path.append(MarketSnapshot(as_of=k + 1, spot=spot, zero_rate=model.initial_rate))
    return path


def load_path_csv(path: str | Path) -> list[MarketSnapshot]:
    """Market path file: header `time,spot,zero_rate`, one row per tick."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "time,spot,zero_rate":
        raise ScenarioParseError("path file must start with header 'time,spot,zero_rate'", line=1)
    snapshots = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise ScenarioParseError("expected 'time,spot,zero_rate'", line=lineno)
        try:
            snapshot = MarketSnapshot(as_of=int(parts[0]), spot=float(parts[1]),
                                      zero_rate=float(parts[2]))
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line=lineno) from None
        if snapshots and snapshot.as_of <= snapshots[-1].as_of:
            raise ScenarioParseError("ticks must be strictly increasing", line=lineno)
        snapshots.append(snapshot)
    return snapshots


def write_path_csv(snapshots: list[MarketSnapshot], path: str | Path) -> None:
    out = io.StringIO()
    out.write("time,spot,zero_rate\n")
    for snap in snapshots:
        out.write(f"{snap.as_of},{snap.spot!r},{snap.zero_rate!r}\n")
    Path(path).write_text(out.getvalue())


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
    if kind == "compliant":
        if arg:
            raise ScenarioParseError(f"{field}: policy 'compliant' takes no argument")
        return PolicySpec("compliant")
    if kind in ("defaulting", "willful"):
        try:
            return PolicySpec(kind, int(arg))
        except ValueError:
            raise ScenarioParseError(
                f"{field}: policy {kind!r} needs an integer argument, got {arg!r}") from None
    raise ScenarioParseError(f"{field}: unknown agent policy {kind!r}")


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

    product = _parse_product(cp, tick_years, grid)
    pricer_version = _get(cp, "contract", "pricer")
    try:
        get_pricer(pricer_version)
    except UnknownPricer as exc:
        raise ScenarioValidationError("pricer", str(exc)) from None
    try:
        spec = ContractSpec(
            contract_id=_get(cp, "contract", "contract_id"),
            party_a=_get(cp, "contract", "party_a"),
            party_b=_get(cp, "contract", "party_b"),
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
    scenario = parse_scenario(path.read_text(), name=path.stem)
    if scenario.path_file is not None:
        resolved = Path(scenario.path_file)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        scenario = replace(scenario, path_file=str(resolved))
    return scenario


# -- reports --


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    seed: int
    mode: str
    termination_cause: str | None
    terminated_at: int | None
    cycles: list[CycleRecord]
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


def _reconcile_settlements(journal: Journal, contract_id: str,
                           cycles: list[CycleRecord]) -> bool:
    """Every report row must match exactly one journaled Settlement and
    vice versa (cycle, tick, moved amount, payer, receiver)."""
    from_journal = sorted(
        (int(r.detail("cycle")), r.timestamp, int(r.detail("amount")),
         r.detail("payer"), r.detail("receiver"))
        for r in journal.records(EventKind.SETTLEMENT)
        if r.detail("contract") == contract_id)
    from_report = sorted(
        (row.cycle, row.settle_tick, row.amount, row.payer, row.receiver)
        for row in cycles)
    return from_journal == from_report


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

    store = MarketStore()
    if scenario.path_file is not None:
        for snap in load_path_csv(scenario.path_file):
            store.add(snap)
    else:
        for snap in generate_path(scenario.market, scenario.seed,
                                  ticks=spec.settlement_times[-1] + 1):
            store.add(snap)

    oracle = MarginOracle(store, journal, clock)
    contract = ContractInstance(spec, ledger, journal, clock)
    agents = {party_a: make_policy(scenario.policy_a),
              party_b: make_policy(scenario.policy_b)}
    engine = Engine(contract, oracle, clock, journal, agents=agents,
                    oracle_account=oracle_account)

    initial_wealth = {p: _party_wealth(ledger, spec.contract_id, p) for p in spec.parties}
    initial_supply = ledger.total_supply()

    engine.run(scenario.mode)

    state = contract.state()
    if engine.init_error is not None:
        cause, at = "PRECONDITION_FAILED", None
    elif state.phase is Phase.TERMINATED:
        cause, at = state.cause.value, state.at
    elif state.phase is Phase.ERROR:
        cause, at = "ERROR", None
    else:
        cause, at = None, None

    final_wealth = {p: _party_wealth(ledger, spec.contract_id, p) for p in spec.parties}
    checks = {
        "conservation": (ledger.check_conservation()
                         and ledger.total_supply() == initial_supply
                         and sum(final_wealth.values()) == sum(initial_wealth.values())),
        "journal_verified": journal.verify(),
        "settlements_reconciled": _reconcile_settlements(journal, spec.contract_id,
                                                         engine.cycle_log),
    }
    report = RunReport(
        scenario_name=scenario.name,
        seed=scenario.seed,
        mode=scenario.mode.value,
        termination_cause=cause,
        terminated_at=at,
        cycles=list(engine.cycle_log),
        initial_wealth=initial_wealth,
        final_free={p: ledger.balance_of(p) for p in spec.parties},
        final_wealth=final_wealth,
        journal_hash=journal.final_hash().hex(),
        checks=checks,
    )
    return RunArtifacts(report=report, engine=engine, journal=journal, ledger=ledger)


def calibrate_buffer(scenario: Scenario, q: float, trials: int,
                     stream: int = CALIBRATION_STREAM) -> int:
    """Size the margin buffer as the q-quantile of simulated one-period
    settlement magnitudes, floored at one minor unit."""
    if trials < 1:
        raise ValueError("trials must be positive")
    samples = one_period_samples(scenario, trials, stream=stream)
    return max(1, margin_buffer(samples, q))


def one_period_samples(scenario: Scenario, trials: int,
                       stream: int = CALIBRATION_STREAM) -> list[float]:
    """Independent settlement amounts for the first period under the
    scenario's market model."""
    if scenario.market is None:
        raise ScenarioValidationError("path_file", "buffer calibration needs a market model")
    model = scenario.market
    spec = scenario.contract
    start, end = spec.settlement_times[0], spec.settlement_times[1]
    gap = end - start
    drift_term = (model.drift - 0.5 * model.volatility ** 2) * model.tick_years
    vol_term = model.volatility * math.sqrt(model.tick_years)
    shocks = normal_variates(scenario.seed, stream, trials * gap)
    pricer = get_pricer(spec.pricer_version)
    snap_old = MarketSnapshot(as_of=start, spot=model.initial_spot,
                              zero_rate=model.initial_rate)
    samples = []
    for k in range(trials):
        log_move = sum(drift_term + vol_term * z for z in shocks[k * gap:(k + 1) * gap])
        snap_new = MarketSnapshot(as_of=end, spot=model.initial_spot * math.exp(log_move),
                                  zero_rate=model.initial_rate)
        f = settlement_amount(spec.product, start, end, snap_old, snap_new,
                              spec.tick_years, pricer)
        samples.append(f.value)
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


def write_report(report: RunReport, path: str | Path, fmt: str = "text") -> None:
    """Render deterministically and write atomically (see `write_atomic`)."""
    if fmt == "csv":
        payload = render_report_csv(report)
    elif fmt == "text":
        payload = render_report_text(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    write_atomic(path, payload.encode())
