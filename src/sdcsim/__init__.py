"""Deterministic smart derivative contract engine and simulation harness."""

from .contract import ContractInstance, ContractSpec, ContractState, Phase, TerminationCause
from .errors import SdcError
from .journal import Clock, EventKind, EventRecord, Journal, SYSTEM_ACTOR
from .ledger import AccountId, Bucket, Ledger
from .scheduler import (
    ON_ROWS,
    Engine,
    LifecycleEvent,
    RequestOutcome,
    ScriptStep,
    format_script,
    parse_script,
    timeline_script,
)
from .simulator import (
    MarketModel,
    Mode,
    RunReport,
    Scenario,
    calibrate_buffer,
    generate_path,
    load_path_csv,
    load_scenario,
    one_period_samples,
    parse_scenario,
    run_simulation,
    write_path_csv,
    write_report,
)
from .valuation import (
    Forward,
    MarginOracle,
    MarketPath,
    MarketSnapshot,
    SettlementAmount,
    VanillaSwap,
    margin_buffer,
    price,
    register_pricer,
    round_to_minor_units,
    settlement_amount,
)

__all__ = [name for name in dir() if not name.startswith("_")]
