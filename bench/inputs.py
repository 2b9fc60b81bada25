"""Benchmark inputs: a workload seed in, scenario INI and path CSV text out.

The same (workload, seed) pair always yields the same bytes. sdcsim only
ever sees these files; the seed reaches it through the scenario's
[run] seed and, for the swap, through the generated rate path.
"""

from __future__ import annotations

import random
from pathlib import Path

DEFAULT_SEED = 1

GRID_CYCLES = 2000
SWAP_CYCLES = 500
SWAP_PAYMENT_EVERY = 4          # cycles between swap payments: 500 / 4 = 125 payments
TICKS_PER_CYCLE = 10


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _grid(cycles: int) -> str:
    return ",".join(str(TICKS_PER_CYCLE * i) for i in range(cycles + 1))


def grid_forward(seed: int, cycles: int = GRID_CYCLES) -> dict[str, str]:
    """One long forward between two compliant banks on a GBM path.

    Why: run in the active, passive and driver trigger modes, each run
    followed by a verify of its journal, the engine loop, journal
    write/read and ledger do nearly all the work and the pricer almost
    none. Rotating the modes measures a change to any one trigger path.
    """
    scenario_seed = _rng("grid_forward", seed).randrange(1 << 31)
    return {"grid_forward.ini": f"""\
[contract]
contract_id = SDC-GRID
party_a = bank1
party_b = bank2
product = forward
notional = 100.0
strike = 100.0
settlement_times = {_grid(cycles)}
margin_a = 20000
margin_b = 20000
fee_a = 500
fee_b = 500
prefund_window = 3
pricer = flat-curve-v1

[market]
tick_years = 0.0001
initial_spot = 100.0
initial_rate = 0.01
volatility = 0.2
drift = 0.0

[agents]
policy_a = compliant
policy_b = compliant
funding_a = 100000000
funding_b = 100000000

[run]
seed = {scenario_seed}
mode = active
"""}


def swap_agents(seed: int, cycles: int = SWAP_CYCLES) -> dict[str, str]:
    """A vanilla swap with 125 payments on a rate path read from a CSV file.

    Why: both parties are willful with a threshold never reached, so every
    open-window tick prices a projection and valuation dominates. Most
    ticks sit in an open window, so skipping closed-window ticks gains
    little here. It also covers the path-file input.
    """
    rng = _rng("swap_agents", seed)
    scenario_seed = rng.randrange(1 << 31)
    tick_years = 0.001
    ticks = cycles * TICKS_PER_CYCLE
    step = SWAP_PAYMENT_EVERY * TICKS_PER_CYCLE
    # Payment times are computed as the simulator computes grid times
    # (tick * tick_years), so the last one equals the maturity exactly.
    payments = [repr(tick * tick_years) for tick in range(step, ticks + 1, step)]
    accrual = repr(step * tick_years)
    rate = 0.02
    rows = ["time,spot,zero_rate"]
    for tick in range(ticks + 1):
        rows.append(f"{tick},100.0,{rate!r}")
        rate += rng.gauss(0.0, 0.0002)
    return {
        "rates.csv": "\n".join(rows) + "\n",
        "swap_agents.ini": f"""\
[contract]
contract_id = SDC-SWAP
party_a = bank1
party_b = bank2
product = vanilla_swap
notional = 1000000.0
strike = 0.02
payment_times = {",".join(payments)}
accruals = {",".join([accrual] * len(payments))}
settlement_times = {_grid(cycles)}
margin_a = 1000000
margin_b = 1000000
fee_a = 5000
fee_b = 5000
prefund_window = 8
pricer = flat-curve-v1

[market]
tick_years = {tick_years!r}
path_file = rates.csv

[agents]
policy_a = willful:1000000000000
policy_b = willful:1000000000000
funding_a = 10000000000
funding_b = 10000000000

[run]
seed = {scenario_seed}
mode = active
"""}


def calibrate(seed: int) -> dict[str, str]:
    """A forward whose margin buffer is quantile-sized from one-period trials.

    Why: calibration runs the RNG, inverse-CDF and pricer with no journal,
    ledger or engine, so a journal or engine speed-up should leave it
    unchanged.
    """
    scenario_seed = _rng("calibrate", seed).randrange(1 << 31)
    return {"calibrate.ini": f"""\
[contract]
contract_id = SDC-CAL
party_a = bank1
party_b = bank2
product = forward
notional = 100.0
strike = 100.0
settlement_times = 0,10,20
margin_a = 3000
margin_b = 3000
fee_a = 500
fee_b = 500
prefund_window = 3
pricer = flat-curve-v1

[market]
tick_years = 0.004
initial_spot = 100.0
initial_rate = 0.01
volatility = 0.2
drift = 0.0

[agents]
policy_a = compliant
policy_b = compliant
funding_a = 1000000
funding_b = 1000000

[run]
seed = {scenario_seed}
mode = active
"""}


def write(files: dict[str, str], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
