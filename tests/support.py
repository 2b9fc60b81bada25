"""Independent oracles the tests check the engine against.

Everything here is derived directly from definitions (explicit discount
curves, telescoped cash-flow sums, raw hashlib chaining, a field-by-field
record codec, exact-fraction quantile ranks) and deliberately shares no
code with the package.
"""

from __future__ import annotations

import hashlib
import math
import struct
from fractions import Fraction
from statistics import NormalDist
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from sdcsim import EventKind, Journal, MarketPath, MarketSnapshot, Phase


def forward_value(notional: float, strike: float, spot: float, rate: float,
                  t: float, maturity: float) -> float:
    return notional * (spot - strike) * math.exp(-rate * (maturity - t))


def swap_value(notional: float, fixed_rate: float, payment_times, accruals,
               rate: float, t: float) -> float:
    """Payer-fixed swap value via the telescoped float leg: remaining float
    payments collapse to 1 - df(t, T_last); the fixed leg is summed
    cash flow by cash flow."""
    remaining = [(T, tau) for T, tau in zip(payment_times, accruals) if T > t]
    if not remaining:
        return 0.0
    df = lambda T: math.exp(-rate * (T - t))
    float_leg = 1.0 - df(remaining[-1][0])
    fixed_leg = fixed_rate * sum(tau * df(T) for T, tau in remaining)
    return notional * (float_leg - fixed_leg)


def product_value(product, t: float, snapshot) -> float:
    """Dispatch on the product shape without importing pricer code."""
    if hasattr(product, "strike"):  # forward
        return forward_value(product.notional, product.strike, snapshot.spot,
                             snapshot.zero_rate, t, product.maturity)
    return swap_value(product.notional, product.fixed_rate, product.payment_times,
                      product.accruals, snapshot.zero_rate, t)


def reference_swap_price(product, t: float, snapshot) -> float:
    """Payer-fixed swap value with two discount factors per payment, each
    computed as exp(-r (T - t)), the first remaining period accruing from t.
    The package's swap loop must equal this bit for bit."""
    df = lambda T: math.exp(-snapshot.zero_rate * (T - t))
    total = 0.0
    period_start = t
    for T_j, tau in zip(product.payment_times, product.accruals):
        if T_j <= t:
            continue
        df_start = df(period_start)
        df_end = df(T_j)
        fwd = (df_start / df_end - 1.0) / tau
        total += tau * (fwd - product.fixed_rate) * df_end
        period_start = T_j
    return product.notional * total


def reference_normal_variates(seed: int, stream: int, count: int) -> list[float]:
    """Standard normals drawn in one call from a Philox counter keyed by
    (seed, stream), each mapped through `NormalDist().inv_cdf` in Python.
    The package's chunked array version must equal this bit for bit."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))
    raw = gen.integers(0, 1 << 53, size=count, dtype=np.uint64)
    inv_cdf = NormalDist().inv_cdf
    return [inv_cdf((int(r) + 0.5) / (1 << 53)) for r in raw]


def reference_path_spots(model, seed: int, stream: int, ticks: int) -> list[float]:
    """Geometric Brownian spots tick by tick: the spot multiplied in place by
    exp(drift term + volatility term * z) for each shock in turn. The
    package's path must equal this bit for bit."""
    drift_term = (model.drift - 0.5 * model.volatility ** 2) * model.tick_years
    vol_term = model.volatility * math.sqrt(model.tick_years)
    spot = model.initial_spot
    spots = [spot]
    for z in reference_normal_variates(seed, stream, ticks - 1):
        spot *= math.exp(drift_term + vol_term * z)
        spots.append(spot)
    return spots


def reference_one_period_samples(scenario, trials: int, stream: int) -> list[float]:
    """First-period settlement amounts trial by trial: the log move added up
    left to right over the trial's shocks (as `sum` did before Python 3.12
    made it compensated), both value terms priced per trial."""
    model, spec = scenario.market, scenario.contract
    start, end = spec.settlement_times[0], spec.settlement_times[1]
    gap = end - start
    drift_term = (model.drift - 0.5 * model.volatility ** 2) * model.tick_years
    vol_term = model.volatility * math.sqrt(model.tick_years)
    shocks = reference_normal_variates(scenario.seed, stream, trials * gap)
    t = end * spec.tick_years
    old = SimpleNamespace(spot=model.initial_spot, zero_rate=model.initial_rate)
    samples = []
    for k in range(trials):
        log_move = 0.0
        for z in shocks[k * gap:(k + 1) * gap]:
            log_move += drift_term + vol_term * z
        new = SimpleNamespace(spot=model.initial_spot * math.exp(log_move),
                              zero_rate=model.initial_rate)
        samples.append(product_value(spec.product, t, new) - product_value(spec.product, t, old))
    return samples


def reference_path_rows(text: str):
    """A market path file read row by row: its (tick, spot, rate) rows, or the
    (reason, line) of the first row that fails a check, in the checks' order."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "time,spot,zero_rate":
        return "path file must start with header 'time,spot,zero_rate'", 1
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 3:
            return "expected 'time,spot,zero_rate'", lineno
        try:
            tick, spot, rate = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError as exc:
            return str(exc), lineno
        if spot <= 0:
            return f"spot must be positive, got {spot}", lineno
        for name, value in (("spot", spot), ("zero_rate", rate)):
            if not math.isfinite(value):
                return f"{name} must be finite, got {value!r}", lineno
        if rows and tick <= rows[-1][0]:
            return "ticks must be strictly increasing", lineno
        rows.append((tick, spot, rate))
    return rows


def par_rate(payment_times, accruals, rate: float, t: float = 0.0) -> float:
    """Fixed rate that values the swap to zero on a flat curve."""
    df = lambda T: math.exp(-rate * (T - t))
    annuity = sum(tau * df(T) for T, tau in zip(payment_times, accruals) if T > t)
    last = max(T for T in payment_times if T > t)
    return (1.0 - df(last)) / annuity


def rechain(blocks) -> bool:
    """Recompute the whole hash chain from scratch with raw hashlib."""
    prev = b"\x00" * 32
    for position, block in enumerate(blocks):
        preimage = struct.pack(">Q", block.index) + block.prev_hash + block.payload
        if block.index != position or block.prev_hash != prev:
            return False
        if hashlib.sha256(preimage).digest() != block.hash:
            return False
        prev = block.hash
    return True


def write_chained(path, payloads, break_at: int | None = None) -> None:
    """Write `payloads` as a journal file whose blocks chain correctly with
    raw hashlib, however malformed a payload is; with `break_at`, that
    block's stored hash is zeroed so the chain breaks there."""
    blob, prev = b"", b"\x00" * 32
    for index, payload in enumerate(payloads):
        head = struct.pack(">Q", index) + prev
        digest = hashlib.sha256(head + payload).digest() if index != break_at else bytes(32)
        blob += head + struct.pack(">I", len(payload)) + payload + digest
        prev = digest
    path.write_bytes(blob)


class Block(NamedTuple):
    """One journal block as a row, as `journal_blocks` gives and `journal_from_blocks` takes."""

    index: int
    prev_hash: bytes
    payload: bytes
    hash: bytes


def journal_blocks(journal: Journal) -> list[Block]:
    """The blocks of `journal` as rows, read from its columns: the inverse of
    `journal_from_blocks`."""
    return [Block(struct.unpack(">Q", head[:8])[0], head[8:], payload, digest)
            for head, payload, digest in zip(journal._heads, journal._payloads, journal._hashes)]


def journal_from_blocks(blocks) -> Journal:
    """A `Journal` holding `blocks` as given, however they chain: its columns
    hold each block's hash preimage head (the 8-byte index, then prev_hash),
    payload and stored hash."""
    journal = Journal()
    journal._heads = [struct.pack(">Q", block.index) + block.prev_hash for block in blocks]
    journal._payloads = [block.payload for block in blocks]
    journal._hashes = [block.hash for block in blocks]
    return journal


def flip_bit(journal: Journal, block_i: int, field: str, bit: int) -> Journal:
    """A copy of `journal` with one bit flipped in block `block_i`'s `field`
    ("payload", "prev_hash" or "index"): bit `bit`, wrapped to the field's width."""
    blocks = journal_blocks(journal)
    block = blocks[block_i]
    if field == "index":
        flipped = block.index ^ (1 << (bit % 63))
    else:
        body = bytearray(getattr(block, field))
        body[(bit // 8) % len(body)] ^= 1 << (bit % 8)
        flipped = bytes(body)
    blocks[block_i] = block._replace(**{field: flipped})
    return journal_from_blocks(blocks)


def path_rows(path: MarketPath) -> list[MarketSnapshot]:
    """A market path's rows, one per tick, each as `MarketPath.at` reads it."""
    return list(map(path.at, path.ticks))


def path_of(rows) -> MarketPath:
    """A `MarketPath` whose columns hold `rows`, each (tick, spot, zero rate)."""
    return MarketPath(*zip(*rows))


def _pack_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _unpack_str(buf: bytes, offset: int) -> tuple[str, int]:
    if offset + 4 > len(buf):
        raise ValueError("truncated string length")
    (n,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    if offset + n > len(buf):
        raise ValueError("truncated string data")
    return buf[offset:offset + n].decode("utf-8"), offset + n


def reference_encode(record) -> bytes:
    """Record payload built field by field: timestamp, kind, actor, detail
    count, then each key and value, every string length-prefixed."""
    parts = [struct.pack(">Q", record.timestamp), _pack_str(record.kind.value),
             _pack_str(record.actor), struct.pack(">I", len(record.details))]
    for k, v in record.details:
        parts.append(_pack_str(k))
        parts.append(_pack_str(v))
    return b"".join(parts)


def reference_decode(payload: bytes) -> tuple:
    """Inverse of `reference_encode`, as plain values:
    (timestamp, kind string, actor, ((key, value), ...))."""
    if len(payload) < 8:
        raise ValueError("truncated timestamp")
    (ts,) = struct.unpack_from(">Q", payload, 0)
    kind, off = _unpack_str(payload, 8)
    actor, off = _unpack_str(payload, off)
    if off + 4 > len(payload):
        raise ValueError("truncated detail count")
    (n,) = struct.unpack_from(">I", payload, off)
    off += 4
    details = []
    for _ in range(n):
        k, off = _unpack_str(payload, off)
        v, off = _unpack_str(payload, off)
        details.append((k, v))
    if off != len(payload):
        raise ValueError("trailing bytes in record payload")
    return ts, kind, actor, tuple(details)


def sort_quantile(samples, q) -> int:
    """Nearest-rank quantile of magnitudes with exact-fraction rank math."""
    magnitudes = sorted(abs(x) for x in samples)
    rank = -((-Fraction(str(q)) * len(magnitudes)) // 1)  # ceil via floor-division
    return math.ceil(magnitudes[int(rank) - 1])


def open_intervals_respected(journal, contract_id: str) -> bool:
    """Replay the journal and confirm every party-initiated margin move
    happened while the reconstructed state was AccountsOpen."""
    phase = "PreCheck"
    for record in journal.records():
        if record.kind is EventKind.STATE_TRANSITION:
            if dict(record.details).get("contract") == contract_id \
                    and dict(record.details).get("cause") != "rejected":
                phase = record.detail("dst").split("[")[0]
        elif record.kind in (EventKind.LOCK, EventKind.RELEASE):
            details = dict(record.details)
            if details.get("contract") != contract_id:
                continue
            if details.get("bucket") == "MARGIN" and record.actor not in ("SYSTEM",):
                if phase != Phase.ACCOUNTS_OPEN.value.split("[")[0] and phase != "AccountsOpen":
                    return False
    return True
