"""Append-only, hash-chained event journal.

Every ledger mutation and contract state change is serialized into a
record payload and appended as a block. Block k stores
``hash = SHA256(index(8 BE) || prev_hash(32) || payload)``, with block 0
chaining from 32 zero bytes, so any bit flipped anywhere in the history
invalidates verification of the chain.

Serialization is canonical (fixed field order, detail pairs sorted by
key), so the same records always give the same final hash, which the
run-determinism and mode-equivalence checks compare. Record payload
layout, every string a 4-byte big-endian length and that many UTF-8 bytes:

    timestamp(8 BE) || kind || actor || detail_count(4 BE) || (key || value)*

The engine writes every record through a `RecordShape` (a kind and its
sorted detail keys) and `Journal.append(payload)`. `Journal.payloads(kind)`
picks one kind's blocks by the kind string at byte 8.

On-disk block layout (repeated per block, no file header):

    index(8 BE) || prev_hash(32) || payload_len(4 BE) || payload || hash(32)

A `Journal` is three parallel columns and no row view: each block's hash
preimage head (`index || prev_hash`), its payload and its hash.
`Journal.append` stores the payload alone; `final_hash`, `verify` and
`export` first chain the payloads appended since, in one loop. `verify`
then recomputes every hash and compares heads and hashes with the stored ones.

`EventRecord.from_bytes` is the one decoder of payloads: `Journal.records`
calls it per payload and `RecordShape.read` per payload of its kind, and it
raises CorruptJournal if one does not decode (truncated, trailing bytes, bad
UTF-8, unknown kind). `Journal.load` (the `verify` command) frames the blocks
and checks the chain, then vouches for the payloads with one batched numpy walk
over their length prefixes (`_walk`), which tells a kind by its tag at byte 8
as `payloads_of` and `RecordShape.read` do; only a payload the walk cannot
vouch for goes through the decoder. It names the first bad block, counted from
0 in file order ("block 17: truncated block body", "chain verification failed
at block 17", "block 17: truncated string data"); a cut file is reported
before a chain break, and a chain break even when a payload is also malformed.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum
from hashlib import sha256
from itertools import chain, compress, count, repeat
from operator import not_
from pathlib import Path
from typing import Iterator

from .errors import CorruptJournal

ZERO_HASH = bytes(32)

SYSTEM_ACTOR = "SYSTEM"


class EventKind(str, Enum):
    TRANSFER = "Transfer"
    APPROVAL = "Approval"
    BURN = "Burn"
    LOCK = "Lock"
    RELEASE = "Release"
    STATE_TRANSITION = "StateTransition"
    VALUATION = "Valuation"
    SETTLEMENT = "Settlement"
    TERMINATION = "Termination"


class Clock:
    """Simulated integer clock from tick 0; time only moves forward."""

    def __init__(self):
        self._tick = 0

    def now(self) -> int:
        return self._tick

    def advance_to(self, tick: int) -> None:
        if tick < self._tick:
            raise ValueError(f"clock cannot move backwards: {self._tick} -> {tick}")
        self._tick = tick


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _pack_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return _U32.pack(len(data)) + data


# Length-prefixed kind strings, built once per kind. A payload's kind sits
# right after its 8-byte timestamp, so `payload.startswith(tag, 8)` tells a
# record's kind without decoding it.
_KIND_TAGS = {kind: _pack_str(kind.value) for kind in EventKind}
_KINDS_BY_NAME = {kind.value: kind for kind in EventKind}
_TAGS = tuple(_KIND_TAGS.values())


@dataclass(frozen=True)
class EventRecord:
    """One journaled event: simulated timestamp, kind, acting account, details.

    `details` is held pre-sorted by key so serialization is canonical.
    """

    timestamp: int
    kind: EventKind
    actor: str
    details: tuple[tuple[str, str], ...]

    @classmethod
    def create(cls, timestamp: int, kind: EventKind, actor: str, **details) -> "EventRecord":
        items = tuple(sorted((k, str(v)) for k, v in details.items()))
        return cls(timestamp=timestamp, kind=kind, actor=actor, details=items)

    def detail(self, key: str) -> str:
        for k, v in self.details:
            if k == key:
                return v
        raise KeyError(key)

    def to_bytes(self) -> bytes:
        parts = [_U64.pack(self.timestamp), _KIND_TAGS[self.kind], _pack_str(self.actor),
                 _U32.pack(len(self.details))]
        for k, v in self.details:
            parts += (_pack_str(k), _pack_str(v))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "EventRecord":
        if len(payload) < 8:
            raise CorruptJournal("truncated timestamp")
        strings: list[str] = []  # kind, actor, then each detail's key and value
        off, wanted = 8, 2
        try:
            while len(strings) < wanted:
                if off + 4 > len(payload):
                    raise CorruptJournal("truncated string length")
                (n,) = _U32.unpack_from(payload, off)
                off += 4 + n
                if off > len(payload):
                    raise CorruptJournal("truncated string data")
                strings.append(payload[off - n:off].decode("utf-8"))
                if len(strings) == wanted == 2:  # the actor: the detail count follows
                    if off + 4 > len(payload):
                        raise CorruptJournal("truncated detail count")
                    off, wanted = off + 4, 2 + 2 * _U32.unpack_from(payload, off)[0]
        except UnicodeDecodeError as exc:
            raise CorruptJournal(f"invalid UTF-8 in record payload: {exc.reason}") from None
        if off != len(payload):
            raise CorruptJournal("trailing bytes in record payload")
        if strings[0] not in _KINDS_BY_NAME:
            raise CorruptJournal(f"unknown event kind {strings[0]!r}")
        return cls(_U64.unpack_from(payload)[0], _KINDS_BY_NAME[strings[0]], strings[1],
                   tuple(zip(strings[2::2], strings[3::2])))


class RecordShape:
    """One record layout: an event kind and its detail keys, in sorted order.

    `pack(timestamp, actor, *values)` takes the values in key order, each
    through `str`, into one ASCII template of the pre-packed kind, count and
    keys; anything else goes through `EventRecord`'s UTF-8 codec. `read`
    gives the values back, each payload of its kind decoded by
    `EventRecord.from_bytes`.
    """

    def __init__(self, kind: EventKind, keys: str):
        self.kind, self.keys = kind, tuple(keys.split())
        # the bytes before each length prefix: kind, count and first key, keys
        first, *rest = self.keys
        seps = (_KIND_TAGS[kind], _U32.pack(len(self.keys)) + _pack_str(first),
                *map(_pack_str, rest))
        self._template = "".join(  # a length under 128 packs as three NULs and one ASCII char
            sep.decode("latin-1").replace("%", "%%") + "\0\0\0%c%s" for sep in seps)

    def pack(self, timestamp: int, actor: str, *values) -> bytes:
        args = [len(actor), actor]
        for value in values:
            value = str(value)
            args += (len(value), value)
        try:
            return _U64.pack(timestamp) + (self._template % tuple(args)).encode("ascii")
        except (UnicodeEncodeError, OverflowError):  # %c of a length >= 128 is not ASCII
            details = tuple(zip(self.keys, map(str, values)))
            return EventRecord(timestamp, self.kind, actor, details).to_bytes()

    def read(self, payloads: list[bytes]) -> Iterator[tuple[int, str, tuple[str, ...]] | None]:
        """Each payload's (timestamp, actor, values in key order), or None for
        one that does not decode or is not of this shape, read as iterated.
        A payload whose kind string at byte 8 is another kind's is not decoded."""
        tag = _KIND_TAGS[self.kind]
        for payload in payloads:
            try:
                record = payload.startswith(tag, 8) and EventRecord.from_bytes(payload)
            except CorruptJournal:
                record = None
            strings = tuple(chain.from_iterable(record.details)) if record else ()  # key, value
            yield ((record.timestamp, record.actor, strings[1::2])
                   if strings[::2] == self.keys else None)


# The record shapes. README "File formats" names each writer; the last three have no engine caller.
TRANSFER = RecordShape(EventKind.TRANSFER, "amount dst src")
LOCK = RecordShape(EventKind.LOCK, "amount bucket contract party")
RELEASE = RecordShape(EventKind.RELEASE, "amount bucket contract dst party")
TRANSITION = RecordShape(EventKind.STATE_TRANSITION, "cause contract dst src")
REJECTION = RecordShape(EventKind.STATE_TRANSITION, "cause contract dst event reason src")
VALUATION = RecordShape(EventKind.VALUATION, "contract period_end period_start pricer value")
SETTLEMENT = RecordShape(EventKind.SETTLEMENT, "amount contract cycle outcome payer receiver value")
PREFUND_TERMINATION = RecordShape(EventKind.TERMINATION, "cause contract deficient tick")
FAILED_TERMINATION = RecordShape(EventKind.TERMINATION, "cause contract covered owed payer tick")
MATURED_TERMINATION = RecordShape(EventKind.TERMINATION, "cause contract tick")
APPROVAL = RecordShape(EventKind.APPROVAL, "amount owner spender")
BURN = RecordShape(EventKind.BURN, "amount src")
TRANSFER_FROM = RecordShape(EventKind.TRANSFER, "amount dst spender src")


def _walk(payloads: list[bytes]) -> list[bool]:
    """Per payload, whether its length prefixes alone show it to decode: they
    end exactly at its end, it has a known kind's tag at byte 8 and every byte
    after the timestamp is ASCII; anything else is left to `EventRecord.from_bytes`.
    Each step reads the next prefix of every payload still being walked at once.
    """
    # on first use: `import sdcsim` loads no numpy, so a command that walks no journal skips it
    import numpy as np

    data = b"".join(payloads)
    # the big-endian u32 starting at each byte of `data`: a view, not a copy
    prefix_at = np.ndarray((max(len(data) - 3, 0),), ">u4", data, 0, (1,))
    lengths = np.fromiter(map(len, payloads), np.int64, len(payloads))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    passed = np.zeros(len(payloads), bool)
    # each payload still being walked: its position, offset, end and prefixes left to read
    # (first kind, actor and count); one is dropped once its prefixes cannot fit before its end
    live = np.flatnonzero(lengths >= 20)
    off, end, left = starts[live] + 8, ends[live], np.full(len(live), 3)
    step = 0
    while len(live):
        n = prefix_at[off].astype(np.int64)
        if step == 2:  # the detail count: two strings per detail follow
            off, left = off + 4, 2 * n
        else:
            off, left = off + 4 + n, left - 1
        done = left == 0
        passed[live[done & (off == end)]] = True
        keep = ~done & (off + 4 * left <= end)
        live, off, end, left = live[keep], off[keep], end[keep], left[keep]
        step += 1
    return [ok and payload.startswith(_TAGS, 8) and payload[8:].isascii()
            for payload, ok in zip(payloads, passed.tolist())]


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace `path` with `data`, or leave it as it was.

    The bytes go to `<path>.tmp`, are fsynced, then renamed over `path`;
    if any step fails the temp file is removed and the error re-raised.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# index and prev_hash: the head of a block's hash preimage
_HEAD = struct.Struct(">Q32s")
_HEAD_SIZE = _HEAD.size + 4  # and payload_len, on disk


def _chain_break(heads: list[bytes], payloads: list[bytes], hashes: list[bytes]) -> int | None:
    """Position of the first block whose head (index, prev_hash) or hash does
    not follow from the blocks before it; None if the chain holds."""
    pack, prev = _HEAD.pack, ZERO_HASH
    for i, (head, payload, digest) in enumerate(zip(heads, payloads, hashes)):
        if head != pack(i, prev) or sha256(head + payload).digest() != digest:
            return i
        prev = digest
    return None


class Journal:
    """Single-writer block chain of record payloads in three columns: each block's hash
    preimage head (index || prev_hash), payload and hash, the heads and hashes made by `_chain`."""

    def __init__(self):
        self._heads: list[bytes] = []
        self._payloads: list[bytes] = []
        self._hashes: list[bytes] = []

    def __len__(self) -> int:
        return len(self._payloads)

    def append(self, payload: bytes) -> None:
        if type(payload) is not bytes:
            raise TypeError(f"a journal payload must be bytes, not {type(payload).__name__}")
        self._payloads.append(payload)

    def _chain(self) -> None:
        """Head and hash the payloads appended since the last call, from the last stored hash."""
        heads, hashes, pack, n = self._heads, self._hashes, _HEAD.pack, len(self._hashes)
        prev = hashes[-1] if n else ZERO_HASH
        for i, payload in enumerate(self._payloads[n:], n):
            head = pack(i, prev)
            heads.append(head)
            prev = sha256(head + payload).digest()
            hashes.append(prev)

    def verify(self) -> bool:
        self._chain()
        return _chain_break(self._heads, self._payloads, self._hashes) is None

    def final_hash(self) -> bytes:
        self._chain()
        return self._hashes[-1] if self._hashes else ZERO_HASH

    def payloads(self, kind: EventKind | None = None) -> list[bytes]:
        """Block payloads in journal order; with `kind`, only that kind's."""
        return list(self._payloads) if kind is None else self.payloads_of(kind)[0]

    def payloads_of(self, *kinds: EventKind) -> list[list[bytes]]:
        """`payloads(kind)` for each of `kinds`, from one scan of all payloads."""
        tags, payloads = tuple(_KIND_TAGS[kind] for kind in kinds), self._payloads
        picked = list(compress(payloads, map(bytes.startswith, payloads, repeat(tags), repeat(8))))
        return [list(compress(picked, map(bytes.startswith, picked, repeat(tag), repeat(8))))
                for tag in tags]

    def records(self, kind: EventKind | None = None) -> list[EventRecord]:
        """`payloads(kind)`, each decoded into an `EventRecord` (CorruptJournal if one is not)."""
        return list(map(EventRecord.from_bytes, self.payloads(kind)))

    def export(self, path: str | Path) -> None:
        """Write all blocks to `path` atomically (see `write_atomic`)."""
        self._chain()
        # appended in place: `bytes.join` would hold a buffer record per piece
        out = bytearray()
        for head, payload, digest in zip(self._heads, self._payloads, self._hashes):
            out += head
            out += _U32.pack(len(payload))
            out += payload
            out += digest
        write_atomic(path, out)

    @classmethod
    def load(cls, path: str | Path) -> "Journal":
        """Read a journal file back; raises CorruptJournal naming the first
        bad block if the file is truncated, fails chain verification, or
        holds a payload that does not decode (see the module docstring)."""
        data = Path(path).read_bytes()
        journal = cls()
        heads, payloads, hashes = journal._heads, journal._payloads, journal._hashes
        unpack = _U32.unpack_from
        off, end = 0, len(data)
        while off < end:
            if off + _HEAD_SIZE > end:
                raise CorruptJournal(f"block {len(hashes)}: truncated block header")
            start = off + _HEAD_SIZE
            heads.append(data[off:start - 4])
            off = start + unpack(data, start - 4)[0] + 32
            if off > end:
                raise CorruptJournal(f"block {len(hashes)}: truncated block body")
            payloads.append(data[start:off - 32])
            hashes.append(data[off - 32:off])
        del data  # released: `_walk` joins the payloads, and the two are not held at once
        broken = _chain_break(heads, payloads, hashes)
        if broken is not None:
            raise CorruptJournal(f"chain verification failed at block {broken}")
        for i in compress(count(), map(not_, _walk(payloads))):
            try:
                EventRecord.from_bytes(payloads[i])
            except CorruptJournal as exc:
                raise CorruptJournal(f"block {i}: {exc}") from None
        return journal
