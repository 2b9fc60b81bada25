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
picks one kind's blocks by the kind string at byte 8. A payload that does
not decode (truncated, trailing bytes, bad UTF-8, unknown kind), or is not
of the shape unpacking it, raises CorruptJournal.

On-disk block layout (repeated per block, no file header):

    index(8 BE) || prev_hash(32) || payload_len(4 BE) || payload || hash(32)

`Journal.load` (the `verify` command) checks a file in two passes: first
that every block is complete and chains from the one before, then that
every payload would decode (`check_payload`), which it tells from the
length prefixes alone for an all-ASCII payload. A failure raises
CorruptJournal naming the first bad block, counted from 0 in file order
("chain verification failed at block 17", "block 17: truncated string
data"); a chain break is reported even when a payload is also malformed.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

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
_KIND_NAMES = frozenset(kind.value.encode("utf-8") for kind in EventKind)


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
        head: list[str] = []
        details: list[str] = []
        try:
            off = _read_strings(payload, 8, 2, head)
            if off + 4 > len(payload):
                raise CorruptJournal("truncated detail count")
            off = _read_strings(payload, off + 4, 2 * _U32.unpack_from(payload, off)[0], details)
        except UnicodeDecodeError as exc:
            raise CorruptJournal(f"invalid UTF-8 in record payload: {exc.reason}") from None
        if off != len(payload):
            raise CorruptJournal("trailing bytes in record payload")
        kind_s, actor = head
        kind = _KINDS_BY_NAME.get(kind_s)
        if kind is None:
            raise CorruptJournal(f"unknown event kind {kind_s!r}")
        pairs = iter(details)
        return cls(_U64.unpack_from(payload)[0], kind, actor, tuple(zip(pairs, pairs)))


class RecordShape:
    """One record layout: an event kind and its detail keys, in sorted order.

    `pack(timestamp, actor, *values)` takes the values in key order, each
    through `str`, into one ASCII template of the pre-packed kind, count and
    keys; `unpack` slices an ASCII payload at its length prefixes. Anything
    else goes through `EventRecord`'s UTF-8 codec.
    """

    def __init__(self, kind: EventKind, keys: str):
        self.kind, self.keys = kind, tuple(keys.split())
        # the bytes before each length prefix: kind, count and first key, keys
        first, *rest = self.keys
        self._seps = (_KIND_TAGS[kind], _U32.pack(len(self.keys)) + _pack_str(first),
                      *map(_pack_str, rest))
        self._template = "".join(  # a length under 128 packs as three NULs and one ASCII char
            sep.decode("latin-1").replace("%", "%%") + "\0\0\0%c%s" for sep in self._seps)

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

    def unpack(self, payload: bytes) -> tuple[int, str, tuple[str, ...]]:
        off, cuts = 8, []
        if payload[8:].isascii():
            try:
                for sep in self._seps:
                    if not payload.startswith(sep, off):
                        break
                    (n,) = _U32.unpack_from(payload, off + len(sep))
                    off += len(sep) + 4 + n
                    cuts.append((off - n, off))
            except struct.error:  # a length prefix past the end
                pass
            if len(cuts) == len(self._seps) and off == len(payload):
                actor, *values = [payload[a:b].decode("ascii") for a, b in cuts]
                return _U64.unpack_from(payload)[0], actor, tuple(values)
        record = EventRecord.from_bytes(payload)
        if record.kind is not self.kind or tuple(k for k, _ in record.details) != self.keys:
            raise CorruptJournal(f"not a {self.kind.value} record with keys {' '.join(self.keys)}")
        return record.timestamp, record.actor, tuple(v for _, v in record.details)


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


def _read_strings(buf: bytes, off: int, count: int, out: list[str]) -> int:
    """Decode `count` length-prefixed UTF-8 strings from `buf` at `off` into
    `out`; return the offset just past the last one."""
    end = len(buf)
    unpack = _U32.unpack_from
    for _ in range(count):
        if off + 4 > end:
            raise CorruptJournal("truncated string length")
        (n,) = unpack(buf, off)
        off += 4 + n
        if off > end:
            raise CorruptJournal("truncated string data")
        out.append(buf[off - n:off].decode("utf-8"))
    return off


def check_payload(payload: bytes) -> None:
    """Raise CorruptJournal exactly when `EventRecord.from_bytes(payload)`
    would, with the same message, without decoding a plain payload.

    The fast path walks the length prefixes and decodes no string: a known
    kind, lengths that end exactly at the end of the payload, and only
    ASCII bytes after the timestamp (ASCII is valid UTF-8; the timestamp
    may hold any byte) mean the payload decodes. Anything else, such as a
    short read, non-ASCII text or a string of 128 bytes or more (its length
    prefix holds a byte >= 0x80), is left to `from_bytes`, which raises its
    error or accepts the payload.
    """
    unpack = _U32.unpack_from
    try:
        (n,) = unpack(payload, 8)
        off = 12 + n
        if payload[12:off] in _KIND_NAMES:
            (n,) = unpack(payload, off)
            off += 4 + n
            (count,) = unpack(payload, off)
            off += 4
            for _ in range(2 * count):
                (n,) = unpack(payload, off)
                off += 4 + n
            if off == len(payload) and payload[8:].isascii():
                return
    except struct.error:  # a length prefix past the end
        pass
    EventRecord.from_bytes(payload)


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


def block_hash(index: int, prev_hash: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(_U64.pack(index) + prev_hash + payload).digest()


# index, prev_hash and payload_len: the fixed-width head of an on-disk block
_BLOCK_HEAD = struct.Struct(">Q32sI")


class JournalBlock(NamedTuple):
    index: int
    prev_hash: bytes
    payload: bytes
    hash: bytes


class Journal:
    """Single-writer block chain of record payloads."""

    def __init__(self):
        self._blocks: list[JournalBlock] = []

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> list[JournalBlock]:
        return list(self._blocks)

    def append(self, payload: bytes) -> JournalBlock:
        index = len(self._blocks)
        prev = self._blocks[-1].hash if self._blocks else ZERO_HASH
        block = JournalBlock(index, prev, payload, block_hash(index, prev, payload))
        self._blocks.append(block)
        return block

    def verify(self) -> bool:
        return self._chain_break() is None

    def _chain_break(self) -> int | None:
        """Position of the first block whose index, prev_hash or hash does
        not follow from the blocks before it; None if the chain holds."""
        prev = ZERO_HASH
        for i, (index, prev_hash, payload, digest) in enumerate(self._blocks):
            if index != i or prev_hash != prev or block_hash(index, prev_hash, payload) != digest:
                return i
            prev = digest
        return None

    def final_hash(self) -> bytes:
        return self._blocks[-1].hash if self._blocks else ZERO_HASH

    def payloads(self, kind: EventKind | None = None) -> list[bytes]:
        """Block payloads in journal order; with `kind`, only that kind's."""
        if kind is None:
            return [b.payload for b in self._blocks]
        tag = _KIND_TAGS[kind]
        return [b.payload for b in self._blocks if b.payload.startswith(tag, 8)]

    def records(self, kind: EventKind | None = None) -> list[EventRecord]:
        """`payloads(kind)`, each decoded into an `EventRecord`."""
        return [EventRecord.from_bytes(p) for p in self.payloads(kind)]

    def export(self, path: str | Path) -> None:
        """Write all blocks to `path` atomically (see `write_atomic`)."""
        out = bytearray()
        for b in self._blocks:
            out += _U64.pack(b.index)
            out += b.prev_hash
            out += _U32.pack(len(b.payload))
            out += b.payload
            out += b.hash
        write_atomic(path, bytes(out))

    @classmethod
    def load(cls, path: str | Path) -> "Journal":
        """Read a journal file back; raises CorruptJournal naming the first
        bad block if the file is truncated, fails chain verification, or
        holds a payload that does not decode (see the module docstring)."""
        data = Path(path).read_bytes()
        journal = cls()
        blocks = journal._blocks
        head = _BLOCK_HEAD.unpack_from
        off = 0
        while off < len(data):
            if off + _BLOCK_HEAD.size > len(data):
                raise CorruptJournal(f"block {len(blocks)}: truncated block header")
            index, prev, plen = head(data, off)
            start = off + _BLOCK_HEAD.size
            off = start + plen + 32
            if off > len(data):
                raise CorruptJournal(f"block {len(blocks)}: truncated block body")
            blocks.append(JournalBlock(index, prev, data[start:off - 32], data[off - 32:off]))
        if not journal.verify():
            raise CorruptJournal(f"chain verification failed at block {journal._chain_break()}")
        for i, block in enumerate(blocks):
            try:
                check_payload(block.payload)
            except CorruptJournal as exc:
                raise CorruptJournal(f"block {i}: {exc}") from None
        return journal
