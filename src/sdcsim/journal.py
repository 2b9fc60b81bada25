"""Append-only, hash-chained event journal.

Every ledger mutation and contract state change is serialized into an
EventRecord and appended as a block. Block k stores
``hash = SHA256(index(8 BE) || prev_hash(32) || payload)``, with block 0
chaining from 32 zero bytes, so any bit flipped anywhere in the history
invalidates verification of the chain.

Serialization is canonical: fixed field order, length-prefixed UTF-8
strings, fixed-width big-endian integers, detail pairs sorted by key.
The same sequence of records therefore always produces the same final
hash, which is what the run-determinism and mode-equivalence checks
compare.

Record payload layout (every string is a 4-byte big-endian length, then
that many UTF-8 bytes):

    timestamp(8 BE) || kind || actor || detail_count(4 BE) || (key || value)*

Because the kind string always starts at byte 8, `Journal.records(kind)`
picks out one kind's blocks by that prefix and decodes only those; a
payload that does not decode (truncated, trailing bytes, bad UTF-8,
unknown kind) raises CorruptJournal.

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

import functools
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

# Detail keys come from the engine's small vocabulary, so each is packed once.
_packed_key = functools.lru_cache(maxsize=1024)(_pack_str)


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
        actor = self.actor.encode("utf-8")
        parts = [_U64.pack(self.timestamp), _KIND_TAGS[self.kind],
                 _U32.pack(len(actor)), actor, _U32.pack(len(self.details))]
        for k, v in self.details:
            data = v.encode("utf-8")
            parts += (_packed_key(k), _U32.pack(len(data)), data)
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
    """Single-writer block chain of EventRecords."""

    def __init__(self):
        self._blocks: list[JournalBlock] = []

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> list[JournalBlock]:
        return list(self._blocks)

    def append(self, record: EventRecord) -> JournalBlock:
        payload = record.to_bytes()
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

    def records(self, kind: EventKind | None = None) -> list[EventRecord]:
        """Decoded records in journal order; with `kind`, only that kind's.

        A filtered read decodes only the blocks whose payload carries the
        kind's tag, so finding the settlements of a long run does not
        decode its transfers and locks.
        """
        decode = EventRecord.from_bytes
        if kind is None:
            return [decode(b.payload) for b in self._blocks]
        tag = _KIND_TAGS[kind]
        return [decode(b.payload) for b in self._blocks if b.payload.startswith(tag, 8)]

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
