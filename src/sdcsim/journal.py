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
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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
    """Simulated integer clock; time only moves forward."""

    def __init__(self, start: int = 0):
        self._tick = start

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


def block_hash(index: int, prev_hash: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(_U64.pack(index) + prev_hash + payload).digest()


@dataclass(frozen=True)
class JournalBlock:
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
        block = JournalBlock(index=index, prev_hash=prev, payload=payload,
                             hash=block_hash(index, prev, payload))
        self._blocks.append(block)
        return block

    def verify(self) -> bool:
        prev = ZERO_HASH
        for i, block in enumerate(self._blocks):
            if block.index != i or block.prev_hash != prev:
                return False
            if block_hash(block.index, block.prev_hash, block.payload) != block.hash:
                return False
            prev = block.hash
        return True

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
        """Write all blocks to `path` atomically (temp file + rename)."""
        out = bytearray()
        for b in self._blocks:
            out += _U64.pack(b.index)
            out += b.prev_hash
            out += _U32.pack(len(b.payload))
            out += b.payload
            out += b.hash
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(bytes(out))
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "Journal":
        """Read a journal file back; raises CorruptJournal if the file is
        truncated, malformed or fails chain verification."""
        data = Path(path).read_bytes()
        journal = cls()
        off = 0
        while off < len(data):
            if off + 8 + 32 + 4 > len(data):
                raise CorruptJournal("truncated block header")
            (index,) = _U64.unpack_from(data, off)
            off += 8
            prev = data[off:off + 32]
            off += 32
            (plen,) = _U32.unpack_from(data, off)
            off += 4
            if off + plen + 32 > len(data):
                raise CorruptJournal("truncated block body")
            payload = data[off:off + plen]
            off += plen
            digest = data[off:off + 32]
            off += 32
            journal._blocks.append(JournalBlock(index=index, prev_hash=prev,
                                                payload=payload, hash=digest))
        if not journal.verify():
            raise CorruptJournal("chain verification failed")
        for block in journal._blocks:
            EventRecord.from_bytes(block.payload)  # payloads must decode
        return journal
