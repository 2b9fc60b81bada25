from __future__ import annotations

import ast
import hashlib
import random
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import sdcsim
from sdcsim import Clock, EventKind, EventRecord, Journal, Ledger, load_scenario, run_simulation
from sdcsim import journal as journal_module
from sdcsim.errors import CorruptJournal
from sdcsim.journal import SETTLEMENT, TRANSFER, ZERO_HASH, RecordShape

from support import (Block, flip_bit, journal_blocks, journal_from_blocks, rechain,
                     reference_decode, reference_encode, write_chained)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def record(i: int = 0, kind: EventKind = EventKind.TRANSFER, **details) -> EventRecord:
    if not details:
        details = {"src": "a", "dst": "b", "amount": i}
    return EventRecord.create(i, kind, "a#0", **details)


def test_genesis_block_chains_from_zero():
    journal = Journal()
    journal.append(record().to_bytes())
    block = journal_blocks(journal)[-1]
    assert block.index == 0
    assert block.prev_hash == ZERO_HASH
    assert journal.verify()


def test_identical_records_get_distinct_hashes():
    journal = Journal()
    rec = record(7)
    journal.append(rec.to_bytes())
    journal.append(rec.to_bytes())
    first, second = journal_blocks(journal)
    assert first.payload == second.payload
    assert first.hash != second.hash  # index is part of the preimage


def test_thousand_appends_verify_and_rechain_independently():
    journal = Journal()
    for i in range(1000):
        journal.append(record(i, amount=i * 3, src=f"acct{i % 7}", dst="sink").to_bytes())
    assert journal.verify()
    assert rechain(journal_blocks(journal))


def test_same_record_sequence_gives_same_final_hash():
    records = [record(i, src="x", dst="y", amount=i) for i in range(50)]
    first, second = Journal(), Journal()
    for r in records:
        first.append(r.to_bytes())
        second.append(r.to_bytes())
    assert first.final_hash() == second.final_hash()


def test_detail_order_is_canonical():
    a = EventRecord.create(1, EventKind.LOCK, "p", zeta="1", alpha="2", mid="3")
    b = EventRecord.create(1, EventKind.LOCK, "p", alpha="2", mid="3", zeta="1")
    assert a.to_bytes() == b.to_bytes()
    assert a.detail("mid") == "3"
    with pytest.raises(KeyError):
        a.detail("beta")


def test_record_round_trips_through_bytes():
    rec = record(42, kind=EventKind.SETTLEMENT, contract="C", amount=17, value="-3.5")
    assert EventRecord.from_bytes(rec.to_bytes()) == rec


records_strategy = st.builds(
    lambda ts, kind, actor, details: EventRecord.create(ts, kind, actor, **details),
    st.integers(0, 2**64 - 1),
    st.sampled_from(EventKind),
    st.text(max_size=12),
    st.dictionaries(st.text(max_size=10), st.text(max_size=12), max_size=6),
)


@settings(max_examples=300)
@given(records_strategy)
def test_codec_matches_the_field_by_field_reference(rec):
    payload = rec.to_bytes()
    assert payload == reference_encode(rec)
    assert EventRecord.from_bytes(payload) == rec
    assert reference_decode(payload) == (rec.timestamp, rec.kind.value, rec.actor, rec.details)


@settings(max_examples=50)
@given(records_strategy)
def test_every_truncation_of_a_payload_is_corrupt(rec):
    payload = rec.to_bytes()
    for cut in range(len(payload)):
        with pytest.raises(CorruptJournal) as caught:
            EventRecord.from_bytes(payload[:cut])
        if cut <= 8:  # the 8-byte timestamp, then the kind's length prefix
            assert str(caught.value) == ("truncated timestamp" if cut < 8
                                         else "truncated string length")
    with pytest.raises(CorruptJournal):
        EventRecord.from_bytes(payload + b"\x00")


# ASCII and non-ASCII text, and a string whose length prefix has a byte >= 0x80
mixed_text = st.one_of(st.text(max_size=10), st.text("ab#1.-", max_size=10),
                       st.sampled_from(["bänk", "x" * 130]))
mixed_records = st.builds(
    lambda ts, kind, actor, details: EventRecord.create(ts, kind, actor, **details),
    st.integers(0, 2**64 - 1),
    st.sampled_from(EventKind),
    mixed_text,
    st.dictionaries(mixed_text, mixed_text, max_size=4),
)


@settings(max_examples=30, deadline=None)
@given(mixed_records)
def test_load_payload_check_agrees_with_the_decoder(rec):
    payload = rec.to_bytes()
    variants = [payload] + [payload[:cut] for cut in range(len(payload))] + [payload + b"\x00"]
    variants += [payload[:i] + bytes([byte]) + payload[i + 1:]
                 for i in range(len(payload)) for byte in (0x00, 0x80, 0xC3, 0xFF)]
    # one walk over every variant, as `Journal.load` makes over a file's payloads
    vouched = journal_module._walk(variants)
    for variant, ok in zip(variants, vouched, strict=True):
        try:
            record = EventRecord.from_bytes(variant)
        except CorruptJournal:
            assert not ok  # `Journal.load` decodes only what the walk does not vouch for
            continue
        assert (record.timestamp, record.kind.value, record.actor, record.details) \
            == reference_decode(variant)
        assert ok or not variant[8:].isascii()  # the walk vouches for every ASCII record


def test_invalid_utf8_payload_is_corrupt():
    payload = EventRecord.create(1, EventKind.TRANSFER, "ab", note="xy").to_bytes()
    bad = payload.replace(b"xy", b"\xff\xfe")
    with pytest.raises(CorruptJournal, match="UTF-8"):
        EventRecord.from_bytes(bad)


def test_unknown_kind_is_corrupt():
    payload = EventRecord.create(1, EventKind.LOCK, "ab").to_bytes()
    with pytest.raises(CorruptJournal, match="unknown event kind 'Lick'"):
        EventRecord.from_bytes(payload.replace(b"Lock", b"Lick"))


def test_records_by_kind_match_a_filtered_full_decode():
    journal = Journal()
    rng = random.Random(5)
    kinds = list(EventKind)
    for i in range(2000):
        kind = rng.choice(kinds[:-1])  # the last kind never occurs
        actor = rng.choice(["SYSTEM", "bank1#1", "bänk"])
        # a detail value may spell another kind's name, packed exactly like its tag
        journal.append(EventRecord.create(i, kind, actor, amount=rng.randrange(10**6),
                                          note=rng.choice(kinds).value).to_bytes())
    everything = journal.records()
    assert everything == [EventRecord.from_bytes(p) for p in journal.payloads()]
    for kind in EventKind:
        assert journal.records(kind) == [r for r in everything if r.kind is kind]
    assert journal.records(kinds[-1]) == []


def test_indices_are_gapless():
    journal = Journal()
    for i in range(20):
        journal.append(record(i).to_bytes())
    assert [b.index for b in journal_blocks(journal)] == list(range(20))


@pytest.mark.parametrize("field", ["payload", "prev_hash", "index"])
def test_single_bit_tamper_is_detected(tmp_path, field):
    journal = Journal()
    for i in range(10):
        journal.append(record(i).to_bytes())
    rng = random.Random(99)
    path = tmp_path / "journal.bin"
    for _ in range(50):
        k = rng.randrange(10)
        tampered = flip_bit(journal, k, field, rng.randrange(256))
        assert not tampered.verify()
        tampered.export(path)
        with pytest.raises(CorruptJournal, match=rf"^chain verification failed at block {k}$"):
            Journal.load(path)


def test_swapped_blocks_fail_verification():
    journal = Journal()
    for i in range(5):
        journal.append(record(i).to_bytes())
    blocks = journal_blocks(journal)
    blocks[1], blocks[2] = blocks[2], blocks[1]
    assert not journal_from_blocks(blocks).verify()


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 2**40), st.text(max_size=8), st.text(max_size=8)),
                min_size=1, max_size=30))
def test_append_then_verify_always_holds(rows):
    journal = Journal()
    for ts, k, v in rows:
        journal.append(EventRecord.create(ts, EventKind.TRANSFER, "x", key=k, val=v).to_bytes())
    assert journal.verify()
    assert rechain(journal_blocks(journal))


# each step: a payload to append, or the name of a reader that chains first
journal_steps = st.lists(st.one_of(st.binary(max_size=24),
                                   st.sampled_from(["final_hash", "verify", "len", "export"])),
                         max_size=24)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(journal_steps)
def test_reads_between_appends_chain_as_raw_hashlib_does(tmp_path, steps):
    journal, appended = Journal(), []
    reference, exported = tmp_path / "reference.bin", tmp_path / "journal.bin"
    for step in steps:
        if isinstance(step, bytes):
            journal.append(step)
            appended.append(step)
            continue
        write_chained(reference, appended)
        expected = reference.read_bytes()
        if step == "final_hash":
            assert journal.final_hash() == (expected[-32:] if appended else ZERO_HASH)
        elif step == "verify":
            assert journal.verify()
        elif step == "len":
            assert len(journal) == len(appended)
        else:
            journal.export(exported)
            assert exported.read_bytes() == expected
    blocks = journal_blocks(journal)
    assert rechain(blocks) and [block.payload for block in blocks] == appended
    once = Journal()
    for payload in appended:
        once.append(payload)
    once.export(reference)
    journal.export(exported)
    assert exported.read_bytes() == reference.read_bytes()


def test_appends_hash_nothing_and_each_read_chains_only_what_is_new(monkeypatch):
    hashed = []
    sha256 = journal_module.sha256
    monkeypatch.setattr(journal_module, "sha256", lambda data: hashed.append(data) or sha256(data))
    journal = Journal()
    for i in range(25):
        journal.append(record(i).to_bytes())
    assert (len(journal), len(hashed)) == (25, 0)
    first = journal.final_hash()
    assert len(hashed) == 25
    assert journal.final_hash() == first and len(hashed) == 25
    assert journal.verify() and len(hashed) == 50  # verify re-hashes every block
    journal.append(record(25).to_bytes())
    assert journal.verify() and len(hashed) == 50 + 1 + 26  # chains the new block, then checks all


@pytest.mark.parametrize("k", [0, 3, 5])
def test_a_chain_break_at_block_k_hashes_k_plus_one_payloads(tmp_path, monkeypatch, k):
    path = tmp_path / "journal.bin"
    write_chained(path, _transfers(6), break_at=k)
    hashed = []
    sha256 = journal_module.sha256
    monkeypatch.setattr(journal_module, "sha256", lambda data: hashed.append(data) or sha256(data))
    with pytest.raises(CorruptJournal, match=rf"^chain verification failed at block {k}$"):
        Journal.load(path)
    assert len(hashed) == k + 1


def test_an_append_after_stored_blocks_chains_from_the_last_stored_hash():
    source = Journal()
    for i in range(3):
        source.append(record(i).to_bytes())
    stored = bytes(range(32))  # a last hash that its block does not hash to
    blocks = journal_blocks(source)
    blocks[-1] = blocks[-1]._replace(hash=stored)
    journal = journal_from_blocks(blocks)
    payload = record(3).to_bytes()
    journal.append(payload)
    digest = hashlib.sha256(struct.pack(">Q", 3) + stored + payload).digest()
    assert journal_blocks(journal) == [*blocks, Block(3, stored, payload, digest)]
    assert not journal.verify()


@pytest.mark.parametrize("payload", ["text", bytearray(b"\0" * 8), memoryview(b"\0" * 8), None, 8],
                         ids=["str", "bytearray", "memoryview", "None", "int"])
def test_an_append_that_is_not_bytes_is_refused_and_changes_nothing(payload):
    journal = Journal()
    journal.append(record(0).to_bytes())
    before = journal_blocks(journal)
    with pytest.raises(TypeError, match="a journal payload must be bytes"):
        journal.append(payload)
    assert len(journal) == 1 and journal_blocks(journal) == before
    assert [len(journal._heads), len(journal._hashes)] == [1, 1]
    journal.append(record(1).to_bytes())
    assert journal.verify() and rechain(journal_blocks(journal))


def test_export_import_round_trip(tmp_path):
    journal = Journal()
    for i in range(40):
        journal.append(record(i).to_bytes())
    path = tmp_path / "journal.bin"
    journal.export(path)
    loaded = Journal.load(path)
    assert loaded.verify()
    assert loaded.final_hash() == journal.final_hash()
    assert loaded.records() == journal.records()


def test_truncated_file_is_corrupt(tmp_path):
    journal = Journal()
    for i in range(5):
        journal.append(record(i).to_bytes())
    path = tmp_path / "journal.bin"
    journal.export(path)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(CorruptJournal):
        Journal.load(path)


def test_flipped_byte_on_disk_is_corrupt(tmp_path):
    journal = Journal()
    for i in range(5):
        journal.append(record(i).to_bytes())
    path = tmp_path / "journal.bin"
    journal.export(path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptJournal):
        Journal.load(path)


def _count_decodes(monkeypatch) -> list:
    """Record every payload `EventRecord.from_bytes` is asked to decode."""
    calls = []
    decode = EventRecord.from_bytes

    def counting(cls, payload):
        calls.append(payload)
        return decode(payload)
    monkeypatch.setattr(EventRecord, "from_bytes", classmethod(counting))
    return calls


def test_an_ascii_journal_loads_without_decoding_a_record(tmp_path, monkeypatch):
    journal = run_simulation(load_scenario(SCENARIOS / "volatile_forward.ini")).journal
    path = tmp_path / "journal.bin"
    journal.export(path)
    decoded = _count_decodes(monkeypatch)
    assert len(Journal.load(path)) == len(journal) > 0
    assert decoded == []


def test_a_non_ascii_journal_loads_through_the_decoder(tmp_path, monkeypatch):
    journal = Journal()
    for i in range(6):
        journal.append(EventRecord.create(i, EventKind.TRANSFER, "bänk" if i % 2 else "bank",
                                          src="a", dst="b", amount=i).to_bytes())
    path = tmp_path / "journal.bin"
    journal.export(path)
    decoded = _count_decodes(monkeypatch)
    loaded = Journal.load(path)
    assert len(decoded) == 3
    assert loaded.records() == journal.records()


def _transfers(count: int) -> list[bytes]:
    return [record(i).to_bytes() for i in range(count)]


@pytest.mark.parametrize("k", [0, 3, 5])
def test_load_names_the_block_whose_payload_does_not_decode(tmp_path, k):
    payloads = _transfers(6)
    payloads[k] = payloads[k][:-1]  # re-chained below, so only the payload is wrong
    path = tmp_path / "journal.bin"
    write_chained(path, payloads)
    with pytest.raises(CorruptJournal, match=rf"^block {k}: truncated string data$"):
        Journal.load(path)


@pytest.mark.parametrize("k", [0, 3, 5])
def test_load_names_the_first_block_that_breaks_the_chain(tmp_path, k):
    path = tmp_path / "journal.bin"
    write_chained(path, _transfers(6), break_at=k)
    with pytest.raises(CorruptJournal, match=rf"^chain verification failed at block {k}$"):
        Journal.load(path)


def test_a_chain_break_is_reported_before_a_malformed_payload(tmp_path):
    payloads = _transfers(6)
    payloads[1] = payloads[1][:-1]
    path = tmp_path / "journal.bin"
    write_chained(path, payloads, break_at=4)
    with pytest.raises(CorruptJournal, match=r"^chain verification failed at block 4$"):
        Journal.load(path)


def test_a_truncated_file_names_the_block_it_cuts(tmp_path):
    path = tmp_path / "journal.bin"
    write_chained(path, _transfers(3))
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(CorruptJournal, match=r"^block 2: truncated block body$"):
        Journal.load(path)
    path.write_bytes(data + bytes(43))
    with pytest.raises(CorruptJournal, match=r"^block 3: truncated block header$"):
        Journal.load(path)
    path.write_bytes(data + bytes(44))  # a whole header, cut before its body and hash
    with pytest.raises(CorruptJournal, match=r"^block 3: truncated block body$"):
        Journal.load(path)


def test_empty_file_loads_as_empty_journal(tmp_path):
    path = tmp_path / "journal.bin"
    path.write_bytes(b"")
    journal = Journal.load(path)
    assert len(journal) == 0
    assert journal.verify()
    assert journal.final_hash() == ZERO_HASH


def test_clock_never_runs_backwards():
    clock = Clock()
    clock.advance_to(5)
    clock.advance_to(5)
    with pytest.raises(ValueError):
        clock.advance_to(4)
    assert clock.now() == 5


# -- record shapes --

SHAPES = [value for value in vars(journal_module).values() if isinstance(value, RecordShape)]

# ASCII and non-ASCII text, strings of 128 bytes or more (their length prefix
# holds a byte >= 0x80), and integers that are negative or need 33+ bits
shape_text = st.one_of(st.text(max_size=12), st.text("ab#1.-%", max_size=8),
                       st.text(min_size=128, max_size=140), st.sampled_from(["bänk", "x" * 128]))
shape_values = st.one_of(shape_text, st.integers(-2**40, 2**32), st.integers(2**32, 2**70))


def test_the_table_declares_each_shape_once_with_sorted_keys():
    assert len(SHAPES) == 13
    assert len({(shape.kind, shape.keys) for shape in SHAPES}) == 13
    assert all(list(shape.keys) == sorted(set(shape.keys)) for shape in SHAPES)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 2**64 - 1), shape_text, st.data())
def test_a_shape_packs_the_generic_bytes_and_unpacks_its_inputs(shape, ts, actor, data):
    values = data.draw(st.lists(shape_values, min_size=len(shape.keys), max_size=len(shape.keys)))
    payload = shape.pack(ts, actor, *values)
    details = dict(zip(shape.keys, values))
    assert payload == EventRecord.create(ts, shape.kind, actor, **details).to_bytes()
    assert list(shape.read([payload])) == [(ts, actor, tuple(map(str, values)))]


@pytest.mark.parametrize("actor", ["bank", "bänk"])
def test_a_shape_unpacks_only_its_own_records(actor):
    for shape in SHAPES:
        payloads = [other.pack(5, actor, *range(len(other.keys))) for other in SHAPES]
        assert list(shape.read(payloads)) == [(5, actor, tuple(map(str, range(len(shape.keys)))))
                                              if other is shape else None for other in SHAPES]
        # the same layout with every key spelled otherwise, or another kind name
        respelled = EventRecord(5, shape.kind, actor, tuple((k.upper(), "1") for k in shape.keys))
        payload = shape.pack(5, actor, *range(len(shape.keys)))
        tag = shape.kind.value.encode()
        bad = [respelled.to_bytes(), payload.replace(tag, tag.upper(), 1)]
        assert list(shape.read(bad)) == [None] * 2
    payload = SETTLEMENT.pack(20, actor, 7, "C", 0, "settled", "a", "b", "-1.5")
    bad = [payload[:cut] for cut in range(len(payload))] + [payload + b"\x00"]
    assert list(SETTLEMENT.read(bad)) == [None] * len(bad)


def test_a_shape_decodes_only_the_payloads_of_its_kind(monkeypatch):
    payloads = run_simulation(load_scenario(SCENARIOS / "volatile_forward.ini")).journal.payloads()
    expected = []
    for payload in payloads:
        ts, kind, actor, details = reference_decode(payload)
        expected.append((ts, actor, tuple(value for _, value in details))
                        if kind == "Settlement" else None)
    decoded = _count_decodes(monkeypatch)
    assert list(SETTLEMENT.read(payloads)) == expected
    assert decoded == [p for p, want in zip(payloads, expected) if want is not None]
    assert len(decoded) == 10


def test_every_block_of_a_run_enters_the_chain_through_append(monkeypatch):
    appended = []
    append = Journal.append
    monkeypatch.setattr(Journal, "append",
                        lambda self, payload: appended.append(payload) or append(self, payload))
    artifacts = run_simulation(load_scenario(SCENARIOS / "volatile_forward.ini"))
    assert len(appended) == len(artifacts.journal) > 0
    assert appended == artifacts.journal.payloads()


def test_the_engine_writes_every_record_through_a_shape():
    # `EventRecord.create` sorts and stringifies its keyword details on each
    # call; the engine packs through the shape table instead
    creates = []
    for path in sorted(Path(sdcsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "create"
                    and isinstance(func.value, ast.Name) and func.value.id == "EventRecord"):
                creates.append(f"{path.name}:{node.lineno}")
    assert creates == []
    assert not hasattr(Ledger, "_emit")


# -- whole files --

def reference_load(data: bytes) -> tuple[list[bytes], list[bytes]]:
    """`Journal.load` one block at a time: frame the whole file, check the
    chain, then decode each payload in order; returns the payload and hash
    columns, or raises the first error."""
    blocks, off = [], 0
    while off < len(data):
        if off + 44 > len(data):
            raise CorruptJournal(f"block {len(blocks)}: truncated block header")
        (length,) = struct.unpack_from(">I", data, off + 40)
        end = off + 44 + length + 32
        if end > len(data):
            raise CorruptJournal(f"block {len(blocks)}: truncated block body")
        blocks.append((data[off:off + 40], data[off + 44:end - 32], data[end - 32:end]))
        off = end
    prev = ZERO_HASH
    for i, (head, payload, digest) in enumerate(blocks):
        if head != struct.pack(">Q", i) + prev or hashlib.sha256(head + payload).digest() != digest:
            raise CorruptJournal(f"chain verification failed at block {i}")
        prev = digest
    for i, (_, payload, _) in enumerate(blocks):
        try:
            EventRecord.from_bytes(payload)
        except CorruptJournal as exc:
            raise CorruptJournal(f"block {i}: {exc}") from None
    return [payload for _, payload, _ in blocks], [digest for *_, digest in blocks]


def _layout(payload: bytes) -> tuple[int, list[int]]:
    """Where the detail count of a well-formed payload sits, and the offset
    of every byte of string data in it."""
    strings, off = [], 8
    for _ in range(2):  # kind, actor
        (n,) = struct.unpack_from(">I", payload, off)
        strings += range(off + 4, off + 4 + n)
        off += 4 + n
    count_at = off
    while (off := off + 4) < len(payload):
        (n,) = struct.unpack_from(">I", payload, off)
        strings += range(off + 4, off + 4 + n)
        off += n
    return count_at, strings


# ASCII text, which `load` vouches for from the length prefixes alone
ascii_text = st.text("ab#1.-", max_size=10)


@st.composite
def edited_payload(draw) -> bytes:
    """A record as the engine writes it (any shape) or of any kind and detail
    keys, all ASCII or with non-ASCII text or strings of 128 bytes or more;
    then kept, or with one byte overwritten (anywhere, in a string or in the
    kind name), a cut, an insertion, ASCII bytes appended, or a detail count
    far past the payload's end."""
    ts = draw(st.integers(0, 2**64 - 1))
    text = draw(st.sampled_from([ascii_text, ascii_text, mixed_text]))
    if draw(st.booleans()):
        shape = draw(st.sampled_from(SHAPES))
        values = draw(st.lists(st.one_of(text, st.integers(-2**40, 2**40)),
                               min_size=len(shape.keys), max_size=len(shape.keys)))
        payload = shape.pack(ts, draw(text), *values)
    else:
        details = draw(st.dictionaries(text, text, max_size=4))
        payload = EventRecord.create(ts, draw(st.sampled_from(EventKind)), draw(text),
                                     **details).to_bytes()
    count_at, strings = _layout(payload)
    at = draw(st.integers(0, len(payload) - 1))
    edit = draw(st.sampled_from(["keep", "overwrite", "string", "kind", "cut", "insert", "append",
                                 "count"]))
    if edit == "overwrite":
        return payload[:at] + bytes([draw(st.integers(0, 255))]) + payload[at + 1:]
    if edit == "string":  # non-ASCII, where the length prefixes stay intact
        at = draw(st.sampled_from(strings))
        return payload[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + payload[at + 1:]
    if edit == "kind":  # every kind name fills bytes 12-15, and none holds a "Z"
        at = draw(st.integers(12, 15))
        return payload[:at] + b"Z" + payload[at + 1:]
    if edit == "cut":
        return payload[:at] + payload[at + draw(st.integers(1, 16)):]
    if edit == "insert":
        return payload[:at] + draw(st.binary(min_size=1, max_size=8)) + payload[at:]
    if edit == "append":
        return payload + draw(st.text("ab#\0", min_size=1, max_size=4)).encode()
    if edit == "count":
        far = struct.pack(">I", draw(st.integers(2**20, 2**32 - 1)))
        return payload[:count_at] + far + payload[count_at + 4:]
    return payload


def _columns(journal: Journal) -> tuple[list[bytes], list[bytes]]:
    return journal.payloads(), [block.hash for block in journal_blocks(journal)]


def _outcome(load) -> tuple[list[bytes], list[bytes]] | str:
    """The payload and hash columns `load()` returns, or its error message."""
    try:
        return load()
    except CorruptJournal as exc:
        return str(exc)


PLAIN = TRANSFER.pack(7, "bank#1", 100, "b#2", "a#1")


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(edited_payload(), min_size=1, max_size=8),
       st.sampled_from([None] * 8 + list(range(8))), st.sampled_from([0] * 8 + [1, 10, 80]))
# a payload each of whose faults only the kind-name, ASCII or end-of-payload test sees
@example([PLAIN, PLAIN + b"a", PLAIN], None, 0)
@example([PLAIN, PLAIN.replace(b"Transfer", b"Transfez"), PLAIN], None, 0)
@example([PLAIN, PLAIN.replace(b"bank#1", b"bank\xff1"), PLAIN], None, 0)
def test_load_matches_the_block_by_block_reference_on_whole_files(tmp_path, payloads, break_at, cut):
    path = tmp_path / "journal.bin"
    # re-chained, so each payload edit reaches the payload check unless the chain is broken
    write_chained(path, payloads, break_at=break_at)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - cut])
    loaded = _outcome(lambda: _columns(Journal.load(path)))
    assert loaded == _outcome(lambda: reference_load(path.read_bytes()))
