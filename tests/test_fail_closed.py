"""Hostile input fails closed: each reader returns an object or raises SdcError.

Three readers take input from outside the run: `Journal.load` (a journal
file), `parse_scenario` (scenario INI text) and `parse_script` (a driver
script). Hypothesis mutates a real journal and a real scenario, and draws
scripts from arbitrary text and from near-valid rows; any other exception,
a traceback at the CLI, fails the property.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdcsim import (
    Journal,
    LifecycleEvent,
    Scenario,
    ScriptStep,
    load_scenario,
    parse_scenario,
    parse_script,
    run_simulation,
)
from sdcsim.errors import SdcError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _edits(length, pieces):
    """1-3 edits of a sequence of `length`: flip (replace) one item, cut a
    range, or insert a piece drawn from `pieces`."""
    at = st.integers(0, max(length - 1, 0))
    edit = st.one_of(
        st.tuples(st.just("flip"), at, pieces),
        st.tuples(st.just("cut"), at, st.integers(1, 64)),
        st.tuples(st.just("insert"), at, pieces),
    )
    return st.lists(edit, min_size=1, max_size=3)


def _apply(data, edits):
    for op, at, arg in edits:
        at = min(at, len(data))
        if op == "flip":
            data = data[:at] + arg[:1] + data[at + 1:]
        elif op == "cut":
            data = data[:at] + data[at + arg:]
        else:
            data = data[:at] + arg + data[at:]
    return data


@pytest.fixture(scope="module")
def flat_forward_journal(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("journal") / "journal.bin"
    run_simulation(load_scenario(SCENARIOS / "flat_forward.ini")).journal.export(path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_journal_load_on_a_mutated_file_fails_closed(tmp_path, flat_forward_journal, data):
    original = flat_forward_journal
    edits = data.draw(_edits(len(original), st.binary(min_size=1, max_size=48)))
    file = tmp_path / "mutated.bin"
    file.write_bytes(_apply(original, edits))
    try:
        journal = Journal.load(file)
    except SdcError:
        return
    assert isinstance(journal, Journal)


_VOLATILE = (SCENARIOS / "volatile_forward.ini").read_text(encoding="utf-8")
_KEYS = re.findall(r"^(\w+) = ", _VOLATILE, flags=re.M)

# INI structure and numbers the parser must survive in any position
_INI_PIECES = st.one_of(
    st.sampled_from(["\n", "=", "[", "]", ",", "-", ".", "e", "nan", "inf", "-inf", "1e308",
                     "0", "-1", "10000000000", ";", "\n[market]\n", "\nmode = driver\n",
                     "willful:", "defaulting:", "swap", "path_file = x.csv\n", "\t", " "]),
    st.text(min_size=1, max_size=16),
)
_VALUES = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-5, 10**7), max_size=5).map(lambda ts: ",".join(map(str, ts))),
    st.sampled_from(["", "nan", "-inf", "1e308", "swap", "willful:-1", "defaulting:0", "x.csv"]),
    st.text(max_size=12),
)


def _set_values(text, changes):
    for key, value in changes:
        text = re.sub(rf"^{key} = .*$", lambda _: f"{key} = {value}", text, flags=re.M)
    return text


@FUZZ
@given(data=st.data())
def test_parse_scenario_on_mutated_text_fails_closed(data):
    if data.draw(st.booleans()):
        text = _apply(_VOLATILE, data.draw(_edits(len(_VOLATILE), _INI_PIECES)))
    else:
        text = _set_values(_VOLATILE, data.draw(st.lists(
            st.tuples(st.sampled_from(_KEYS), _VALUES.filter(lambda v: "\n" not in v)),
            min_size=1, max_size=4)))
    try:
        scenario = parse_scenario(text)
    except SdcError:
        return
    assert isinstance(scenario, Scenario)


_KINDS = [k.value for k in LifecycleEvent]
_TICKS = st.integers(-2**70, 2**70).map(str)
_PARTIES = st.sampled_from(["bank1", "bank2", "oracle", ""])
_SCRIPT_ROW = st.one_of(
    st.tuples(_TICKS, st.sampled_from(_KINDS), _PARTIES),
    st.tuples(_TICKS | st.text(max_size=6), st.sampled_from(_KINDS) | st.text(max_size=12),
              _PARTIES | st.text(max_size=8)),
).map(",".join)
_SCRIPT_TEXT = st.one_of(st.text(), st.lists(_SCRIPT_ROW, max_size=8).map("\n".join))


@FUZZ
@given(text=_SCRIPT_TEXT)
def test_parse_script_on_arbitrary_text_fails_closed(text):
    try:
        steps = parse_script(text)
    except SdcError:
        return
    assert all(type(s) is ScriptStep and s.tick < 2**64 for s in steps)
