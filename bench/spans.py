"""Span tracing for the traced benchmark run, installed from outside sdcsim.

`Tracer.install()` replaces public functions of each sdcsim layer with
wrappers that record a span (name, start, end, parent) per call, and
`uninstall()` puts the originals back, so untraced operations in the same
process run the unmodified code. Spans live in flat arrays and are folded
into per-layer totals after each operation.

Where a wrapper goes matters:

  * the flat-curve pricer is re-registered with `register_pricer`, because
    the registry holds a direct reference to the function;
  * names bound by `from .x import y` are patched in the module that looks
    them up (`simulator.settlement_amount`, `cli.run_simulation`, ...);
  * agent hooks are patched on each policy class's own `on_tick`.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


def self_times(parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap: the children's durations are the part they cover.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    child = parents >= 0
    covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
    return dur - covered.astype(np.int64)


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # span name per name id
        self._ids: dict[str, int] = {}
        self._group: list[str] = []      # nesting group per name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # outcome counts noted by wrappers
        self._undo: list = []            # callables restoring what install() replaced
        self._last: tuple = ()           # spans of the last folded operation, for dump()

    # -- recording --

    def _name_id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._group.append(group)
        return self._ids[name]

    def wrap(self, name: str, fn, group: str | None = None, note=None):
        """Span-recording stand-in for `fn`.

        A call made while a span of the same `group` is innermost records
        nothing, so a policy hook calling its base class, or one contract
        method calling another, counts as one entry into the layer.
        `note(counts, args, result)` may count outcomes of the call.
        """
        name_id = self._name_id(name, group or name)
        groups = self._group
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            top = stack[-1] if stack else -1
            if top >= 0 and groups[names[top]] == groups[name_id]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(top)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if note is not None:
                note(self.counts, args, result)
            return result

        return traced

    def clear(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()

    # -- installing wrappers --

    def _patch(self, owner, attr: str, name: str, group: str | None = None, note=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, group, note))
        else:
            replacement = self.wrap(name, raw, group, note)
        self._undo.append(lambda: setattr(owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from sdcsim import cli, contract, journal, ledger, scheduler, simulator, valuation

        p = self._patch
        p(journal.Journal, "append", "journal.append")
        p(journal.EventRecord, "to_bytes", "journal.encode")
        p(journal.Journal, "records", "journal.records")
        p(journal.Journal, "verify", "journal.verify")
        p(journal.Journal, "load", "journal.load",
          note=lambda c, args, result: c.update({"journal.blocks_loaded": len(result)}))

        for method in ("open_account", "mint", "burn", "transfer", "approve",
                       "transfer_from", "lock_segregated", "release_segregated"):
            p(ledger.Ledger, method, "ledger.op", group="ledger")

        p(scheduler.Engine, "run", "scheduler.run")
        p(scheduler.Engine, "request_event", "scheduler.request",
          note=lambda c, args, result: c.update({"scheduler.accepted": int(result.accepted)}))
        clock = journal.Clock.__dict__["advance_to"]

        def advance_to(self_, tick):
            self.counts["scheduler.ticks"] += 1
            return clock(self_, tick)
        self._undo.append(lambda: setattr(journal.Clock, "advance_to", clock))
        journal.Clock.advance_to = advance_to

        for cls in (simulator.CompliantAgent, simulator.DefaultingAgent, simulator.WillfulAgent):
            p(cls, "on_tick", "simulator.agent")
        p(simulator, "generate_path", "simulator.path")
        p(simulator, "load_path_csv", "simulator.path")
        p(simulator, "normal_variates", "simulator.normal_variates")
        p(cli, "run_simulation", "simulator.run")
        p(simulator, "calibrate_buffer", "simulator.calibrate",
          note=lambda c, args, result: c.update({"simulator.trials": args[2]}))

        price = valuation.get_pricer(valuation.PRICER_FLAT_CURVE_V1)
        valuation.register_pricer(valuation.PRICER_FLAT_CURVE_V1,
                                  self.wrap("valuation.price", price))
        self._undo.append(lambda: valuation.register_pricer(valuation.PRICER_FLAT_CURVE_V1, price))
        p(valuation.MarginOracle, "query", "valuation.oracle")
        p(valuation, "settlement_amount", "valuation.settlement_amount")
        p(simulator, "settlement_amount", "valuation.settlement_amount")
        p(simulator, "margin_buffer", "valuation.margin_buffer")

        for method in ("initialize", "deposit_margin", "withdraw_margin", "deposit_fee",
                       "withdraw_fee", "close_accounts", "margin_check", "deliver_valuation",
                       "return_fees", "mark_error"):
            p(contract.ContractInstance, method, "contract.call", group="contract")
        p(contract.ContractInstance, "settle", "contract.settle", group="contract")

        p(cli, "build_parser", "cli.parse")
        p(cli, "load_scenario", "cli.parse")
        p(cli, "write_report", "cli.export")
        p(journal.Journal, "export", "cli.export")
        p(ledger.Ledger, "export_csv", "cli.export")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- folding spans into totals --

    def fold(self, totals: Counter) -> None:
        """Add this tracer's spans and counts into `totals`, then clear."""
        self._last = tuple(array(a.typecode, a) for a in (
            self.span_name, self.span_parent, self.span_start, self.span_end))
        totals.update(self.counts)
        self.clear()
        name_ids, parents, starts, ends = (np.frombuffer(a, dtype=a.typecode)
                                           for a in self._last)
        dur = ends - starts
        own = self_times(parents, starts, ends)
        for name_id, name in enumerate(self.names):
            mask = name_ids == name_id
            totals[f"{name}.calls"] += int(mask.sum())
            totals[f"{name}.total_ns"] += int(dur[mask].sum())
            totals[f"{name}.self_ns"] += int(own[mask].sum())
        totals["simulator.agent.useful"] += self._ancestors_with(
            "simulator.agent", "ledger.op", name_ids, parents)
        totals["valuation.oracle.computed"] += self._ancestors_with(
            "valuation.oracle", "journal.append", name_ids, parents)

    def _ancestors_with(self, ancestor: str, descendant: str, name_ids, parents) -> int:
        """How many `ancestor` spans enclose at least one `descendant` span."""
        if ancestor not in self._ids or descendant not in self._ids:
            return 0
        want = self._ids[ancestor]
        found = set()
        for idx in np.flatnonzero(name_ids == self._ids[descendant]):
            up = parents[idx]
            while up >= 0 and name_ids[up] != want:
                up = parents[up]
            if up >= 0:
                found.add(int(up))
        return len(found)

    def dump(self, path) -> None:
        """Write the last folded operation's spans as CSV:
        index,parent,name,start_ns,end_ns (parent -1 for a root span)."""
        with open(path, "w") as out:
            out.write("index,parent,name,start_ns,end_ns\n")
            for i, (name_id, parent, start, end) in enumerate(zip(*self._last)):
                out.write(f"{i},{parent},{self.names[name_id]},{start},{end}\n")
