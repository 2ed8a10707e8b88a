"""Spans at fuzzchain's module boundaries, for the traced benchmark run.

:class:`Tracer` wraps every public function of the layer modules and, while
installed, puts the wrapper in place of the function in every ``fuzzchain``
namespace that refers to it.  A call from one module into another then
passes through a wrapper that records a span: name, start, end, parent
span and op id.  The spans stay in memory, in flat arrays, until
:meth:`Recorder.dump` writes them out after the run.  Nothing under
``src/`` changes, and leaving :meth:`Tracer.installed` puts the original
functions back.

A layer's self time is its spans' durations minus the parts their child
spans cover.  Times are integer nanoseconds, so self times are exact.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

LAYERS = ("systems", "algebra", "chains", "closure", "recursion", "oracles", "checks", "cli")

# Called once per grade, identifier or matrix cell: a span each would cost
# more than the work it measures.
PRIMITIVES = frozenset({"tnorm_min", "snorm_max", "is_identifier", "check_grade", "cell_text"})

ROOT = "op"  # name of the span the harness opens around each operation


def _text_bytes(args: tuple, result: Any) -> int:
    return len(args[0].encode("utf-8"))


# (layer, function) -> [(counter, amount from the call's arguments and result)]
COUNTERS: dict[tuple[str, str], list[tuple[str, Callable[[tuple, Any], int]]]] = {
    ("chains", "enumerate_chains"): [("chains.chains_out", lambda a, r: len(r))],
    ("recursion", "symbolic_expand"): [("recursion.expand_terms", lambda a, r: len(r.terms))],
    ("recursion", "trace_eval"): [("recursion.trace_events", lambda a, r: len(r.events))],
    ("closure", "warshall_closure"): [("closure.cells", lambda a, r: len(a[0]) ** 2)],
    ("systems", "parse_registry"): [("systems.parse_bytes", _text_bytes)],
    ("systems", "parse_assignment"): [("systems.parse_bytes", _text_bytes)],
    ("algebra", "canonicalize"): [
        ("algebra.canon_in", lambda a, r: len(a[0].terms)),
        ("algebra.canon_kept", lambda a, r: len(r.terms)),
    ],
}


class Recorder:
    """Spans in flat arrays, plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names = [ROOT]
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.tally: Counter[str] = Counter()
        self.op_id = -1  # the harness counts ops up from 0

    def __len__(self) -> int:
        return len(self.fn)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, fid: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter_ns()
        # Spans above idx are still open only if an exception skipped their
        # close; they end with their parent.
        while self.stack:
            top = self.stack.pop()
            self.end[top] = now
            if top == idx:
                break

    def self_ns(self) -> list[int]:
        """Each span's duration minus its children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def dump(self, prefix: Path) -> None:
        """Write ``<prefix>.bin``, the columns back to back in native byte
        order, and ``<prefix>.json``, the span names and column layout."""
        columns = ("fn", "parent", "op", "start", "end")
        with open(prefix.with_suffix(".bin"), "wb") as out:
            for column in columns:
                getattr(self, column).tofile(out)
        layout = {
            "spans": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "time_unit": "ns",
            "names": self.names,
        }
        prefix.with_suffix(".json").write_text(json.dumps(layout), encoding="utf-8")


def _traced(fn: Callable, fid: int, rec: Recorder, counters: list) -> Callable:
    def traced(*args, **kwargs):
        idx = rec.open(fid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        for name, amount in counters:
            rec.tally[name] += amount(args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


class Tracer:
    """Wrappers for every layer function, swapped in and out on demand.

    The wrappers are built once; :meth:`installed` puts them in place of
    the originals in every ``fuzzchain`` namespace that refers to them, and
    puts the originals back on exit.
    """

    def __init__(self, rec: Recorder) -> None:
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fuzzchain.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in PRIMITIVES
                ):
                    counters = COUNTERS.get((layer, name), [])
                    wrappers[obj] = _traced(obj, rec.name_id(f"{layer}.{name}"), rec, counters)
        self.sites: list[tuple[Any, str, Callable, Callable]] = []
        for modname, module in list(sys.modules.items()):
            if modname != "fuzzchain" and not modname.startswith("fuzzchain."):
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self.sites.append((module, name, obj, wrappers[obj]))

    @contextmanager
    def installed(self) -> Iterator[None]:
        for module, name, _, wrapper in self.sites:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original, _ in self.sites:
                setattr(module, name, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer calls and self time, plus the boundary counters."""
    own = rec.self_ns()
    layer_of = [name.split(".", 1)[0] for name in rec.names]
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    generate_ns = 0
    for fid, ns in zip(rec.fn, own):
        layer = layer_of[fid]
        calls[layer] += 1
        self_ns[layer] += ns
        if rec.names[fid].startswith("checks.random_"):
            generate_ns += ns
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    out["chains.chains_out"] = rec.tally["chains.chains_out"]
    out["recursion.expand_terms"] = rec.tally["recursion.expand_terms"]
    out["recursion.trace_events"] = rec.tally["recursion.trace_events"]
    out["closure.cells"] = rec.tally["closure.cells"]
    out["systems.parse_bytes"] = rec.tally["systems.parse_bytes"]
    canon_in = rec.tally["algebra.canon_in"]
    kept = rec.tally["algebra.canon_kept"]
    out["algebra.canon_kept_ratio"] = kept / canon_in if canon_in else 0.0
    out["checks.generate_s"] = generate_ns / 1e9
    return out
