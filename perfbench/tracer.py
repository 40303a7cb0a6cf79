"""Spans and counts for the lvcops package, recorded from outside it.

`Tracer.install()` rebinds every public function of the package at every
module attribute that binds it.  The package imports names directly, so
`lvcops.cli.solve` and `lvcops.solver.solve` are two bindings of one
function and both are rebound to one wrapper, named after the module that
defines the function ("solver.solve").  `Graph.grow` is rebound at the class
and only counted.  `uninstall()` restores every binding.

A span is (id, name, start, end, parent id, job id).  Spans stay in memory
until `write_spans`.  A span's self time is its duration minus the time its
child spans cover; children run in the caller's thread one after another,
so that is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "families", "graphs", "engine", "solver", "strategies", "treerank")
# Bit helpers run tens of millions of times inside the transition kernel; a
# wrapper there would cost more than the work it measures.  `bits` is a
# generator as well, so a span would time only its creation.
UNWRAPPED = frozenset({"graphs.bits", "graphs.mask_of"})


def _span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int | None]] = []
        self.counts: Counter = Counter()
        self.solves: list[tuple[int | None, object]] = []  # (job, SolveOutcome)
        self.job: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._grow = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _observe(self, name: str, kwargs, result) -> None:
        c = self.counts
        if name == "solver.solve":
            c["solver.states"] += result.states
            c["solver.waves"] += len(result.wave_sizes)
            c["solver.inconclusive"] += result.winner.value == "inconclusive"
            self.solves.append((self.job, result))
        elif name == "solver.search_witness":
            c["solver.witness.screened"] += result.tried
        elif name == "solver.profile" and any(n == "solver.search_witness" for _, n in self._stack()):
            parts = tuple(kwargs.get("parts", ()))
            c["solver.witness.capture_screen" if parts == ("capture",) else "solver.witness.full_profile"] += 1
        elif name == "engine.play_match":
            c["engine.play_match.rounds"] += result.rounds

    def _wrap(self, fn):
        name = _span_name(fn)
        spans, ids, stack_of, observe = self.spans, self._ids, self._stack, self._observe
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1][0] if stack else 0
            sid = next(ids)
            stack.append((sid, name))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.job))
            observe(name, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from lvcops.graphs import Graph

        wrappers: dict[object, object] = {}
        for short in MODULES:
            mod = importlib.import_module("lvcops." + short)
            for attr, val in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(val)
                    or not val.__module__.startswith("lvcops.")
                    or _span_name(val) in UNWRAPPED
                ):
                    continue
                if val not in wrappers:
                    wrappers[val] = self._wrap(val)
                self._saved.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])

        grow, counter = Graph.grow, self._grow

        def counted_grow(g, mask):
            next(counter)  # atomic under the interpreter lock, unlike += 1
            return grow(g, mask)

        self._saved.append((Graph, "grow", grow))
        Graph.grow = counted_grow

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()
        self.counts["graphs.grow.calls"] = next(self._grow)

    # -- summaries -------------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (time inside the outermost span of each nesting of
        the name) and self_s per span name."""
        child_time: dict[int, float] = defaultdict(float)
        name_of = {}
        parent_of = {}
        for sid, name, t0, t1, parent, _job in self.spans:
            child_time[parent] += t1 - t0
            name_of[sid] = name
            parent_of[sid] = parent
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, name, t0, t1, parent, _job in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            p = parent
            while p and name_of[p] != name:
                p = parent_of[p]
            if not p:
                row["busy_s"] += t1 - t0
        return dict(out)

    def answers(self) -> int:
        """Game numbers and fixed-k results delivered: one per cop_number
        call, plus one per solve that is neither inside cop_number nor in a
        job that already got its number from cop_number."""
        name_of = {sid: name for sid, name, *_ in self.spans}
        number_jobs = {job for _, name, _, _, _, job in self.spans if name == "solver.cop_number"}
        n = 0
        for _sid, name, _t0, _t1, parent, job in self.spans:
            if name == "solver.cop_number":
                n += 1
            elif name == "solver.solve" and name_of.get(parent) != "solver.cop_number" and job not in number_jobs:
                n += 1
        return n

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
