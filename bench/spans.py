"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: each traced function is
replaced, in the namespace its caller looks it up in, by a wrapper that
records one span (name, start, end, parent span) per call.  The spans of
one traced repetition form a run; `end_run` aggregates them per name and
writes them out with their run id.

The benchmark is single-threaded, so one stack gives every span its
parent.  A wrapper costs about a microsecond per call, which is the same
order as the stage functions it wraps, so `calibrate` measures that cost on
a no-op function and self times are reported with it subtracted.
"""

from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class RunStats:
    """Per-name totals of one traced run, in name-id order."""

    calls: np.ndarray
    self_s: np.ndarray
    spans: int


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # parallel columns, cleared in place so the wrappers' bound
        # methods stay valid from run to run
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        # wrapper cost inside a span and outside it, in seconds per call
        self.cost_in = 0.0
        self.cost_out = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        """Return fn wrapped so that every call records one span."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self._name.append, self._parent.append
        add_start, add_end = self._start.append, self._end.append
        ends = self._end
        names = self._name

        def traced(*args, **kwargs):
            idx = len(names)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        """Replace module.attr by its traced wrapper until `unpatch_all`."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name))

    def unpatch_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _clear(self) -> None:
        for col in (self._name, self._parent, self._start, self._end):
            del col[:]
        del self._stack[1:]

    def calibrate(self, calls: int = 20000, rounds: int = 7) -> None:
        """Measure the wrapper's own cost on a four-argument no-op.

        cost_in is the part of the cost that lands inside the span (it is
        subtracted once from every span), cost_out the part outside it (it
        is subtracted from the parent once per child span).
        """

        def noop(a, b, c, d):
            return None

        traced = self.wrap(noop, "trace.noop")
        loop = range(calls)
        empty, direct, wrapped, inside = [], [], [], []
        clock = time.perf_counter
        for _ in range(rounds):
            t0 = clock()
            for _ in loop:
                pass
            empty.append((clock() - t0) / calls)
            t0 = clock()
            for _ in loop:
                noop(1, 2, 3, 4)
            direct.append((clock() - t0) / calls)
            self._clear()
            t0 = clock()
            for _ in loop:
                traced(1, 2, 3, 4)
            wrapped.append((clock() - t0) / calls)
            dur = np.frombuffer(self._end) - np.frombuffer(self._start)
            inside.append(float(dur.mean()))
        self._clear()
        call = statistics.median(direct) - statistics.median(empty)
        extra = statistics.median(wrapped) - statistics.median(direct)
        self.cost_in = statistics.median(inside) - call
        self.cost_out = extra - self.cost_in

    @property
    def cost_per_call(self) -> float:
        return self.cost_in + self.cost_out

    def end_run(self, run_id: int, path: Path) -> RunStats:
        """Aggregate the spans recorded since the last run, then drop them.

        The spans are written to path first, one row per span with its run
        id.  Self time is a span's duration minus its child spans and minus
        the calibrated wrapper cost.
        """
        if len(self._stack) != 1:
            raise RuntimeError("end_run called inside an open span")
        name = np.frombuffer(self._name, dtype=np.uint16).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        start = np.frombuffer(self._start).copy()
        end = np.frombuffer(self._end).copy()
        self._clear()
        np.savez(
            path,
            names=np.array(self.names),
            run=np.full(len(name), run_id, dtype=np.int32),
            name=name,
            parent=parent,
            start=start,
            end=end,
        )
        n = len(name)
        dur = end - start
        child = parent >= 0
        child_dur = np.bincount(parent[child], weights=dur[child], minlength=n)
        n_children = np.bincount(parent[child], minlength=n)
        self_t = dur - child_dur - n_children * self.cost_out - self.cost_in
        k = len(self.names)
        return RunStats(
            calls=np.bincount(name, minlength=k),
            self_s=np.bincount(name, weights=self_t, minlength=k),
            spans=n,
        )
