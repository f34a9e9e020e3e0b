"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

A :class:`Tracer` replaces the public functions of each simulator layer
with thin wrappers that open a span on entry and close it on exit.  A span
is ``(name, start, end, parent)``; the spans stay in memory (compact
``array`` columns) and are written out when the run ends.  A layer's
*self time* is its span duration minus the time covered by its child
spans, accumulated online so the summary needs no second pass.

Per-read functions (``Disk.read`` and friends) are deliberately not
wrapped: millions of wrapped calls would distort the very proportions the
trace exists to show.  Their counts come from the simulator's own
counters instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import ExitStack, contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: Span name -> (module, qualified attribute) of the wrapped callable.
LAYER_SPANS: dict[str, tuple[str, str]] = {
    "workload.trace": ("repro.workload.generator", "WorkloadGenerator.trace"),
    "workload.compile": ("repro.workload.compiler", "compile_trace"),
    "server.build": ("repro.server.server", "MultimediaServer.build"),
    "server.run_workload": ("repro.server.server",
                            "MultimediaServer.run_workload"),
    "server.metrics.record": ("repro.server.metrics",
                              "SimulationReport.record"),
    "server.admission.fault_aware_capacity": ("repro.server.admission",
                                              "fault_aware_capacity"),
    "sched.run_churn": ("repro.sched.base", "CycleScheduler.run_churn"),
    "sched.run_cycle": ("repro.sched.base", "CycleScheduler.run_cycle"),
    "sched.run_epoch": ("repro.sched.base", "CycleScheduler.run_epoch"),
    "sched.admit": ("repro.sched.base", "CycleScheduler.admit"),
    "sched.admit_batch": ("repro.sched.base", "CycleScheduler.admit_batch"),
    "sched.slots.resolve": ("repro.sched.slots", "SlotTable.resolve"),
    "sched.slots.idle_slots": ("repro.sched.slots", "SlotTable.idle_slots"),
    "sched.rebuild.run_step": ("repro.sched.rebuild",
                               "OnlineRebuilder.run_step"),
    "sched.rebuild.fast_step": ("repro.sched.rebuild",
                                "OnlineRebuilder.fast_step"),
    "sched.rebuild.prepare_fast_plan": ("repro.sched.rebuild",
                                        "OnlineRebuilder.prepare_fast_plan"),
    "layout.group_geometry": ("repro.layout.base",
                              "DataLayout.group_geometry"),
    "buffers.sample": ("repro.buffers.tracker", "BufferTracker.sample"),
    "buffers.fold_epoch": ("repro.buffers.tracker",
                           "BufferTracker.fold_epoch"),
    "faults.generate_script": ("repro.faults.chaos", "generate_script"),
    "faults.replay": ("repro.faults.chaos", "replay"),
    "faults.apply": ("repro.faults.injector", "FaultSchedule.apply"),
    "faults.scrub_step": ("repro.faults.domain", "SectorScrubber.step"),
    "cluster.run": ("repro.cluster.runner", "run_cluster"),
    "cluster.route_window": ("repro.cluster.router",
                             "ClusterRouter.route_window"),
    "cluster.shard_window": ("repro.cluster.shard", "run_shard_window"),
    "parallel.open": ("repro.parallel", "SessionPool.__init__"),
    "parallel.step_all": ("repro.parallel", "SessionPool.step_all"),
}


def resolve(module: str, qualname: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted ``Class.method`` or function."""
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(owner: Any, attr: str,
            make: Callable[[Callable[..., Any]], Callable[..., Any]],
            ) -> Iterator[None]:
    """Temporarily replace ``owner.attr`` by ``make(original)``.

    Module-level functions are rebound in every loaded module that
    imported them by name (``from x import f``), so callers that hold
    their own reference see the wrapper too.  Classmethods keep their
    descriptor.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else raw
    wrapper = functools.wraps(original)(make(original))
    replacement = classmethod(wrapper) if is_classmethod else wrapper
    rebound: list[Any] = [owner]
    if not isinstance(owner, type):
        rebound.extend(
            module for module in list(sys.modules.values())
            if module is not owner
            and getattr(module, attr, None) is original)
    for holder in rebound:
        setattr(holder, attr, replacement)
    try:
        yield
    finally:
        for holder in rebound:
            setattr(holder, attr, raw)


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        #: Indices of the open spans, innermost last, and the child time
        #: each has accumulated so far.
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: Return values of the wrapped calls named in ``capture``.
        self.captured: dict[str, list[Any]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
        return self._ids[name]

    def _wrapper(self, name: str, capture: bool,
                 ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        name_id = self._id(name)
        sink = self.captured.setdefault(name, []) if capture else None

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = self._stack
                # A same-named re-entry (an override calling super())
                # stays inside the outer span.
                if stack and self._name[stack[-1]] == name_id:
                    return fn(*args, **kwargs)
                self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(name_id)
                if sink is not None:
                    sink.append(result)
                return result
            return wrapper
        return make

    def _open(self, name_id: int) -> None:
        self._stack.append(len(self._start))
        self._child_ns.append(0)
        self._name.append(name_id)
        self._parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self._end.append(0)
        self._start.append(perf_counter_ns())

    def _close(self, name_id: int) -> None:
        end = perf_counter_ns()
        index = self._stack.pop()
        child = self._child_ns.pop()
        duration = end - self._start[index]
        self._end[index] = end
        name = self.names[name_id]
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if self._child_ns:
            self._child_ns[-1] += duration

    @contextmanager
    def installed(self, spans: dict[str, tuple[str, str]],
                  capture: tuple[str, ...] = ()) -> Iterator["Tracer"]:
        """Wrap every listed layer function for the ``with`` body."""
        with ExitStack() as stack:
            for name, (module, qualname) in spans.items():
                owner, attr = resolve(module, qualname)
                stack.enter_context(patched(
                    owner, attr, self._wrapper(name, name in capture)))
            yield self

    def durations_ns(self, name: str) -> list[int]:
        """Wall durations of every closed span with this name, in order."""
        name_id = self._ids.get(name)
        if name_id is None:
            return []
        return [end - start for nid, start, end
                in zip(self._name, self._start, self._end)
                if nid == name_id]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time in seconds."""
        return {name: {"calls": self.calls[name],
                       "self_s": self.self_ns[name] / 1e9}
                for name in self.names}

    def record(self, label: str) -> dict[str, Any]:
        """Every span as one JSON-ready run record; ``parent`` is the
        index of the enclosing span, -1 at the top."""
        return {
            "label": label,
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [list(row) for row in zip(self._name, self._start,
                                               self._end, self._parent)],
        }


def coverage(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """How much of ``wall_s`` the named spans' self times account for."""
    covered = sum(tracer.self_ns.values()) / 1e9
    return {"coverage": covered / wall_s, "untraced_s": wall_s - covered}
