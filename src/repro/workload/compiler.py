"""Compile a request trace into per-cycle arrival batches, once.

``run_workload`` used to re-derive each request's arrival cycle inside
the per-cycle loop.  A :class:`CompiledTrace` does that work a single
time up front: requests are bucketed by arrival cycle into name batches,
ready for batch admission, and the bucket keys double as the *churn
event cycles* the fast-forward engine segments its epochs at.

The compiled form also settles the accounting question the scalar
runner fudged: requests arriving beyond the simulated horizon are
neither admitted nor rejected — they are **unarrived**, and
:meth:`CompiledTrace.unarrived_after` counts them explicitly.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from repro.workload.generator import StreamRequest


class CompiledTrace:
    """Per-cycle arrival batches for a time-ordered request trace."""

    __slots__ = ("cycle_length_s", "total", "_batches", "_cycles")

    def __init__(self, requests: Iterable[StreamRequest],
                 cycle_length_s: float) -> None:
        if cycle_length_s <= 0:
            raise ValueError(
                f"cycle length must be positive, got {cycle_length_s}")
        self.cycle_length_s = cycle_length_s
        batches: dict[int, list[str]] = {}
        total = 0
        previous = float("-inf")
        for request in requests:
            if request.arrival_time_s < previous:
                raise ValueError(
                    "trace is not time-ordered at "
                    f"t={request.arrival_time_s}")
            previous = request.arrival_time_s
            cycle = request.arrival_cycle(cycle_length_s)
            batches.setdefault(cycle, []).append(request.object_name)
            total += 1
        self.total = total
        self._batches: dict[int, tuple[str, ...]] = {
            cycle: tuple(names) for cycle, names in batches.items()
        }
        self._cycles: tuple[int, ...] = tuple(sorted(self._batches))

    def event_cycles(self) -> tuple[int, ...]:
        """Cycles with at least one arrival, ascending (churn events)."""
        return self._cycles

    def items(self, start: Optional[int] = None,
              end: Optional[int] = None) -> list[tuple[int, str]]:
        """``(cycle, name)`` pairs in arrival order, optionally windowed.

        ``start``/``end`` bound the arrival cycle (half-open, like
        ``range``); the order is ascending cycle, then batch order.
        """
        return [(cycle, name)
                for cycle in self._cycles
                if (start is None or cycle >= start)
                and (end is None or cycle < end)
                for name in self._batches[cycle]]

    def arrivals_in(self, cycle: int) -> tuple[str, ...]:
        """Object names requested during ``cycle``, in arrival order."""
        return self._batches.get(cycle, ())

    def arrivals_before(self, cycle: int) -> int:
        """How many requests arrive in cycles ``0 .. cycle - 1``."""
        return sum(len(self._batches[c]) for c in self._cycles if c < cycle)

    def unarrived_after(self, cycles: int) -> int:
        """Requests whose arrival cycle falls at or beyond ``cycles``.

        These never reached the front door during a ``cycles``-long run,
        so they belong in neither the admitted nor the rejected count.
        """
        return self.total - self.arrivals_before(cycles)

    def digest(self) -> str:
        """sha256 over (cycle, name) pairs — the trace-equality guard."""
        hasher = hashlib.sha256()
        for cycle in self._cycles:
            for name in self._batches[cycle]:
                hasher.update(f"{cycle}:{name}\n".encode("utf-8"))
        return hasher.hexdigest()

    def __len__(self) -> int:
        return self.total


def compile_trace(requests: Sequence[StreamRequest],
                  cycle_length_s: float) -> CompiledTrace:
    """Bucket a request trace by arrival cycle (see :class:`CompiledTrace`)."""
    return CompiledTrace(requests, cycle_length_s)
