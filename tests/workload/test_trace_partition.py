"""CompiledTrace bucketing and windowing."""

from __future__ import annotations

import pytest

from repro.workload.compiler import CompiledTrace
from repro.workload.generator import StreamRequest

#: (arrival time in seconds, title) in arrival order: cycles 0, 3 and 5
#: on a one-second cycle.
REQUESTS = ((0.1, "m0"), (0.7, "m1"), (3.2, "m2"),
            (5.0, "m0"), (5.4, "m3"), (5.9, "m1"))


def trace() -> CompiledTrace:
    return CompiledTrace([StreamRequest(t, name) for t, name in REQUESTS],
                         1.0)


def test_trace_preserves_order_and_counts() -> None:
    built = trace()
    assert built.total == len(built) == 6
    assert built.event_cycles() == (0, 3, 5)
    assert built.arrivals_in(0) == ("m0", "m1")
    assert built.arrivals_in(5) == ("m0", "m3", "m1")
    assert built.arrivals_in(4) == ()
    assert built.unarrived_after(5) == 3


def test_trace_rejects_a_non_positive_cycle_length() -> None:
    with pytest.raises(ValueError, match="cycle length"):
        CompiledTrace([StreamRequest(0.0, "a")], cycle_length_s=0.0)


def test_items_yields_arrival_order_with_half_open_window() -> None:
    built = trace()
    assert built.items() == [(0, "m0"), (0, "m1"), (3, "m2"),
                             (5, "m0"), (5, "m3"), (5, "m1")]
    assert built.items(start=3, end=5) == [(3, "m2")]
    assert built.items(start=5) == [(5, "m0"), (5, "m3"), (5, "m1")]
    assert built.items(end=0) == []
