"""CompiledTrace batch construction and windowing."""

from __future__ import annotations

import pytest

from repro.workload.compiler import CompiledTrace

BATCHES = {0: ["m0", "m1"], 3: ["m2"], 5: ["m0", "m3", "m1"]}


def trace() -> CompiledTrace:
    return CompiledTrace.from_batches(BATCHES, cycle_length_s=1.0)


def test_from_batches_preserves_order_and_counts() -> None:
    built = trace()
    assert built.total == len(built) == 6
    assert built.event_cycles() == (0, 3, 5)
    assert built.arrivals_in(0) == ("m0", "m1")
    assert built.arrivals_in(5) == ("m0", "m3", "m1")
    assert built.arrivals_in(4) == ()
    assert built.unarrived_after(5) == 3


def test_from_batches_drops_empty_and_sorts_cycles() -> None:
    built = CompiledTrace.from_batches({7: ["a"], 2: [], 4: ["b"]},
                                       cycle_length_s=0.5)
    assert built.event_cycles() == (4, 7)
    assert built.total == 2


def test_from_batches_rejects_bad_cycles() -> None:
    with pytest.raises(ValueError, match="non-negative integer"):
        CompiledTrace.from_batches({-1: ["a"]}, cycle_length_s=1.0)
    with pytest.raises(ValueError, match="non-negative integer"):
        CompiledTrace.from_batches({1.5: ["a"]}, cycle_length_s=1.0)
    with pytest.raises(ValueError, match="cycle length"):
        CompiledTrace.from_batches({0: ["a"]}, cycle_length_s=0.0)


def test_items_yields_arrival_order_with_half_open_window() -> None:
    built = trace()
    assert built.items() == [(0, "m0"), (0, "m1"), (3, "m2"),
                             (5, "m0"), (5, "m3"), (5, "m1")]
    assert built.items(start=3, end=5) == [(3, "m2")]
    assert built.items(start=5) == [(5, "m0"), (5, "m3"), (5, "m1")]
    assert built.items(end=0) == []
