"""Degraded-mode gate: the epoch engine >= 5x the scalar loop.

A warm 1000-disk Streaming-RAID farm loses a disk and rebuilds onto a
slow spare while every stream plays through parity reconstruction —
the state the paper's MTTF/MTTDS results spend their simulated time
in.  The farm, warm-up arc and measured segment live in
:mod:`repro.experiments.degradedbench`, the pair and its verdict in
:mod:`repro.experiments.harness`.  Results land in
``benchmarks/BENCH_degraded.json``::

    python benchmarks/bench_degraded.py     # exits 1 when a gate fails
    pytest benchmarks/bench_degraded.py -s
"""

from __future__ import annotations

import sys

from repro.experiments.degradedbench import run_degraded_gate
from repro.experiments.harness import publish


def test_degraded_speedup_with_equality_guard():
    """Bit-identical degraded state, >= 5x faster with the engine on."""
    failed = publish(__file__, run_degraded_gate())
    assert not failed, failed


if __name__ == "__main__":
    sys.exit(1 if publish(__file__, run_degraded_gate()) else 0)
