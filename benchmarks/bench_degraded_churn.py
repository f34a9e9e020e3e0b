"""Degraded-churn gate: faults and arrivals at once, >= 5x, bit-identical.

A warm 1000-disk Streaming-RAID farm loses a disk, then faces 30
arrivals per cycle for 150 cycles; a second, smaller arc with two
failures in disjoint parity groups must keep ``ff_residency > 0``.
Both scenarios live in :mod:`repro.experiments.degradedbench`, the
pairs and their verdicts in :mod:`repro.experiments.harness`.  Results
land in ``benchmarks/BENCH_degraded_churn.json``::

    python benchmarks/bench_degraded_churn.py   # exits 1 when a gate fails
    pytest benchmarks/bench_degraded_churn.py -s
"""

from __future__ import annotations

import sys

from repro.experiments.degradedbench import run_degraded_churn_gate
from repro.experiments.harness import publish


def test_degraded_churn_speedup_with_equality_guard():
    """Bit-identical state and tallies, >= 5x; the arc stays engaged."""
    failed = publish(__file__, run_degraded_churn_gate())
    assert not failed, failed


if __name__ == "__main__":
    sys.exit(1 if publish(__file__, run_degraded_churn_gate()) else 0)
