"""VoD churn gate: the churn engine >= 3x the scalar loop, bit-identical.

A 1000-disk Streaming-RAID farm under ~30 Zipf/Poisson arrivals per
cycle against a 600-stream limit; the farm, trace and measured segment
live in :mod:`repro.experiments.churnbench`, the pair and its verdict in
:mod:`repro.experiments.harness`.  Results land in
``benchmarks/BENCH_churn.json``::

    python benchmarks/bench_churn.py        # exits 1 when a gate fails
    pytest benchmarks/bench_churn.py -s
"""

from __future__ import annotations

import sys

from repro.experiments.churnbench import run_churn_gate
from repro.experiments.harness import publish


def test_churn_speedup_with_equality_guards():
    """Byte-identical trace, bit-identical state, >= 3x faster."""
    report = run_churn_gate()
    failed = publish(__file__, report)
    scalar, churn = (report["pairs"]["churn"][side]
                     for side in ("reference", "candidate"))
    assert scalar["trace_sha256"] == churn["trace_sha256"], (
        "trace digests diverge: the two runs did not consume the same "
        "request trace")
    assert scalar["rejected"] > 0, "trace never saturated the front door"
    assert not failed, failed


if __name__ == "__main__":
    sys.exit(1 if publish(__file__, run_churn_gate()) else 0)
