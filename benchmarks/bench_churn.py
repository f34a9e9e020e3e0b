"""VoD churn gate: the churn engine >= 3x the scalar loop, bit-identical,
at a host cost per cycle that stays flat in the run length.

A 1000-disk Streaming-RAID farm under ~30 Zipf/Poisson arrivals per
cycle against a 600-stream limit; the farm, trace, measured segment,
the 300- vs 2,400-cycle scaling pair and its scalar twin (reported, not
gated) live in :mod:`repro.experiments.churnbench`, the engine pair and
its verdict in :mod:`repro.experiments.harness`.  Results land in
``benchmarks/BENCH_churn.json``::

    python benchmarks/bench_churn.py        # exits 1 when a gate fails
    pytest benchmarks/bench_churn.py -s
"""

from __future__ import annotations

import sys

from repro.experiments.churnbench import run_churn_gate
from repro.experiments.harness import publish


def test_churn_speedup_with_equality_guards():
    """Byte-identical trace, bit-identical state, >= 3x faster, and the
    long run's cost per cycle within 1.5x of the short run's."""
    report = run_churn_gate()
    failed = publish(__file__, report)
    scalar, churn = (report["pairs"]["churn"][side]
                     for side in ("reference", "candidate"))
    assert scalar["trace_sha256"] == churn["trace_sha256"], (
        "trace digests diverge: the two runs did not consume the same "
        "request trace")
    assert scalar["rejected"] > 0, "trace never saturated the front door"
    for side in ("reference", "candidate"):
        assert (report["scalar_scaling"][side]["state_sha256"]
                == report["pairs"]["scaling"][side]["state_sha256"]), (
            "the scalar twin's state diverges from the engine's")
    assert not failed, failed


if __name__ == "__main__":
    sys.exit(1 if publish(__file__, run_churn_gate()) else 0)
