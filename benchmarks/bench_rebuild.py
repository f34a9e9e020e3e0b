"""Distributed rebuild gate: declustered vs clustered window at 1000 disks.

One disk of a warm 1000-disk farm fails and rebuilds, under Streaming
RAID and under the parity-declustered layout, each scalar and then
fast-forward with equal full-state digests.  Then the declustered
window must be <= 0.5x the clustered one and its survivor read spread
<= 1.1 (~250 clustered).  The farms and measured segments live in
:mod:`repro.experiments.rebuildbench`, the pairs and their verdicts in
:mod:`repro.experiments.harness`.  Results land in
``benchmarks/BENCH_rebuild.json``::

    python benchmarks/bench_rebuild.py      # exits 1 when a gate fails
    pytest benchmarks/bench_rebuild.py -s
"""

from __future__ import annotations

import sys

from repro.experiments.harness import publish
from repro.experiments.rebuildbench import run_rebuild_gate


def test_declustered_rebuild_window_with_equality_guard():
    """Bit-identical windows per scheme; PD <= 0.5x SR, spread <= 1.1."""
    report = run_rebuild_gate()
    failed = publish(__file__, report)
    assert not failed, (failed, report["windows"])


if __name__ == "__main__":
    sys.exit(1 if publish(__file__, run_rebuild_gate()) else 0)
