"""Cluster scale-out gate: near-linear shard scaling, bit-identical.

A 4-shard x 1000-disk cluster (4000 disks, ~10.4k stream capacity, 12k
requests) runs at ``workers=1`` and then over a 4-wide session pool;
the cluster digests must match before the wall-clock ratio counts, and
the >= 3x gate applies only where the host has the cores.  Elsewhere a
2-shard reduced grid still checks the digests.  The specs live in
:mod:`repro.experiments.clusterbench`, the pair and its verdict in
:mod:`repro.experiments.harness`; the report also carries the
cost-per-stream-versus-shard-count curve (the Figure 9 extension).
Results land in ``benchmarks/BENCH_cluster.json``::

    python benchmarks/bench_cluster.py            # full 4x1000-disk config
    python benchmarks/bench_cluster.py --smoke    # 2-shard reduced grid
    pytest benchmarks/bench_cluster.py -s
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.clusterbench import run_cluster_gate
from repro.experiments.harness import POOL_GATE_WORKERS, pool_width, publish


def test_cluster_benchmark():
    """Digest equality always; the 3x gate when the host has the cores."""
    workers = pool_width()
    full = workers >= POOL_GATE_WORKERS
    report = run_cluster_gate(smoke=not full, workers=workers)
    failed = publish(__file__, report)
    assert not failed, failed
    serial = report["pairs"]["scaling"]["reference"]
    if full:
        assert serial["total_disks"] == 4000, serial
        assert serial["admitted"] >= 10_000, serial

    curve = report["cost_per_stream_curve"]
    assert [row["shards"] for row in curve] == [1, 2, 4, 8, 16]
    assert all(row["cost_per_stream"] > 0 for row in curve)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the 2-shard reduced grid")
    parser.add_argument("--workers", type=int, default=POOL_GATE_WORKERS,
                        help="session-pool width for the pooled run")
    args = parser.parse_args()
    sys.exit(1 if publish(__file__, run_cluster_gate(
        smoke=args.smoke, workers=args.workers)) else 0)
