"""Deterministic-parallelism gates: pool speedup and epoch fast-forward.

Two pairs, both behind bit-equality (see
:func:`repro.experiments.scalegrid.run_parallel_gates`): the scale-grid
sweep serial vs a spawn pool, with equal grid digests (>= 2.5x only
where the host has 4 CPUs and the pool is 4 wide), and a 1000-disk
steady-state Streaming-RAID segment scalar vs fast-forward, with equal
state digests and >= 5x.  Results land in
``benchmarks/BENCH_parallel.json``::

    python benchmarks/bench_parallel.py [--workers N]   # exits 1 on failure
    pytest benchmarks/bench_parallel.py -s
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.harness import pool_width, publish
from repro.experiments.scalegrid import run_parallel_gates


def test_parallel_benchmark():
    """Digest equality always; speedups gated on what the host can show."""
    failed = publish(__file__, run_parallel_gates(pool_width()))
    assert not failed, failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="pool width for the ensemble measurement")
    args = parser.parse_args()
    sys.exit(1 if publish(__file__, run_parallel_gates(args.workers))
             else 0)
