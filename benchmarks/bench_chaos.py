"""Chaos-campaign cost: one seeded fault storm per scheme.

Not a paper figure — this times the robustness harness itself, so the
fault-domain engine's overhead (state-machine bookkeeping, per-read
media-error handling, data-loss sweeps, degraded-capacity shedding)
stays visible as engineering changes land.  Each round generates and
replays a full campaign script twice (the determinism check) against
the metadata-only server; the payload-mode replay is skipped because
it times byte copying, not the fault engine.

Standalone, the script replays one campaign per scheme on a
1000-disk, 200-stream farm with the scalar loop and with the segmented
fast-forward engine (:mod:`repro.experiments.chaosbench`), writes the
wall-clock to ``benchmarks/BENCH_chaos.json``, and exits non-zero
unless every campaign digest matches::

    python benchmarks/bench_chaos.py [--smoke]

The pytest micro-benchmarks below keep the classic 10-disk chaos
server: they time the fault-domain harness itself, where farm size is
noise.
"""

import argparse
import sys

from repro.experiments.chaosbench import SEED, run_chaos_gate
from repro.experiments.harness import publish
from repro.faults.chaos import ChaosProfile, run_campaign
from repro.schemes import Scheme

PROFILE = ChaosProfile(cycles=30)


def run_chaos(scheme: Scheme) -> None:
    result = run_campaign(scheme, SEED, profile=PROFILE,
                          check_payload_mode=False)
    assert result.passed, result.violations


def bench_chaos(benchmark, scheme: Scheme) -> None:
    benchmark.pedantic(run_chaos, args=(scheme,), rounds=5,
                       warmup_rounds=1)


def test_streaming_raid_chaos_campaign(benchmark):
    bench_chaos(benchmark, Scheme.STREAMING_RAID)


def test_staggered_group_chaos_campaign(benchmark):
    bench_chaos(benchmark, Scheme.STAGGERED_GROUP)


def test_non_clustered_chaos_campaign(benchmark):
    bench_chaos(benchmark, Scheme.NON_CLUSTERED)


def test_improved_bandwidth_chaos_campaign(benchmark):
    bench_chaos(benchmark, Scheme.IMPROVED_BANDWIDTH)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="shorter campaigns for CI smoke runs")
    args = parser.parse_args()
    report = run_chaos_gate(cycles=30 if args.smoke else 60)
    sys.exit(1 if publish(__file__, report) else 0)
