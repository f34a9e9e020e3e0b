"""Degraded-mode benchmark cells: the epoch engine through faults.

Two gates share one farm — a warm 1000-disk Streaming-RAID farm, one
stream per disk, that loses a disk and settles into the paper's
single-failure degraded steady state, which dominates the simulated
time of every reliability experiment:

* ``benchmarks/bench_degraded.py`` starts an online rebuild onto a slow
  spare and times 150 cycles of it, every stream playing through
  parity reconstruction;
* ``benchmarks/bench_degraded_churn.py`` instead faces the degraded
  farm with 30 arrivals every cycle for 150 cycles — the "degraded +
  churning" state of replication studies and flash-crowd campaigns.
  (No rebuild runs in that segment: a toy farm rebuilds in a couple
  dozen cycles and would spend the rest of the segment healthy; the
  rebuild-under-churn merge is covered bit-exactly by the determinism
  tests.)

Each measured segment runs through the scalar per-cycle loop and
through the epoch engine, and the >= 5x wall-clock gate is evaluated
only after the full-state digests (cycle rows, per-disk read *and*
write counters, stream pointers and buffers, rebuild cursor) and the
admit/reject tallies prove the two runs bit-identical.  The warm-up
runs in the same mode as the measured segment, so the fast cell enters
the timed window with its geometry and degraded tables warm — the
gates measure steady-state degraded throughput, not one-time cache
population.

A third, smaller arc exercises the multi-failure generalisation: two
failed disks in *disjoint* parity groups under churn must still build
vectorised epochs (``ff_residency > 0``).

:func:`degraded_digest` (the harness's state digest) keeps this
module's import path for the end-to-end benchmark.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.harness import (
    Record,
    Stopwatch,
    degraded_digest as degraded_digest,
    engine_record,
    load_one_stream_per_disk,
    run_pair,
)
from repro.experiments.scalegrid import build_scale_server
from repro.schemes import Scheme

NUM_DISKS = 1000
SCHEME = Scheme.STREAMING_RAID
#: Cycles before the failure lands (stream start-up transient).
WARMUP_CYCLES = 5
#: Degraded steady-state cycles before the measured segment.
DEGRADED_WARMUP_CYCLES = 3
#: The measured segment: degraded steady state throughout.
CYCLES = 150
FAILED_DISK = 0
#: Slow spare, so the rebuild spans a realistic slice of the segment.
REBUILD_WRITES_PER_CYCLE = 1
#: Requests per cycle, sustained over the degraded-churn segment.
ARRIVALS_PER_CYCLE = 30
MIN_SPEEDUP = 5.0

#: The double-failure arc runs on a smaller farm: residency, not
#: wall-clock, is what it gates.
ARC_DISKS = 200
ARC_CYCLES = 40
ARC_ARRIVALS_PER_CYCLE = 4


def degraded_farm(fast_forward: bool) -> tuple[Any, int, float]:
    """The warm degraded farm: ``(server, streams, build seconds)``.

    The build time covers construction and loading; the warm-up arc —
    five cycles, the failure, three degraded cycles — is untimed.
    """
    with Stopwatch() as build:
        server = build_scale_server(SCHEME, NUM_DISKS)
        streams = load_one_stream_per_disk(server)
    server.run_cycles(WARMUP_CYCLES, fast_forward=fast_forward)
    server.scheduler.fail_disk(FAILED_DISK)
    server.run_cycles(DEGRADED_WARMUP_CYCLES, fast_forward=fast_forward)
    return server, streams, build.seconds


def run_degraded_cell(fast_forward: bool) -> Record:
    """bench_degraded's run: start the rebuild, time the rest."""
    server, streams, build_s = degraded_farm(fast_forward)
    rebuilder = server.scheduler.start_rebuild(
        FAILED_DISK, writes_per_cycle=REBUILD_WRITES_PER_CYCLE)
    with Stopwatch() as run:
        server.run_cycles(CYCLES, fast_forward=fast_forward)
    return engine_record(
        server, fast_forward, run.seconds, scheme=SCHEME.value,
        num_disks=NUM_DISKS, streams=streams, cycles=CYCLES,
        rebuild_blocks=rebuilder.total_blocks,
        rebuild_completed=rebuilder.completed, build_s=build_s)


def churn_arrivals(server: Any, start: int, cycles: int,
                   per_cycle: int) -> dict[int, tuple[Any, ...]]:
    """A deterministic round-robin arrival batch for every cycle."""
    names = server.catalog.names()
    arrivals: dict[int, tuple[Any, ...]] = {}
    for offset in range(cycles):
        base = offset * per_cycle
        arrivals[start + offset] = tuple(
            server.catalog.get(names[(base + k) % len(names)])
            for k in range(per_cycle))
    return arrivals


def run_degraded_churn_cell(fast_forward: bool) -> Record:
    """bench_degraded_churn's run: time the churn on the degraded farm."""
    server, streams, build_s = degraded_farm(fast_forward)
    arrivals = churn_arrivals(server, server.cycle_index, CYCLES,
                              ARRIVALS_PER_CYCLE)
    with Stopwatch() as run:
        reports, admitted, rejected = server.scheduler.run_churn(
            CYCLES, arrivals, fast_forward=fast_forward)
    assert len(reports) == CYCLES
    return engine_record(
        server, fast_forward, run.seconds, scheme=SCHEME.value,
        num_disks=NUM_DISKS, streams=streams, cycles=CYCLES,
        arrivals_per_cycle=ARRIVALS_PER_CYCLE, admitted=admitted,
        rejected=rejected, build_s=build_s)


def _disjoint_partner(server: Any, first: int) -> int:
    """A second disk whose failure loses no data alongside ``first``."""
    for candidate in range(len(server.array.disks)):
        if candidate == first:
            continue
        probe = build_scale_server(SCHEME, len(server.array.disks))
        probe.scheduler.fail_disk(first)
        probe.scheduler.fail_disk(candidate)
        if not probe.scheduler._known_lost_tracks:
            return candidate
    raise RuntimeError("no disjoint failure partner in this layout")


def run_double_failure_arc(fast_forward: bool = True) -> Record:
    """Two disjoint failures under churn: the multi-failure epoch arc.

    Small on purpose — the gate here is residency (the engine builds
    >= 1 vectorised epoch) and equality with the scalar loop, not
    wall-clock.
    """
    server = build_scale_server(SCHEME, ARC_DISKS)
    partner = _disjoint_partner(server, FAILED_DISK)
    for name in server.catalog.names():
        server.admit(name)
    server.run_cycles(WARMUP_CYCLES, fast_forward=fast_forward)
    server.scheduler.fail_disk(FAILED_DISK)
    server.scheduler.fail_disk(partner)
    arrivals = churn_arrivals(server, server.cycle_index + 2, ARC_CYCLES,
                              ARC_ARRIVALS_PER_CYCLE)
    with Stopwatch() as run:
        reports, admitted, rejected = server.scheduler.run_churn(
            ARC_CYCLES, arrivals, fast_forward=fast_forward)
    assert len(reports) == ARC_CYCLES
    return engine_record(
        server, fast_forward, run.seconds, num_disks=ARC_DISKS,
        failed_disks=[FAILED_DISK, partner], cycles=ARC_CYCLES,
        admitted=admitted, rejected=rejected)


def run_degraded_gate() -> Record:
    """bench_degraded: the rebuild segment, scalar then fast."""
    return {"pairs": {"degraded": run_pair(
        "degraded", run_degraded_cell, min_speedup=MIN_SPEEDUP)}}


def run_degraded_churn_gate() -> Record:
    """bench_degraded_churn: the churn segment, then the double-failure
    arc (no threshold; residency and equality only)."""
    return {"pairs": {
        "degraded_churn": run_pair("degraded_churn",
                                   run_degraded_churn_cell,
                                   min_speedup=MIN_SPEEDUP),
        "double_failure_arc": run_pair("double_failure_arc",
                                       run_double_failure_arc),
    }}
