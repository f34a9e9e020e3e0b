"""Paper-scale benchmark grid cells, importable by spawn workers.

``benchmarks/bench_scale.py`` sweeps 100/500/1000 disks x four schemes
with and without a failure.  Each cell is independent, so the sweep is a
natural ensemble for :func:`repro.parallel.run_tasks` — but spawn
workers can only run functions they can *import*, and the ``benchmarks/``
directory is not a package on ``PYTHONPATH``.  The cell logic therefore
lives here; the benchmark script (and any notebook) delegates to it.

A cell returns both wall-clock timings and the deterministic simulator
metrics; :func:`grid_digest` hashes only the deterministic part, which
is what the serial-vs-parallel regression guard compares.

The same farm carries ``benchmarks/bench_parallel.py``'s two gates
(:func:`run_parallel_gates`): the small sweep serial against a process
pool, and a steady-state segment of a warm 1000-disk Streaming-RAID
farm scalar against the fast-forward engine.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro.analysis.parameters import SystemParameters
from repro.experiments.harness import (
    Record,
    Stopwatch,
    engine_record,
    load_one_stream_per_disk,
    pool_gate,
    result_digest,
    run_pair,
)
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.schemes import Scheme
from repro.units import bytes_to_mb, seconds_to_microseconds

#: Toy 64-byte tracks: materialisation stays cheap at 1000 disks.
TRACK_BYTES = 64
CYCLES = 20
TRACKS = 100           # > CYCLES * k' so no stream completes mid-run
FAIL_CYCLE = 5
REPAIR_CYCLE = 15
SLOTS_PER_DISK = 8

#: bench_parallel's ensemble: small enough for CI, wide enough to
#: amortise spawn.
ENSEMBLE_SIZES = (40, 100)
POOL_SPEEDUP_GATE = 2.5

#: bench_parallel's steady-state segment: 400-track objects keep reading
#: for all 100 cycles, so the whole segment is one quiescent epoch.  The
#: epoch's one-time entry (live-stream walk, row pool, read tables:
#: 2-3 ms of them at 1000 disks on a 2-vCPU host) amortises over the
#: segment; very short segments stay closer to scalar speed.
FF_DISKS = 1000
FF_TRACKS = 400
FF_CYCLES = 100
FF_WARMUP_CYCLES = 6
FF_SPEEDUP_GATE = 5.0


def cluster_size(scheme: Scheme, parity_group_size: int = 5) -> int:
    """Disks per cluster: C, except IB's C - 1 data-disk clusters.

    Parity declustering has no clusters; C keeps its object count (one
    object per C disks) comparable with the clustered layouts.
    """
    if scheme is Scheme.IMPROVED_BANDWIDTH:
        return parity_group_size - 1
    return parity_group_size


def scale_params(num_disks: int) -> SystemParameters:
    """Table-1 parameters with toy 64-byte tracks."""
    return SystemParameters.paper_table1(
        num_disks=num_disks,
        track_size_mb=bytes_to_mb(TRACK_BYTES),
        disk_capacity_mb=bytes_to_mb(TRACK_BYTES * 4000),
    )


def scale_catalog(count: int, tracks: int = TRACKS) -> Catalog:
    """Identical-shape objects with distinct deterministic payloads."""
    catalog = Catalog()
    for index in range(count):
        catalog.add(MediaObject(f"m{index}", 0.1875, tracks, seed=index))
    return catalog


def build_scale_server(scheme: Scheme, num_disks: int) -> Any:
    """A metadata-only server with one object per cluster."""
    from repro.server.server import MultimediaServer
    objects = num_disks // cluster_size(scheme)
    return MultimediaServer.build(
        scale_params(num_disks), 5, scheme,
        catalog=scale_catalog(objects),
        slots_per_disk=SLOTS_PER_DISK, verify_payloads=False)


def run_scale_cell(scheme: Scheme, num_disks: int, with_failure: bool,
                   fast_forward: bool = False) -> dict[str, Any]:
    """Build, load to one stream per disk, run 20 cycles; return metrics.

    The wall-clock fields (``build_s``/``run_s``/...) are measured on
    whatever host runs the cell; everything else is deterministic and
    identical across workers, hosts, and ``fast_forward`` settings.
    """
    from repro.faults.injector import FaultSchedule
    with Stopwatch() as build:
        server = build_scale_server(scheme, num_disks)
    admitted = load_one_stream_per_disk(server)

    with Stopwatch() as run:
        schedule = (FaultSchedule.single_failure(
            FAIL_CYCLE, 0, repair_cycle=REPAIR_CYCLE)
            if with_failure else FaultSchedule())
        server.run_with_schedule(CYCLES, schedule,
                                 fast_forward=fast_forward)

    cycles = server.report.cycles
    result: dict[str, Any] = {
        "scheme": scheme.value,
        "num_disks": num_disks,
        "streams": admitted,
        "cycles": CYCLES,
        "with_failure": with_failure,
        "build_s": build.seconds,
        "run_s": run.seconds,
        "us_per_cycle": round(seconds_to_microseconds(run.seconds) / CYCLES,
                              1),
        "cycles_per_s": round(CYCLES / run.seconds, 1),
        "reads_executed": sum(r.reads_executed for r in cycles),
        "parity_reads": sum(r.parity_reads for r in cycles),
        "tracks_delivered": sum(r.tracks_delivered for r in cycles),
        "reconstructions": sum(r.reconstructions for r in cycles),
        "hiccups": sum(len(r.hiccups) for r in cycles),
        "buffered_peak": server.report.peak_buffered_tracks,
        "reads_per_disk_sha256": hashlib.sha256(
            json.dumps([d.reads for d in server.array.disks])
            .encode("utf-8")).hexdigest(),
    }
    if with_failure:
        assert not server.is_catastrophic
    assert result["tracks_delivered"] > 0
    return result


def grid_digest(results: list[dict[str, Any]]) -> str:
    """SHA-256 over a whole sweep (cell digests, in sweep order)."""
    joined = ",".join(result_digest(result) for result in results)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def grid_cells(sizes: tuple[int, ...], schemes: tuple[Scheme, ...],
               ) -> list[tuple[Scheme, int, bool]]:
    """The sweep's cell coordinates, in canonical (size-major) order."""
    return [(scheme, num_disks, with_failure)
            for num_disks in sizes
            for scheme in schemes
            for with_failure in (False, True)]


def run_scale_grid(sizes: tuple[int, ...],
                   schemes: Optional[tuple[Scheme, ...]] = None,
                   workers: int = 1,
                   fast_forward: bool = False) -> list[dict[str, Any]]:
    """Run the full sweep, optionally over a process pool.

    Results come back in canonical cell order regardless of worker
    count; :func:`grid_digest` over the output is therefore the
    serial-vs-parallel equality check.
    """
    from repro.parallel import TaskSpec, run_tasks
    from repro.schemes import ALL_IMPLEMENTED_SCHEMES
    if schemes is None:
        schemes = tuple(ALL_IMPLEMENTED_SCHEMES)
    tasks = [
        TaskSpec(run_scale_cell, args=(scheme, num_disks, with_failure),
                 kwargs={"fast_forward": fast_forward},
                 label=f"scale-{scheme.value}-{num_disks}"
                       f"{'-fail' if with_failure else ''}")
        for scheme, num_disks, with_failure in grid_cells(sizes, schemes)
    ]
    results: list[dict[str, Any]] = run_tasks(tasks, workers)
    return results


def ensemble_cell(workers: int) -> Record:
    """The ensemble sweep at one pool width, timed whole."""
    with Stopwatch() as run:
        results = run_scale_grid(ENSEMBLE_SIZES, workers=workers)
    return {"workers": workers, "sizes": list(ENSEMBLE_SIZES),
            "cells": len(results), "grid_digest": grid_digest(results),
            "run_s": run.seconds}


def steady_cell(fast_forward: bool, cycles: int = FF_CYCLES) -> Record:
    """A warm steady-state segment: one stream per disk, no faults."""
    from repro.server.server import MultimediaServer
    objects = FF_DISKS // cluster_size(Scheme.STREAMING_RAID)
    server = MultimediaServer.build(
        scale_params(FF_DISKS), 5, Scheme.STREAMING_RAID,
        catalog=scale_catalog(objects, tracks=FF_TRACKS),
        slots_per_disk=SLOTS_PER_DISK, verify_payloads=False)
    load_one_stream_per_disk(server)
    with Stopwatch() as run:
        server.run_cycles(cycles, fast_forward=fast_forward)
    return engine_record(server, fast_forward, run.seconds,
                         num_disks=FF_DISKS, cycles=cycles,
                         tracks_per_object=FF_TRACKS)


def run_parallel_gates(workers: int) -> Record:
    """bench_parallel: the pooled ensemble, then the fast-forward pair.

    Both engines first run a short untimed segment, so neither timed
    side pays the process's one-time import and allocation costs.
    """
    ensemble = run_pair("ensemble", ensemble_cell, modes=(1, workers),
                        min_speedup=pool_gate(POOL_SPEEDUP_GATE, workers))
    for fast_forward in (False, True):
        steady_cell(fast_forward, cycles=FF_WARMUP_CYCLES)
    steady = run_pair("fast_forward", steady_cell,
                      min_speedup=FF_SPEEDUP_GATE)
    return {"pairs": {"ensemble": ensemble, "fast_forward": steady}}
