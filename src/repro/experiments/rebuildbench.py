"""Rebuild-window benchmark cell: declustered vs clustered at 1000 disks.

``benchmarks/bench_rebuild.py`` fails one disk of a warm 1000-disk farm
and times the online rebuild to completion, once under Streaming RAID
(reconstruction reads confined to the failed disk's ``C - 1`` cluster
mates) and once under the parity-declustered layout (reads drawn
round-robin from all ``D - 1`` survivors).  Two gates, evaluated only
after full-state digests prove the fast-forward and scalar runs of each
scheme bit-identical:

* the declustered window is at most half the clustered one (the
  declustering ratio ``alpha = (C-1)/(D-1)`` predicts ~0.13x here — the
  spare's write bandwidth, not one cluster's idle read bandwidth, is
  what limits the rebuild);
* the declustered survivor read-load spread (max/mean reconstruction
  reads per survivor) stays within 1.1 of uniform, where the clustered
  rebuild concentrates everything on 4 of the 999 survivors
  (spread ~250).

The catalog is a single archive object covering the *entire* block
design — prefixes and strided samples of the design measurably do not
balance (spreads of 1.5-3.8 at half coverage); only full coverage
reaches ~1.02.  That makes placement the dominant cost (~5M block
allocations per scheme), so the layout is built and placed once per
scheme and shared between that scheme's scalar and fast cells:
placement is immutable after ``place()`` and the only state the cells
mutate lives in their private arrays and schedulers.

``benchmarks/bench_reliability.py`` times the same measurement — the
input to the measured-window MTTDS pipeline — on the scale grid's
warm Streaming-RAID farm (:func:`run_reliability_gate`), where the
gate is window and state equality, not speed.

The cell logic lives here (importable, spawn-safe) so notebooks and the
benchmark scripts share one implementation.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.analysis.parameters import SystemParameters
from repro.disk.drive import DiskArray
from repro.experiments.harness import (
    Record,
    Stopwatch,
    engine_record,
    load_one_stream_per_disk,
    run_pair,
)
from repro.experiments.scalegrid import build_scale_server
from repro.faults import (
    catastrophic_condition,
    measure_rebuild_window,
    simulate_mttds_with_measured_window,
)
from repro.layout.clustered import ClusteredParityLayout
from repro.layout.declustered import DeclusteredParityLayout
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.sched.config import SchedulerConfig
from repro.sched.declustered import DeclusteredParityScheduler
from repro.sched.streaming_raid import StreamingRAIDScheduler
from repro.schemes import Scheme
from repro.units import bytes_to_mb

NUM_DISKS = 1000
PARITY_GROUP = 5
TRACK_BYTES = 64
#: Track positions per drive; the full-design archive needs ~4.9k.
POSITIONS_PER_DISK = 5200
#: Streams kept playing while the rebuild trickles through idle slots.
STREAMS = 4
#: Fixed slot count (as in the scale grid): toy 64-byte tracks make the
#: derived tracks-per-cycle zero, so the slot table is pinned instead.
SLOTS_PER_DISK = 8
#: Scalar/fast cycles before the failure lands (start-up transient).
WARMUP_CYCLES = 3
#: Spare write bandwidth in tracks/cycle — deliberately higher than one
#: cluster's idle read bandwidth (``slots_per_disk``), so the clustered
#: rebuild is read-side-bound and the declustered one is not.
REBUILD_WRITES_PER_CYCLE = 64
FAILED_DISK = 0
MAX_WINDOW_CYCLES = 100_000

MAX_WINDOW_RATIO = 0.5
MAX_READ_SPREAD = 1.1


def bench_params() -> SystemParameters:
    """Table-1 parameters with toy 64-byte tracks and deep drives."""
    return SystemParameters.paper_table1(
        num_disks=NUM_DISKS,
        track_size_mb=bytes_to_mb(TRACK_BYTES),
        disk_capacity_mb=bytes_to_mb(TRACK_BYTES * POSITIONS_PER_DISK),
    )


def full_design_catalog(design_rows: int) -> Catalog:
    """One archive object with exactly one parity group per design row."""
    catalog = Catalog()
    tracks = design_rows * (PARITY_GROUP - 1)
    catalog.add(MediaObject("archive", 0.1875, tracks, seed=11))
    return catalog


def build_scheme_layout(scheme: Scheme) -> tuple[Any, Catalog, float]:
    """Layout + placed catalog for one scheme (the expensive step, done
    once per scheme and shared by its scalar and fast cells)."""
    with Stopwatch() as place:
        if scheme is Scheme.PARITY_DECLUSTERED:
            layout: Any = DeclusteredParityLayout(NUM_DISKS, PARITY_GROUP)
            rows = layout.design_size()
        else:
            layout = ClusteredParityLayout(NUM_DISKS, PARITY_GROUP)
            rows = DeclusteredParityLayout(NUM_DISKS,
                                           PARITY_GROUP).design_size()
        catalog = full_design_catalog(rows)
        layout.place_catalog(catalog, start_cluster=0)
    return layout, catalog, place.seconds


def window_record(server: Any, fast_forward: bool, fields: Record,
                  **window_args: Any) -> Record:
    """Time one measured rebuild window; record it beside ``fields``."""
    with Stopwatch() as run:
        window = measure_rebuild_window(server, fast_forward=fast_forward,
                                        **window_args)
    return engine_record(
        server, fast_forward, run.seconds, **fields,
        window_cycles=window.cycles, window_hours=window.hours,
        rebuild_blocks=window.blocks,
        read_spread=round(window.read_spread, 4),
        max_survivor_reads=window.max_survivor_reads,
        mean_survivor_reads=round(window.mean_survivor_reads, 4))


def run_rebuild_cell(scheme: Scheme, layout: Any, catalog: Catalog,
                     fast_forward: bool) -> Record:
    """One measured run: warm farm, fail disk 0, rebuild to completion.

    The shared layout is read-only here; the array and scheduler are
    cell-private, so the scalar and fast cells stay independent and the
    digest comparison stays honest.
    """
    from repro.server.server import MultimediaServer

    params = bench_params()
    config = SchedulerConfig.build(params, PARITY_GROUP, scheme,
                                   slots_per_disk=SLOTS_PER_DISK)
    spec = params.to_disk_spec(name=f"{scheme.value}-drive")
    array = DiskArray(NUM_DISKS, spec, store_payloads=False)
    layout.materialise(array)
    if scheme is Scheme.PARITY_DECLUSTERED:
        scheduler: Any = DeclusteredParityScheduler(layout, array, config,
                                                    verify_payloads=False)
    else:
        scheduler = StreamingRAIDScheduler(layout, array, config,
                                           verify_payloads=False)
    server = MultimediaServer(layout, array, scheduler, catalog)
    for _ in range(STREAMS):
        server.admit("archive")
    server.run_cycles(WARMUP_CYCLES, fast_forward=fast_forward)

    return window_record(
        server, fast_forward,
        {"scheme": scheme.value, "num_disks": NUM_DISKS, "streams": STREAMS},
        disk_id=FAILED_DISK, writes_per_cycle=REBUILD_WRITES_PER_CYCLE,
        max_cycles=MAX_WINDOW_CYCLES)


def window_ratio(sr_fast: Record, pd_fast: Record) -> float:
    """The declustered rebuild window as a fraction of the clustered."""
    if not sr_fast["window_cycles"]:
        return float("inf")
    return float(pd_fast["window_cycles"] / sr_fast["window_cycles"])


def window_checks(sr_fast: Record, pd_scalar: Record,
                  pd_fast: Record) -> dict[str, bool]:
    """The cross-scheme gates on the PD pair: window and spread."""
    return {
        "window_ratio_ok": window_ratio(sr_fast, pd_fast)
        <= MAX_WINDOW_RATIO,
        "read_spread_ok": pd_fast["read_spread"] <= MAX_READ_SPREAD,
    }


def run_rebuild_gate() -> Record:
    """bench_rebuild: an SR pair, then a PD pair gated against it.

    Each scheme's layout is placed once and shared by its two cells.
    """
    pairs: dict[str, Record] = {}
    for scheme in (Scheme.STREAMING_RAID, Scheme.PARITY_DECLUSTERED):
        layout, catalog, place_s = build_scheme_layout(scheme)
        checks = (partial(window_checks, pairs["SR"]["candidate"])
                  if pairs else None)
        pairs[scheme.value] = run_pair(
            scheme.value, partial(run_rebuild_cell, scheme, layout, catalog),
            checks=checks)
        pairs[scheme.value]["place_s"] = place_s
    sr, pd = pairs["SR"]["candidate"], pairs["PD"]["candidate"]
    return {
        "windows": {
            "window_ratio": round(window_ratio(sr, pd), 4),
            "max_window_ratio": MAX_WINDOW_RATIO,
            "pd_read_spread": pd["read_spread"],
            "max_read_spread": MAX_READ_SPREAD,
            "sr_read_spread": sr["read_spread"],
            "alpha": round((PARITY_GROUP - 1) / (NUM_DISKS - 1), 6),
        },
        "pairs": pairs,
    }


def run_window_cell(num_disks: int, fast_forward: bool) -> Record:
    """bench_reliability's run: a warm farm's timed rebuild window."""
    server = build_scale_server(Scheme.STREAMING_RAID, num_disks)
    streams = load_one_stream_per_disk(server)
    server.run_cycles(5, fast_forward=fast_forward)
    return window_record(server, fast_forward,
                         {"num_disks": num_disks, "streams": streams},
                         disk_id=0, writes_per_cycle=1)


def run_reliability_gate(num_disks: int) -> Record:
    """bench_reliability: the window pair plus one measured-window
    MTTDS estimate (timed, not gated) on a 100-disk farm."""
    pair = run_pair("window", partial(run_window_cell, num_disks))
    server = build_scale_server(Scheme.STREAMING_RAID, 100)
    with Stopwatch() as mc:
        window, estimate = simulate_mttds_with_measured_window(
            server, catastrophic_condition(server.layout),
            mttf_disk_hours=0.01, replications=100, seed=3)
    return {
        "pairs": {"window": pair},
        "measured_window_mttds": {
            "num_disks": 100,
            "window_hours": window.hours,
            "mean_hours": estimate.mean_hours,
            "ci95_hours": estimate.ci95_hours,
            "run_s": mc.seconds,
        },
    }
