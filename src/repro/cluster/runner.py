"""Drive N shards through the session pool; fold one ClusterReport.

The run alternates **routing barriers** (parent process: dispatch the
next trace window via :class:`~repro.cluster.router.ClusterRouter`) with
**shard windows** (session pool: every shard advances to the barrier
cycle in its own long-lived worker).  The shard servers are built once —
inside their workers, from frozen specs — and stepped in place, which is
what :class:`repro.parallel.SessionPool` exists for; per window, only
batch dicts go out and four-integer :class:`WindowResult` tuples come
back.

Determinism: every seed derives from ``spec.seed`` via
``SeedSequence.spawn`` *before* any process starts, routing happens
parent-side from barrier feedback that is identical for any worker
count, and the pool returns results in session order — so ``workers=1``
and ``workers=N`` produce bit-identical cluster metrics, which
:meth:`ClusterReport.digest` turns into a comparable fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.cluster.placement import ShardPlacement, partition_catalog
from repro.cluster.router import ClusterRouter
from repro.cluster.shard import (
    SLOTS_PER_DISK,
    ShardSpec,
    finalise_shard,
    init_shard,
    run_shard_window,
    shard_params,
)
from repro.faults.injector import FaultEvent
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.parallel import SessionPool, TaskSpec, derive_seeds
from repro.sched.config import SchedulerConfig
from repro.schemes import Scheme
from repro.server.admission import cluster_capacity
from repro.server.metrics import SimulationReport
from repro.workload.compiler import CompiledTrace, compile_trace
from repro.workload.generator import WorkloadGenerator


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster experiment, fully determined by its fields.

    ``objects`` defaults to one per parity group cluster-wide (the
    scale-grid convention); ``arrivals_per_cycle`` is the cluster-wide
    Poisson rate; ``window`` is the routing-barrier interval in cycles.
    ``faults`` pairs each scripted :class:`FaultEvent` with the shard it
    strikes; within a shard the events keep their order.
    """

    scheme: Scheme
    shards: int
    disks_per_shard: int
    parity_group_size: int = 5
    objects: Optional[int] = None
    tracks_per_object: int = 100
    slots_per_disk: int = SLOTS_PER_DISK
    admission_limit: Optional[int] = None
    cycles: int = 20
    window: int = 10
    arrivals_per_cycle: float = 4.0
    zipf_theta: float = 1.0
    replicate_top_k: int = 0
    replicas: int = 1
    seed: int = 0
    fast_forward: bool = True
    faults: tuple[tuple[int, FaultEvent], ...] = ()

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.arrivals_per_cycle <= 0:
            raise ValueError(
                f"arrival rate must be positive, "
                f"got {self.arrivals_per_cycle}")
        for shard, _event in self.faults:
            if not 0 <= shard < self.shards:
                raise ValueError(
                    f"fault addresses shard {shard}; cluster has "
                    f"{self.shards}")

    def catalog_size(self) -> int:
        """Objects cluster-wide (default: one per parity group)."""
        if self.objects is not None:
            return self.objects
        return max(self.shards,
                   self.shards * self.disks_per_shard
                   // self.parity_group_size)


@dataclass(frozen=True)
class ShardSummary:
    """One shard's line in the cluster report.

    The fast-forward fields are diagnostic: they show how much of the
    shard's run stayed vectorised and why the engines declined the rest,
    and they are deliberately excluded from :meth:`ClusterReport.digest`
    (engine engagement must never shift a fingerprint).
    """

    shard_id: int
    routed: int
    admitted: int
    rejected: int
    effective_limit: int
    reads_digest: str
    ff_engaged_cycles: int = 0
    ff_disengagements: tuple[tuple[str, int], ...] = ()


@dataclass
class ClusterReport:
    """The merged outcome of one cluster run."""

    spec: ClusterSpec
    workers: int
    admitted: int
    rejected: int
    unarrived: int
    capacity: int
    report: SimulationReport
    per_shard: tuple[ShardSummary, ...]

    def digest(self) -> str:
        """SHA-256 over every deterministic metric (never wall clock —
        and never ``workers``, which the digest exists to vary)."""
        payload = {
            "scheme": self.spec.scheme.value,
            "shards": self.spec.shards,
            "disks_per_shard": self.spec.disks_per_shard,
            "cycles": self.spec.cycles,
            "seed": self.spec.seed,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "unarrived": self.unarrived,
            "capacity": self.capacity,
            "delivered": self.report.total_delivered,
            "hiccups": self.report.total_hiccups,
            "reconstructions": self.report.total_reconstructions,
            "parity_reads": self.report.total_parity_reads,
            "dropped_reads": self.report.total_dropped_reads,
            "streams_shed": self.report.total_streams_shed,
            "lost_tracks": self.report.total_lost_tracks,
            "per_shard": [[s.shard_id, s.routed, s.admitted, s.rejected,
                           s.effective_limit, s.reads_digest]
                          for s in self.per_shard],
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def ff_disengagement_totals(self) -> dict[str, int]:
        """Cluster-wide fast-forward disengagement reasons, summed over
        shards by the report merge (diagnostic; never part of
        :meth:`digest`)."""
        return dict(sorted(self.report.ff_disengagements.items()))

    def summary(self) -> str:
        """One human-readable line per run."""
        return (
            f"{self.spec.scheme.value}: {self.spec.shards} shards x "
            f"{self.spec.disks_per_shard} disks, {self.workers} worker(s); "
            f"admitted {self.admitted}, rejected {self.rejected}, "
            f"unarrived {self.unarrived} of "
            f"{self.admitted + self.rejected + self.unarrived} requests; "
            f"capacity {self.capacity}; "
            f"{self.report.total_hiccups} hiccups; "
            f"ff {self.report.ff_engaged_cycles} cycles; "
            f"digest {self.digest()[:12]}"
        )


def build_cluster_catalog(spec: ClusterSpec) -> Catalog:
    """The cluster-wide catalog with Zipf popularity weights."""
    params = shard_params(spec.disks_per_shard)
    catalog = Catalog()
    for index in range(spec.catalog_size()):
        catalog.add(MediaObject(f"m{index}", params.object_bandwidth_mb_s,
                                spec.tracks_per_object, seed=index))
    catalog.set_zipf_popularity(spec.zipf_theta)
    return catalog


def compile_cluster_trace(spec: ClusterSpec, catalog: Catalog,
                          seed: int) -> CompiledTrace:
    """The cluster-wide arrival trace, deterministic from ``seed``."""
    cycle_length_s = SchedulerConfig.build(
        shard_params(spec.disks_per_shard), spec.parity_group_size,
        spec.scheme, slots_per_disk=spec.slots_per_disk).cycle_length_s
    generator = WorkloadGenerator(
        catalog, spec.arrivals_per_cycle / cycle_length_s,
        zipf_theta=spec.zipf_theta, seed=seed)
    return compile_trace(generator.trace(spec.cycles * cycle_length_s),
                         cycle_length_s)


def plan_shards(spec: ClusterSpec, placement: ShardPlacement,
                catalog: Catalog) -> list[ShardSpec]:
    """One frozen, spawn-safe spec per shard."""
    return [
        ShardSpec(
            shard_id=shard,
            scheme=spec.scheme,
            num_disks=spec.disks_per_shard,
            parity_group_size=spec.parity_group_size,
            objects=placement.objects_for(shard, catalog),
            slots_per_disk=spec.slots_per_disk,
            admission_limit=spec.admission_limit,
            faults=tuple(event for target, event in spec.faults
                         if target == shard),
            fast_forward=spec.fast_forward,
        )
        for shard in range(spec.shards)
    ]


def run_cluster(spec: ClusterSpec, workers: int = 1) -> ClusterReport:
    """Execute one cluster run end to end (see module docstring)."""
    placement_seed, trace_seed = derive_seeds(spec.seed, 2)
    catalog = build_cluster_catalog(spec)
    placement = partition_catalog(
        catalog, spec.shards, replicate_top_k=spec.replicate_top_k,
        seed=placement_seed, replicas=spec.replicas)
    trace = compile_cluster_trace(spec, catalog, trace_seed)
    shard_specs = plan_shards(spec, placement, catalog)
    router = ClusterRouter(placement, catalog)
    sessions = [TaskSpec(init_shard, args=(shard_spec,),
                         label=f"shard-{shard_spec.shard_id}")
                for shard_spec in shard_specs]
    admitted = rejected = 0
    with SessionPool(sessions, workers=workers) as pool:
        for start in range(0, spec.cycles, spec.window):
            end = min(start + spec.window, spec.cycles)
            batches = router.route_window(trace.items(start, end))
            results = pool.step_all(
                run_shard_window,
                args=[(batches[shard], end)
                      for shard in range(spec.shards)],
                label=f"window-{start}")
            admitted += sum(result.admitted for result in results)
            rejected += sum(result.rejected for result in results)
            router.observe(end,
                           [result.streams_active for result in results],
                           [result.effective_limit for result in results])
        finals = pool.step_all(finalise_shard, label="finalise")
    merged = finals[0].report
    for shard_result in finals[1:]:
        merged = merged.merge(shard_result.report)
    return ClusterReport(
        spec=spec,
        workers=workers,
        admitted=admitted,
        rejected=rejected,
        unarrived=trace.unarrived_after(spec.cycles),
        capacity=cluster_capacity(
            [shard_result.effective_limit for shard_result in finals]),
        report=merged,
        per_shard=tuple(
            ShardSummary(
                shard_id=shard_result.shard_id,
                routed=router.routed[shard_result.shard_id],
                admitted=shard_result.admitted,
                rejected=shard_result.rejected,
                effective_limit=shard_result.effective_limit,
                reads_digest=shard_result.reads_digest,
                ff_engaged_cycles=shard_result.report.ff_engaged_cycles,
                ff_disengagements=tuple(sorted(
                    shard_result.report.ff_disengagements.items())),
            )
            for shard_result in finals),
    )
