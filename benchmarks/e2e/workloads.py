"""The five end-to-end workloads of the VoD simulator benchmark.

Each workload is run as *passes*.  A pass is a fixed amount of simulated
work built from the seed (the farm, the Poisson/Zipf request trace, the
chaos script, the cluster spec).  It is timed in two parts: set-up, until
the first simulated cycle, and the measured segment.  It ends with an
outcome record: front-door accounting, hiccups, shed streams and a
full-state digest.  The same seed gives the same pass, so every pass of a
run must land on the same digest.

The sizes in :data:`FULL` make one pass take one to five seconds on a
2-CPU host, so a run of fifteen seconds holds several passes and reports
their median.  :data:`SMOKE` is the same five workloads at a fraction of the
size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional, Union

from spans import patched

from repro.cluster import runner as cluster_runner
from repro.experiments.degradedbench import degraded_digest
from repro.experiments.scalegrid import scale_params
from repro.faults import chaos
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.parallel import SessionPool, derive_seeds
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.server import MultimediaServer, WorkloadResult
from repro.workload import CompiledTrace, WorkloadGenerator, compile_trace

#: Parity-group size of every farm (the paper's C = 5).
GROUP = 5
#: Disk stride between consecutive failures of ``vod-rebuild``.
FAIL_STRIDE = 7


@dataclass(frozen=True)
class VodParams:
    """A single Streaming-RAID farm under open-loop Poisson traffic."""

    disks: int = 1000
    titles: int = 200
    tracks: int = 100
    slots_per_disk: int = 32
    admission_limit: int = 600
    arrivals_per_cycle: float = 30.0
    zipf_theta: float = 0.3
    cycles: int = 1000
    #: Every n-th title is 3x-rate (MPEG-2 on an MPEG-1 cycle); 0: none.
    fast_title_every: int = 0
    #: Fail/rebuild segment length in cycles; 0: a healthy farm.
    segment: int = 0
    #: Prefix length of the fast-vs-scalar digest check.
    check_cycles: int = 200


@dataclass(frozen=True)
class StormParams:
    """A seeded chaos campaign per scheme, closed-loop traffic."""

    disks: int = 1000
    #: 100 titles (not 200) halve the closed loop's per-cycle admission
    #: work, so a 15 s run holds three or four whole storms: with one or
    #: two, a single slow stretch of the host set a run's median.
    titles: int = 100
    tracks: int = 40
    #: Each seed's script sets how long the farm stays degraded; shorter
    #: storms let that dominate the spread across seeds.
    cycles: int = 160
    check_cycles: int = 40


@dataclass(frozen=True)
class ClusterParams:
    """A sharded SR cluster driven through the session pool."""

    shards: int = 2
    disks_per_shard: int = 1000
    titles: int = 400
    tracks: int = 100
    slots_per_disk: int = 32
    admission_limit: int = 600
    cycles: int = 1000
    window: int = 10
    arrivals_per_cycle: float = 60.0
    zipf_theta: float = 0.3
    replicate_top_k: int = 8
    #: Width of the spawned session pool, which the checks and the traced
    #: pool pass run.  Timed passes step the shards in-process
    #: (``workers=1``): on a shared 2-vCPU host, two-worker passes moved
    #: by a third between two sets of runs.
    pool_workers: int = 2
    check_cycles: int = 300


Params = Union[VodParams, StormParams, ClusterParams]

FULL: dict[str, Params] = {
    "vod-steady": VodParams(),
    "vod-rebuild": VodParams(segment=100),
    "vod-mixed": VodParams(cycles=250, fast_title_every=10),
    "fault-storm": StormParams(),
    "cluster": ClusterParams(),
}

SMOKE: dict[str, Params] = {
    "vod-steady": VodParams(disks=200, titles=40, admission_limit=120,
                            arrivals_per_cycle=6.0, cycles=300,
                            check_cycles=60),
    "vod-rebuild": VodParams(disks=200, titles=40, admission_limit=120,
                             arrivals_per_cycle=6.0, cycles=300, segment=50,
                             check_cycles=100),
    "vod-mixed": VodParams(disks=200, titles=40, admission_limit=120,
                           arrivals_per_cycle=6.0, cycles=100,
                           fast_title_every=10, check_cycles=40),
    "fault-storm": StormParams(disks=200, titles=20, cycles=30,
                               check_cycles=20),
    "cluster": ClusterParams(disks_per_shard=200, titles=80,
                             admission_limit=120, cycles=300,
                             arrivals_per_cycle=12.0, replicate_top_k=4,
                             check_cycles=60),
}


def params_for(name: str, smoke: bool) -> Params:
    """The workload's parameters at full or smoke size."""
    table = SMOKE if smoke else FULL
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(table)}")
    return table[name]


def describe(params: Params) -> dict[str, Any]:
    """Every workload parameter, for the result file."""
    return {"kind": type(params).__name__, **dataclasses.asdict(params)}


@dataclass
class Pass:
    """One pass: its two timings and its simulated outcome."""

    setup_s: float
    run_s: float
    cycles: int
    admitted: int
    rejected: int
    #: Requests in the trace that arrive after the horizon (``None`` for
    #: closed-loop traffic, which has no trace).
    unarrived: Optional[int]
    #: Requests in the trace, where the pass built it itself.
    trace_total: Optional[int]
    hiccups: int
    streams_shed: int
    #: Hiccups and shed streams the paper does not excuse.
    broken: int
    digest: str
    #: Pass-level checks that failed, in words.
    problems: list[str]

    @property
    def ops(self) -> int:
        """Requests that reached the front door."""
        return self.admitted + self.rejected

    @property
    def wall_s(self) -> float:
        """Host seconds of the whole pass."""
        return self.setup_s + self.run_s

    def outcome(self) -> dict[str, Any]:
        """The deterministic part of the pass."""
        return {
            "state_sha256": self.digest,
            "cycles": self.cycles,
            "ops": self.ops,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "unarrived": self.unarrived,
            "hiccups": self.hiccups,
            "streams_shed": self.streams_shed,
            "reject_ratio": self.rejected / self.ops if self.ops else 0.0,
            "failed_ops": self.rejected + self.streams_shed,
            "broken": self.broken,
        }


# -- vod-steady, vod-rebuild, vod-mixed ----------------------------------------

def vod_server(p: VodParams) -> MultimediaServer:
    """The 1000-disk SR farm: one title per parity group."""
    params = scale_params(p.disks)
    catalog = Catalog()
    for index in range(p.titles):
        rate = 3 if p.fast_title_every and \
            index % p.fast_title_every == 0 else 1
        catalog.add(MediaObject(f"m{index}",
                                rate * params.object_bandwidth_mb_s,
                                p.tracks, seed=index))
    return MultimediaServer.build(
        params, GROUP, Scheme.STREAMING_RAID, catalog=catalog,
        slots_per_disk=p.slots_per_disk, admission_limit=p.admission_limit,
        verify_payloads=False)


def vod_trace(server: MultimediaServer, p: VodParams,
              seed: int) -> CompiledTrace:
    """The open-loop request trace over the pass's horizon."""
    cycle_length = server.config.cycle_length_s
    generator = WorkloadGenerator(
        server.catalog, arrival_rate_per_s=p.arrivals_per_cycle / cycle_length,
        zipf_theta=p.zipf_theta, seed=seed)
    return compile_trace(generator.trace(p.cycles * cycle_length),
                         cycle_length)


def drive_vod(server: MultimediaServer, trace: CompiledTrace, p: VodParams,
              cycles: int, fast_forward: bool,
              ) -> tuple[WorkloadResult, list[str]]:
    """Run ``cycles`` of the trace; with segments, fail and rebuild.

    Segment ``i`` starts by failing disk ``7 * (i // 2)`` (even ``i``) or
    by starting that disk's rebuild at one write per cycle (odd ``i``).
    A rebuild still running when the next failure is due is a problem:
    the workload would no longer be the single-failure arc it claims.
    """
    if not p.segment:
        return server.run_workload(trace, cycles,
                                   fast_forward=fast_forward), []
    problems: list[str] = []
    admitted = rejected = 0
    for index, start in enumerate(range(0, cycles, p.segment)):
        disk = FAIL_STRIDE * (index // 2) % p.disks
        if index % 2 == 0:
            if server.array.failed_ids:
                problems.append(f"rebuild unfinished at cycle {start}")
            server.fail_disk(disk)
        else:
            server.scheduler.start_rebuild(disk, writes_per_cycle=1)
        result = server.run_workload(trace, min(p.segment, cycles - start),
                                     fast_forward=fast_forward)
        admitted += result.admitted
        rejected += result.rejected
    return WorkloadResult(admitted, rejected,
                          trace.unarrived_after(cycles)), problems


def vod_pass(p: VodParams, seed: int) -> Pass:
    """One timed pass of a ``vod-*`` workload."""
    t0 = perf_counter()
    server = vod_server(p)
    trace = vod_trace(server, p, seed)
    t1 = perf_counter()
    result, problems = drive_vod(server, trace, p, p.cycles,
                                 fast_forward=True)
    t2 = perf_counter()
    report = server.report
    hiccups = report.total_hiccups
    shed = report.total_streams_shed
    if hiccups or shed:
        problems.append(f"{hiccups} hiccups and {shed} shed streams on a "
                        "farm the paper keeps hiccup-free")
    return Pass(setup_s=t1 - t0, run_s=t2 - t1, cycles=p.cycles,
                admitted=result.admitted, rejected=result.rejected,
                unarrived=result.unarrived, trace_total=trace.total,
                hiccups=hiccups, streams_shed=shed, broken=hiccups + shed,
                digest=degraded_digest(server), problems=problems)


def vod_setup(p: VodParams, seed: int) -> float:
    """Set-up only: farm and trace."""
    t0 = perf_counter()
    vod_trace(vod_server(p), p, seed)
    return perf_counter() - t0


# -- fault-storm ---------------------------------------------------------------

def storm_profile(p: StormParams, cycles: int) -> chaos.ChaosProfile:
    """The campaign profile: the classic fault mix on a 1000-disk farm."""
    return chaos.ChaosProfile(cycles=cycles, num_disks=p.disks,
                              objects=p.titles, tracks_per_object=p.tracks)


def first_call_timer(stamps: list[float], stop: Optional[type] = None,
                     ) -> Any:
    """``patched`` factory: stamp ``perf_counter`` at the first call; with
    ``stop``, that first call raises ``stop`` instead of running (a
    set-up-only pass ends there)."""
    def make(fn: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stamps:
                stamps.append(perf_counter())
                if stop is not None:
                    raise stop()
            return fn(*args, **kwargs)
        return wrapper
    return make


def _timed(seconds: list[float]) -> Any:
    """``patched`` factory: record how long every call takes."""
    def make(fn: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds.append(perf_counter() - t0)
        return wrapper
    return make


def unexcused_hiccups(snapshot: dict[str, Any], events: list[Any],
                      scheme: Scheme, cycles: int) -> int:
    """Hiccups outside the windows the paper permits (chaos allowances).

    Mid-cycle strikes, double failures and the staggered schemes'
    bounded transitions may hiccup; anything else breaks the promise.
    """
    allowances = chaos._Allowances(events, cycles, GROUP + 3)
    return sum(1 for cycle, _, _, _, cause in snapshot["hiccups"]
               if not allowances.permits(scheme, cycle, cause))


def storm_pass(p: StormParams, seed: int) -> Pass:
    """One timed pass: script and replay for every scheme in turn.

    Set-up is each script's generation plus the replay's server build;
    the rest of each replay is the measured segment.
    """
    profile = storm_profile(p, p.cycles)
    builds: list[float] = []
    setup_s = run_s = 0.0
    admitted = rejected = hiccups = shed = broken = 0
    digests = []
    with patched(chaos, "build_chaos_server", _timed(builds)):
        for scheme in ALL_IMPLEMENTED_SCHEMES:
            t0 = perf_counter()
            events = chaos.generate_script(scheme, seed, profile)
            t1 = perf_counter()
            first_build = len(builds)
            snap = chaos.replay(scheme, events, p.cycles, fast_forward=True,
                                profile=profile)
            t2 = perf_counter()
            build_s = sum(builds[first_build:])
            setup_s += t1 - t0 + build_s
            run_s += t2 - t1 - build_s
            admitted += len(snap["streams"])
            rejected += snap["admissions_rejected"]
            hiccups += len(snap["hiccups"])
            shed += sum(row["streams_shed"] for row in snap["rows"])
            broken += unexcused_hiccups(snap, events, scheme, p.cycles)
            digests.append(chaos.snapshot_digest(snap))
    problems = ([f"{broken} hiccups outside the permitted fault windows"]
                if broken else [])
    return Pass(setup_s=setup_s, run_s=run_s,
                cycles=p.cycles * len(ALL_IMPLEMENTED_SCHEMES),
                admitted=admitted, rejected=rejected, unarrived=None,
                trace_total=None, hiccups=hiccups, streams_shed=shed,
                broken=broken, digest=_joined(digests),
                problems=problems)


def storm_setup(p: StormParams, seed: int) -> float:
    """Set-up only: every scheme's script and server build."""
    profile = storm_profile(p, p.cycles)
    t0 = perf_counter()
    for scheme in ALL_IMPLEMENTED_SCHEMES:
        chaos.generate_script(scheme, seed, profile)
        chaos.build_chaos_server(scheme, profile=profile)
    return perf_counter() - t0


# -- cluster -------------------------------------------------------------------

def cluster_spec(p: ClusterParams, seed: int,
                 cycles: Optional[int] = None) -> cluster_runner.ClusterSpec:
    """The cluster run, fully determined by the parameters and seed."""
    return cluster_runner.ClusterSpec(
        Scheme.STREAMING_RAID, shards=p.shards,
        disks_per_shard=p.disks_per_shard, parity_group_size=GROUP,
        objects=p.titles, tracks_per_object=p.tracks,
        slots_per_disk=p.slots_per_disk, admission_limit=p.admission_limit,
        cycles=p.cycles if cycles is None else cycles, window=p.window,
        arrivals_per_cycle=p.arrivals_per_cycle, zipf_theta=p.zipf_theta,
        replicate_top_k=p.replicate_top_k, seed=seed)


def cluster_trace_total(spec: cluster_runner.ClusterSpec) -> int:
    """Requests in the run's cluster-wide trace (rebuilt the way
    :func:`~repro.cluster.runner.run_cluster` builds it)."""
    trace_seed = derive_seeds(spec.seed, spec.shards + 2)[1]
    catalog = cluster_runner.build_cluster_catalog(spec)
    return cluster_runner.compile_cluster_trace(spec, catalog,
                                                trace_seed).total


def cluster_pass(p: ClusterParams, seed: int, workers: int = 1) -> Pass:
    """One timed pass; set-up (shard builds, plus the pool spawn when
    ``workers > 1``) ends at the first ``SessionPool.step_all``."""
    spec = cluster_spec(p, seed)
    stamps: list[float] = []
    t0 = perf_counter()
    with patched(SessionPool, "step_all", first_call_timer(stamps)):
        report = cluster_runner.run_cluster(spec, workers=workers)
    t2 = perf_counter()
    totals = report.report
    hiccups = totals.total_hiccups
    shed = totals.total_streams_shed
    problems = ([f"{hiccups} hiccups and {shed} shed streams on a healthy "
                 "cluster"] if hiccups or shed else [])
    return Pass(setup_s=stamps[0] - t0, run_s=t2 - stamps[0],
                cycles=spec.cycles, admitted=report.admitted,
                rejected=report.rejected, unarrived=report.unarrived,
                trace_total=None, hiccups=hiccups, streams_shed=shed,
                broken=hiccups + shed, digest=report.digest(),
                problems=problems)


class _SetupDone(Exception):
    """Raised at the first barrier of a set-up-only cluster run."""


def cluster_setup(p: ClusterParams, seed: int) -> float:
    """Set-up only: the run up to its first barrier; the pool is closed
    by ``run_cluster``'s ``with`` block as the stop unwinds it."""
    stamps: list[float] = []
    t0 = perf_counter()
    with patched(SessionPool, "step_all",
                 first_call_timer(stamps, stop=_SetupDone)):
        try:
            cluster_runner.run_cluster(cluster_spec(p, seed))
        except _SetupDone:
            pass
    return stamps[0] - t0


def front_door_problems(params: Params, seed: int,
                        passes: list[Pass]) -> list[str]:
    """``admitted + rejected + unarrived == trace total`` on every pass.

    The cluster's trace is built inside ``run_cluster``, so its total is
    rebuilt here once, outside every timed (and traced) window.
    """
    if isinstance(params, StormParams):
        return []  # closed loop: no trace to account for
    total = (cluster_trace_total(cluster_spec(params, seed))
             if isinstance(params, ClusterParams) else None)
    problems = []
    for done in passes:
        expected = total if total is not None else done.trace_total
        if done.unarrived is None or done.ops + done.unarrived != expected:
            problems.append(
                f"admitted {done.admitted} + rejected {done.rejected} + "
                f"unarrived {done.unarrived} != trace total {expected}")
    return problems


# -- dispatch ------------------------------------------------------------------

def run_pass(params: Params, seed: int) -> Pass:
    """One timed pass of any workload."""
    if isinstance(params, VodParams):
        return vod_pass(params, seed)
    if isinstance(params, StormParams):
        return storm_pass(params, seed)
    return cluster_pass(params, seed)


def run_setup(params: Params, seed: int) -> float:
    """Set-up time of one extra, set-up-only repetition."""
    if isinstance(params, VodParams):
        return vod_setup(params, seed)
    if isinstance(params, StormParams):
        return storm_setup(params, seed)
    return cluster_setup(params, seed)


def _joined(digests: list[str]) -> str:
    return hashlib.sha256(",".join(digests).encode("utf-8")).hexdigest()


# -- simulated per-layer counters ----------------------------------------------

#: Every reason the fast-forward engines tally for declining or leaving
#: an epoch (``SimulationReport.ff_disengagements``).
FF_REASONS = (
    "degraded-veto", "fail-slow", "imminent-hiccup", "media-error",
    "mid-group-pointer", "mixed-rates", "no-read-table", "payload-mode",
    "pending-state", "pool-buffers", "rebuild-complete", "rebuild-veto",
    "scheme-veto", "shared-group", "slot-overflow", "stream-completed",
    "stream-state", "unrecoverable-group",
)


def sim_counters(servers: list[Any]) -> dict[str, float]:
    """Simulated counters read after a run, over every server built.

    Servers that never ran (chaos script probes) add nothing; the disk
    hot ratio is the worst max/mean per-disk read count of any server
    that read at all.
    """
    cycles = engaged = reads = dropped = 0
    reconstructions = parity_reads = peak = blocks = 0
    hot_ratio = 0.0
    reasons = dict.fromkeys(FF_REASONS, 0)
    for server in servers:
        report = server.report
        cycles += len(report.cycles)
        engaged += report.ff_engaged_cycles
        for reason, count in report.ff_disengagements.items():
            reasons[reason] = reasons.get(reason, 0) + count
        per_disk = [disk.reads for disk in server.array.disks]
        total = sum(per_disk)
        reads += total
        if total:
            hot_ratio = max(hot_ratio,
                            max(per_disk) / statistics.fmean(per_disk))
        dropped += report.total_dropped_reads
        reconstructions += report.total_reconstructions
        parity_reads += report.total_parity_reads
        peak = max(peak, report.peak_buffered_tracks)
        blocks += sum(row.blocks_rebuilt for row in report.cycles)
    counters: dict[str, float] = {
        "sched.ff_residency": engaged / cycles if cycles else 0.0,
        "sched.rebuild.blocks": blocks,
        "disk.reads": reads,
        "disk.hot_ratio": hot_ratio,
        "disk.dropped_reads": dropped,
        "parity.reconstructions": reconstructions,
        "parity.reads": parity_reads,
        "buffers.peak_tracks": peak,
    }
    for reason in FF_REASONS:
        counters[f"sched.ff_disengagements.{reason}"] = reasons[reason]
    return counters
