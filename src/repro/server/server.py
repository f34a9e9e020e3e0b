"""The multimedia-server facade: build everything, run scenarios.

``MultimediaServer`` assembles the full stack for one scheme:

* the data layout for the scheme family (clustered or shifted parity);
* a :class:`~repro.disk.drive.DiskArray` materialised with deterministic
  payloads and real XOR parity;
* the scheme's cycle scheduler with buffer accounting;
* fault schedules (:class:`~repro.faults.injector.FaultSchedule`),
  scripted by hand or sampled from exponential disk lifetimes.

Example
-------
>>> from repro.analysis import SystemParameters
>>> from repro.schemes import Scheme
>>> params = SystemParameters.paper_table1(num_disks=10)
>>> server = MultimediaServer.build(params, parity_group_size=5,
...                                 scheme=Scheme.STREAMING_RAID)
>>> stream = server.admit(server.catalog.names()[0])
>>> reports = server.run_cycles(4)
>>> server.report.total_hiccups
0
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.faults.domain import SectorScrubber
    from repro.workload.compiler import CompiledTrace
    from repro.workload.generator import StreamRequest

from repro.analysis.parameters import SystemParameters
from repro.buffers.pool import BufferPool
from repro.disk.drive import DiskArray
from repro.errors import ConfigurationError
from repro.faults.injector import FaultSchedule, cycles_before
from repro.layout import layout_for
from repro.layout.base import DataLayout
from repro.media.catalog import Catalog, uniform_catalog
from repro.sched.base import CycleScheduler
from repro.sched.config import SchedulerConfig
from repro.sched.declustered import DeclusteredParityScheduler
from repro.sched.improved_bandwidth import ImprovedBandwidthScheduler
from repro.sched.non_clustered import NonClusteredScheduler, TransitionProtocol
from repro.sched.staggered_group import StaggeredGroupScheduler
from repro.sched.streaming_raid import StreamingRAIDScheduler
from repro.schemes import Scheme
from repro.server.metrics import CycleReport, SimulationReport
from repro.server.stream import Stream
from repro.sim.rng import RandomSource


class WorkloadResult(NamedTuple):
    """Front-door accounting for one :meth:`MultimediaServer.run_workload`.

    ``admitted + rejected + unarrived`` always equals the trace length:
    every request is either admitted, rejected at the door, or arrives
    after the simulated horizon ends (``unarrived``) — nothing is dropped
    silently.
    """

    admitted: int
    rejected: int
    unarrived: int


class MultimediaServer:
    """A fully assembled server for one scheme at one parity-group size."""

    def __init__(self, layout: DataLayout, array: DiskArray,
                 scheduler: CycleScheduler, catalog: Catalog) -> None:
        self.layout = layout
        self.array = array
        self.scheduler = scheduler
        self.catalog = catalog
        #: The sampled schedule/scrubber of the most recent
        #: :meth:`run_timed` call, kept for post-run inspection.
        self.last_schedule: Optional[FaultSchedule] = None
        self.last_scrubber: Optional["SectorScrubber"] = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(cls, params: SystemParameters, parity_group_size: int,
              scheme: Scheme,
              catalog: Optional[Catalog] = None,
              protocol: TransitionProtocol = TransitionProtocol.LAZY,
              pool_clusters: Optional[int] = None,
              slots_per_disk: Optional[int] = None,
              admission_limit: Optional[int] = None,
              verify_payloads: bool = False,
              start_cluster: Optional[int] = None,
              proactive_parity: bool = False,
              mirror_read_balance: bool = False) -> "MultimediaServer":
        """Assemble layout + array + scheduler for one scheme.

        ``catalog`` defaults to a small synthetic one (a few objects per
        cluster).  ``pool_clusters`` sizes the Non-clustered buffer pool
        (defaults to ``params.reserve_k``); ``proactive_parity`` enables
        the Improved-bandwidth scheme's opportunistic parity prefetch
        (Section 4's "sophisticated scheduler"); other schemes ignore
        the options that do not apply to them.

        ``verify_payloads=True`` materialises real deterministic payload
        bytes and byte-checks every delivery and reconstruction.  The
        default (``False``) runs in *metadata-only* mode: disks track
        occupancy and read counters without storing bytes, all cycle
        metrics are bit-identical, and large configurations run orders of
        magnitude faster.
        """
        config = SchedulerConfig.build(params, parity_group_size, scheme,
                                       slots_per_disk=slots_per_disk)
        layout = layout_for(scheme, params.num_disks, parity_group_size)
        if catalog is None:
            catalog = uniform_catalog(
                count=max(2, layout.num_clusters),
                bandwidth_mb_s=params.object_bandwidth_mb_s,
                num_tracks=4 * config.stripe_width,
            )
        layout.place_catalog(catalog, start_cluster=start_cluster)
        spec = params.to_disk_spec(name=f"{scheme.value}-drive")
        needed = max(layout.used_positions(d)
                     for d in range(layout.num_disks))
        if needed > spec.tracks_per_disk:
            raise ConfigurationError(
                f"catalog needs {needed} tracks per disk; drives hold "
                f"{spec.tracks_per_disk}"
            )
        # Metadata-only mode: unless payloads are to be byte-verified, the
        # array tracks occupancy and counters without storing any bytes.
        array = DiskArray(params.num_disks, spec,
                          store_payloads=verify_payloads)
        layout.materialise(array)
        scheduler = cls._make_scheduler(
            scheme, layout, array, config, protocol, pool_clusters,
            admission_limit, verify_payloads, proactive_parity,
            mirror_read_balance)
        return cls(layout, array, scheduler, catalog)

    @staticmethod
    def _make_scheduler(scheme: Scheme, layout: DataLayout, array: DiskArray,
                        config: SchedulerConfig,
                        protocol: TransitionProtocol,
                        pool_clusters: Optional[int],
                        admission_limit: Optional[int],
                        verify_payloads: bool,
                        proactive_parity: bool = False,
                        mirror_read_balance: bool = False) -> CycleScheduler:
        common = dict(admission_limit=admission_limit,
                      verify_payloads=verify_payloads)
        if scheme is Scheme.STREAMING_RAID:
            return StreamingRAIDScheduler(layout, array, config, **common)
        if scheme is Scheme.STAGGERED_GROUP:
            return StaggeredGroupScheduler(layout, array, config, **common)
        if scheme is Scheme.NON_CLUSTERED:
            if pool_clusters is None:
                pool_clusters = config.params.reserve_k
            pool = BufferPool(
                capacity_clusters=pool_clusters,
                tracks_per_cluster=config.stripe_width * config.slots_per_disk,
            )
            return NonClusteredScheduler(layout, array, config,
                                         protocol=protocol, pool=pool,
                                         **common)
        if scheme is Scheme.PARITY_DECLUSTERED:
            return DeclusteredParityScheduler(layout, array, config, **common)
        return ImprovedBandwidthScheduler(
            layout, array, config, proactive_parity=proactive_parity,
            mirror_read_balance=mirror_read_balance, **common)

    # -- delegation --------------------------------------------------------------

    @property
    def config(self) -> SchedulerConfig:
        """The scheduler's configuration."""
        return self.scheduler.config

    @property
    def report(self) -> SimulationReport:
        """Accumulated simulation metrics."""
        return self.scheduler.report

    @property
    def cycle_index(self) -> int:
        """The next cycle to run."""
        return self.scheduler.cycle_index

    def admit(self, object_name: str) -> Stream:
        """Admit one stream for a catalog object."""
        return self.scheduler.admit(self.catalog.get(object_name))

    def run_cycle(self) -> CycleReport:
        """Simulate one cycle."""
        return self.scheduler.run_cycle()

    def run_cycles(self, count: int,
                   fast_forward: bool = False) -> list[CycleReport]:
        """Simulate ``count`` cycles (optionally with epoch fast-forward;
        see :meth:`CycleScheduler.run_cycles`)."""
        return self.scheduler.run_cycles(count, fast_forward=fast_forward)

    def run_with_schedule(self, cycles: int, schedule: FaultSchedule,
                          fast_forward: bool = False) -> list[CycleReport]:
        """Simulate with scripted failures applied between cycles.

        Each event lands at the top of the cycle it names.  With
        ``fast_forward=True`` the epoch engine batches the cycles between
        events, bit-identically to the scalar loop (see
        :meth:`CycleScheduler.run_churn`).
        """
        return self.scheduler.run_churn(cycles, {}, fast_forward,
                                        schedule)[0]

    def run_workload(self, trace: Union[Sequence["StreamRequest"],
                                        "CompiledTrace"],
                     cycles: int,
                     fast_forward: bool = False,
                     schedule: Optional[FaultSchedule] = None,
                     ) -> WorkloadResult:
        """Drive the server with a request trace for a number of cycles.

        ``trace`` is either a sequence of
        :class:`~repro.workload.generator.StreamRequest` or a pre-built
        :class:`~repro.workload.compiler.CompiledTrace`; each cycle's
        requests are batch-admitted at the start of their arrival cycle,
        and requests that hit the admission limit are counted as rejected
        (the blocking model of a video-on-demand front door).  Requests
        whose arrival cycle falls outside the simulated window are
        reported as ``unarrived`` rather than silently dropped.

        The run goes through :meth:`CycleScheduler.run_churn`: with
        ``fast_forward=True`` arrival batches are admitted inside the
        epoch fast-forward engine and the stable stretches between them
        are vectorised, with results bit-identical to the scalar loop.
        An optional ``schedule`` scripts disk faults, each landing on
        exactly the cycle it names.
        """
        from repro.workload.compiler import CompiledTrace, compile_trace
        compiled = (trace if isinstance(trace, CompiledTrace)
                    else compile_trace(trace, self.config.cycle_length_s))
        start = self.scheduler.cycle_index
        end = start + cycles
        arrivals = {
            cycle: tuple(self.catalog.get(name)
                         for name in compiled.arrivals_in(cycle))
            for cycle in compiled.event_cycles()
            if start <= cycle < end
        }
        _, admitted, rejected = self.scheduler.run_churn(
            cycles, arrivals, fast_forward, schedule)
        unarrived = compiled.total - (compiled.arrivals_before(end)
                                      - compiled.arrivals_before(start))
        return WorkloadResult(admitted, rejected, unarrived)

    def fail_disk(self, disk_id: int, mid_cycle: bool = False) -> None:
        """Fail a disk before the next cycle (idempotent)."""
        self.scheduler.fail_disk(disk_id, mid_cycle=mid_cycle)

    def repair_disk(self, disk_id: int) -> None:
        """Repair a disk before the next cycle (idempotent)."""
        self.scheduler.repair_disk(disk_id)

    def degrade_disk(self, disk_id: int, slowdown: float) -> None:
        """Put a disk into fail-slow mode before the next cycle."""
        self.scheduler.degrade_disk(disk_id, slowdown)

    def restore_disk(self, disk_id: int) -> None:
        """Return a fail-slow disk to full speed (idempotent)."""
        self.scheduler.restore_disk(disk_id)

    def inject_media_error(self, disk_id: int, position: int,
                           transient: bool = False) -> None:
        """Plant a media error at one track position of one disk."""
        self.scheduler.inject_media_error(disk_id, position,
                                          transient=transient)

    @property
    def is_catastrophic(self) -> bool:
        """True if the current failure set loses data."""
        failed = self.array.failed_ids
        return bool(failed) and self.layout.is_catastrophic_geometric(failed)

    @property
    def lost_tracks(self) -> dict[str, tuple[int, ...]]:
        """Tracks currently unreconstructable, per object."""
        return self.scheduler.lost_tracks

    # -- timed runs ---------------------------------------------------------------

    def run_timed(self, duration_s: float,
                  mttf_s: Optional[float] = None,
                  mttr_s: Optional[float] = None,
                  seed: int = 0,
                  scrub_interval_s: Optional[float] = None,
                  ) -> SimulationReport:
        """Run ``duration_s`` of cycles under stochastic disk failures.

        Samples :meth:`FaultSchedule.exponential` over the horizon
        (MTTF/MTTR defaulting to the drive spec's values), keeps it as
        :attr:`last_schedule` and runs it through
        :meth:`CycleScheduler.run_churn` with fast-forward on.  Every
        cycle that starts before the horizon runs, the ``k``-th of them
        starting ``k * config.cycle_length_s`` in.  Each fault strikes
        the top of the first cycle that starts at or after it; the
        faults after the last cycle start are applied at the end.

        ``scrub_interval_s`` adds a
        :class:`~repro.faults.domain.SectorScrubber`
        (:attr:`last_scrubber`) that runs ``floor(duration_s /
        scrub_interval_s)`` passes, one every interval, placed on the
        same clock, as the schedule's patrol: a pass runs before the
        faults at its top, the order the chaos harness uses.
        """
        from repro.faults.domain import SectorScrubber
        if duration_s < 0:
            raise ValueError("cannot run for a negative duration")
        if scrub_interval_s is not None and scrub_interval_s <= 0:
            raise ValueError("scrub period must be positive")
        scheduler = self.scheduler
        spec = self.array.spec
        cycle_length = self.config.cycle_length_s
        start = scheduler.cycle_index
        end = start + cycles_before(duration_s, cycle_length)
        schedule = FaultSchedule.exponential(
            len(self.array),
            mttf_s if mttf_s is not None else spec.mttf_s,
            mttr_s if mttr_s is not None else spec.mttr_s,
            cycle_length, duration_s, RandomSource(seed), first_cycle=start)
        if scrub_interval_s is not None:
            self.last_scrubber = SectorScrubber(self.array)
            schedule = FaultSchedule(schedule, (self.last_scrubber, [
                start + cycles_before(index * scrub_interval_s, cycle_length)
                for index in range(1, math.floor(duration_s
                                                 / scrub_interval_s) + 1)]))
        self.last_schedule = schedule
        scheduler.run_churn(end - start, {}, True, schedule)
        schedule.apply(scheduler, end)
        return self.report
