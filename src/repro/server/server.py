"""The multimedia-server facade: build everything, run scenarios.

``MultimediaServer`` assembles the full stack for one scheme:

* the data layout for the scheme family (clustered or shifted parity);
* a :class:`~repro.disk.drive.DiskArray` materialised with deterministic
  payloads and real XOR parity;
* the scheme's cycle scheduler with buffer accounting;
* optional fault scripting (:class:`~repro.faults.injector.FaultSchedule`)
  or stochastic timed co-simulation on the DES kernel.

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

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:
    from repro.faults.domain import SectorScrubber
    from repro.workload.compiler import CompiledTrace
    from repro.workload.generator import StreamRequest

from repro.analysis.parameters import SystemParameters
from repro.buffers.pool import BufferPool
from repro.disk.drive import DiskArray
from repro.errors import ConfigurationError
from repro.faults.injector import ExponentialFaultInjector, FaultSchedule
from repro.layout.base import DataLayout
from repro.layout.clustered import ClusteredParityLayout
from repro.layout.declustered import DeclusteredParityLayout
from repro.layout.improved import ImprovedBandwidthLayout
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
from repro.sim.kernel import Environment
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
        #: The stochastic injector/scrubber of the most recent
        #: :meth:`run_timed` call, kept for post-run counter inspection.
        self.last_injector: Optional[ExponentialFaultInjector] = None
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
              mirror_read_balance: bool = False,
              metrics_tail: Optional[int] = None) -> "MultimediaServer":
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
        if scheme is Scheme.IMPROVED_BANDWIDTH:
            layout: DataLayout = ImprovedBandwidthLayout(
                params.num_disks, parity_group_size)
        elif scheme is Scheme.PARITY_DECLUSTERED:
            layout = DeclusteredParityLayout(params.num_disks,
                                             parity_group_size)
        else:
            layout = ClusteredParityLayout(params.num_disks,
                                           parity_group_size)
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
            mirror_read_balance, metrics_tail)
        return cls(layout, array, scheduler, catalog)

    @staticmethod
    def _make_scheduler(scheme: Scheme, layout: DataLayout, array: DiskArray,
                        config: SchedulerConfig,
                        protocol: TransitionProtocol,
                        pool_clusters: Optional[int],
                        admission_limit: Optional[int],
                        verify_payloads: bool,
                        proactive_parity: bool = False,
                        mirror_read_balance: bool = False,
                        metrics_tail: Optional[int] = None) -> CycleScheduler:
        common = dict(admission_limit=admission_limit,
                      verify_payloads=verify_payloads,
                      metrics_tail=metrics_tail)
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

    def admit_many(self, object_names: list[str]) -> list[Stream]:
        """Admit several streams in order."""
        return [self.admit(name) for name in object_names]

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

        With ``fast_forward=True`` the run is segmented at the schedule's
        event cycles: each segment starts by applying due events, then
        advances to the next event boundary with the epoch fast-forward
        engine enabled — scripted faults therefore land on exactly the
        cycle they name, and results stay bit-identical to the scalar
        loop.  The cycle before a mid-cycle failure strike always runs
        scalar, so the strike finds the in-flight reads it invalidates.
        """
        reports: list[CycleReport] = []
        if not fast_forward:
            for _ in range(cycles):
                schedule.apply(self.scheduler, self.scheduler.cycle_index)
                reports.append(self.scheduler.run_cycle())
            return reports
        end = self.scheduler.cycle_index + cycles
        event_cycles = schedule.event_cycles()
        mid_cycles = set(schedule.mid_cycle_event_cycles())
        while self.scheduler.cycle_index < end:
            current = self.scheduler.cycle_index
            schedule.apply(self.scheduler, current)
            boundary = min((c for c in event_cycles if current < c < end),
                           default=end)
            span = boundary - current
            if boundary in mid_cycles:
                if span > 1:
                    reports.extend(self.scheduler.run_cycles(
                        span - 1, fast_forward=True))
                reports.append(self.scheduler.run_cycle())
            else:
                reports.extend(self.scheduler.run_cycles(
                    span, fast_forward=True))
        return reports

    def run_workload(self, trace: Union[Sequence["StreamRequest"],
                                        "CompiledTrace"],
                     cycles: int,
                     fast_forward: bool = False,
                     schedule: Optional[FaultSchedule] = None,
                     ) -> WorkloadResult:
        """Drive the server with a request trace for a number of cycles.

        ``trace`` is either a sequence of
        :class:`~repro.workload.generator.StreamRequest` or a pre-built
        :class:`~repro.workload.compiler.CompiledTrace`; each request is
        admitted at the start of its arrival cycle, and requests that hit
        the admission limit are counted as rejected (the blocking model
        of a video-on-demand front door).  Requests whose arrival cycle
        falls outside the simulated window are reported as ``unarrived``
        rather than silently dropped.

        With ``fast_forward=True`` the run goes through
        :meth:`CycleScheduler.run_churn`: arrival batches are admitted
        inside the epoch fast-forward engine and the stable stretches
        between them are vectorised, with results bit-identical to the
        scalar loop.  An
        optional ``schedule`` scripts disk faults; with fast-forward the
        run segments at its event cycles so faults land exactly where
        they are scripted.
        """
        from repro.errors import AdmissionError
        from repro.workload.compiler import CompiledTrace, compile_trace
        compiled = (trace if isinstance(trace, CompiledTrace)
                    else compile_trace(trace, self.config.cycle_length_s))
        start = self.scheduler.cycle_index
        end = start + cycles
        admitted = rejected = 0
        if not fast_forward:
            for _ in range(cycles):
                current = self.scheduler.cycle_index
                if schedule is not None:
                    schedule.apply(self.scheduler, current)
                for name in compiled.arrivals_in(current):
                    try:
                        self.admit(name)
                        admitted += 1
                    except AdmissionError:
                        rejected += 1
                self.scheduler.run_cycle()
        else:
            arrivals = {
                cycle: tuple(self.catalog.get(name)
                             for name in compiled.arrivals_in(cycle))
                for cycle in compiled.event_cycles()
                if start <= cycle < end
            }
            event_cycles = (schedule.event_cycles()
                            if schedule is not None else ())
            mid_cycles = (set(schedule.mid_cycle_event_cycles())
                          if schedule is not None else set())
            while self.scheduler.cycle_index < end:
                current = self.scheduler.cycle_index
                if schedule is not None:
                    schedule.apply(self.scheduler, current)
                boundary = min((c for c in event_cycles
                                if current < c < end), default=end)
                span = boundary - current
                # The cycle feeding a mid-cycle strike must execute real
                # reads, so keep it scalar (see run_with_schedule).
                scalar_tail = 1 if boundary in mid_cycles else 0
                if span - scalar_tail > 0:
                    _, batch_admitted, batch_rejected = \
                        self.scheduler.run_churn(span - scalar_tail,
                                                 arrivals)
                    admitted += batch_admitted
                    rejected += batch_rejected
                if scalar_tail:
                    _, batch_admitted, batch_rejected = \
                        self.scheduler.run_churn(1, arrivals,
                                                 fast_forward=False)
                    admitted += batch_admitted
                    rejected += batch_rejected
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

    # -- timed co-simulation ---------------------------------------------------------

    def run_timed(self, duration_s: float,
                  mttf_s: Optional[float] = None,
                  mttr_s: Optional[float] = None,
                  seed: int = 0,
                  scrub_interval_s: Optional[float] = None,
                  ) -> SimulationReport:
        """Run cycles under stochastic failures on the DES kernel.

        A cycle-driver process advances the scheduler every
        ``config.cycle_length_s`` seconds while per-disk fault processes
        (exponential MTTF/MTTR, defaulting to the drive spec's values)
        inject failures and repairs between cycles.  The scheduler's
        fail/repair entry points are idempotent, so the injector drives
        them directly; its counters stay inspectable afterwards via
        :attr:`last_injector`.

        ``scrub_interval_s`` additionally runs a background
        :class:`~repro.faults.domain.SectorScrubber` process on the same
        kernel, repairing one latent sector error per interval.
        """
        from repro.faults.domain import SectorScrubber
        env = Environment()
        spec = self.array.spec
        injector = ExponentialFaultInjector(
            env=env,
            num_disks=len(self.array),
            mttf_s=mttf_s if mttf_s is not None else spec.mttf_s,
            mttr_s=mttr_s if mttr_s is not None else spec.mttr_s,
            rng=RandomSource(seed),
            on_fail=self.scheduler.fail_disk,
            on_repair=self.scheduler.repair_disk,
        )
        self.last_injector = injector
        injector.start()
        if scrub_interval_s is not None:
            scrubber = SectorScrubber(self.array)
            self.last_scrubber = scrubber
            env.process(scrubber.process(env, scrub_interval_s),
                        name="sector-scrubber")

        def cycle_driver():
            """Advance the scheduler once per cycle period."""
            while True:
                self.scheduler.run_cycle()
                yield env.timeout(self.config.cycle_length_s)

        env.process(cycle_driver(), name="cycle-driver")
        env.run(until=duration_s)
        return self.report
