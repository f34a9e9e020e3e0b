"""Monte-Carlo reliability: simulated MTTF / MTTDS versus the closed forms.

The paper's equations (4)–(6) are standard birth–death approximations valid
for ``MTTR << MTTF``.  This module estimates the same quantities by direct
simulation of the failure/repair process (exponential lifetimes and repair
times per disk, event-driven, no cycle machinery), so the approximations
can be *validated*: with accelerated per-disk MTTF the simulated mean time
to catastrophe matches ``MTTF^2 / (D (C-1) MTTR)`` within sampling error,
and the IB layout shows the ``(2C-1)/(C-1)`` penalty.

:func:`measure_rebuild_window` closes the loop with the cycle machinery:
it times one online rebuild under streaming load (riding the
stable-degraded fast-forward engine), and
:func:`simulate_mttds_with_measured_window` feeds that measured window
into the Monte-Carlo estimate as the per-disk MTTR instead of a guess.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.parallel import TaskSpec, run_tasks, shard_ranges
from repro.sim.rng import RandomSource
from repro.units import hours_to_years, seconds_to_hours

if TYPE_CHECKING:
    from repro.layout.base import DataLayout

#: A stopping condition: given the set of currently failed disks, is the
#: system in the terminal state?
Condition = Callable[[set[int]], bool]


def catastrophic_condition(layout: "DataLayout") -> Condition:
    """Terminal when the layout loses data (uses layout geometry).

    Returns a bound method of the layout, so the condition pickles with
    its geometry and rides into spawn workers unchanged.
    """
    return layout.is_catastrophic_geometric


@dataclass(frozen=True)
class _KConcurrent:
    """Picklable ``len(failed) >= k`` predicate (spawn-safe)."""

    k: int

    def __call__(self, failed: set[int]) -> bool:
        return len(failed) >= self.k


def k_concurrent_condition(k: int) -> Condition:
    """Terminal when ``k`` disks are down at once (the eq. 6 family)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _KConcurrent(k)


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Monte-Carlo result: sample mean with a normal-theory 95% CI."""

    samples: int
    mean_hours: float
    stdev_hours: float

    @property
    def ci95_hours(self) -> float:
        """Half-width of the 95% confidence interval."""
        if self.samples < 2:
            return float("inf")
        return 1.96 * self.stdev_hours / math.sqrt(self.samples)

    @property
    def mean_years(self) -> float:
        """Sample mean in years."""
        return hours_to_years(self.mean_hours)

    def consistent_with(self, expected_hours: float,
                        tolerance: float = 3.0) -> bool:
        """True if ``expected`` lies within ``tolerance`` x CI of the mean."""
        return abs(self.mean_hours - expected_hours) <= \
            tolerance * max(self.ci95_hours, 1e-12)


@dataclass(frozen=True)
class RebuildWindow:
    """A cycle-accurate measurement of one online rebuild under load."""

    cycles: int
    hours: float
    blocks: int
    ff_engaged_cycles: int
    #: Reconstruction reads served by each survivor (every disk except the
    #: one being rebuilt, in disk-id order).  Clustered layouts concentrate
    #: these on the failed disk's group mates; declustered layouts spread
    #: them, which :attr:`read_spread` quantifies.
    survivor_reads: tuple[int, ...] = ()

    @property
    def ff_residency(self) -> float:
        """Fraction of the window's cycles the fast path served."""
        if self.cycles == 0:
            return 0.0
        return self.ff_engaged_cycles / self.cycles

    @property
    def max_survivor_reads(self) -> int:
        """Reconstruction reads on the busiest survivor."""
        return max(self.survivor_reads, default=0)

    @property
    def mean_survivor_reads(self) -> float:
        """Reconstruction reads averaged over all survivors."""
        if not self.survivor_reads:
            return 0.0
        return sum(self.survivor_reads) / len(self.survivor_reads)

    @property
    def read_spread(self) -> float:
        """Max/mean survivor read load — 1.0 is perfectly balanced.

        A clustered rebuild confined to one parity group scores ~``D/C``;
        a well-declustered distributed rebuild stays near 1.
        """
        mean = self.mean_survivor_reads
        if mean == 0.0:
            return 0.0
        return self.max_survivor_reads / mean


def measure_rebuild_window(server: Any, disk_id: int = 0,
                           writes_per_cycle: Optional[int] = None,
                           max_cycles: int = 1_000_000,
                           fast_forward: bool = True) -> RebuildWindow:
    """Fail one disk of a (typically warm) server and time the rebuild.

    The paper's MTTDS closed forms take the repair window MTTR as a
    given; this measures it from the machinery itself — the online
    rebuild consumes only the slots the streaming load leaves idle, so
    the window stretches with utilisation.  With ``fast_forward`` the
    run rides the stable-degraded epoch engine (the scalar loop is
    bit-identical, just slower); the returned window reports how many
    cycles the engine actually served so callers can assert fast-path
    residency.  It runs in ``run_churn`` chunks of ⌈remaining blocks /
    ``writes_per_cycle``⌉ cycles, the fewest that could finish the
    rebuild, so it completes only in a chunk's last cycle.
    """
    scheduler = server.scheduler
    scheduler.fail_disk(disk_id)
    rebuilder = scheduler.start_rebuild(
        disk_id, writes_per_cycle=writes_per_cycle)
    start = scheduler.cycle_index
    engaged_start = server.report.ff_engaged_cycles
    while not rebuilder.completed:
        elapsed = scheduler.cycle_index - start
        if elapsed >= max_cycles:
            raise RuntimeError(
                f"rebuild of disk {disk_id} not finished after "
                f"{max_cycles} cycles ({rebuilder.blocks_rebuilt}/"
                f"{rebuilder.total_blocks} blocks)")
        remaining = rebuilder.total_blocks - rebuilder.blocks_rebuilt
        scheduler.run_churn(
            min(-(-remaining // rebuilder.writes_per_cycle),
                max_cycles - elapsed), {}, fast_forward)
    cycles = scheduler.cycle_index - start
    return RebuildWindow(
        cycles=cycles,
        hours=seconds_to_hours(cycles * server.config.cycle_length_s),
        blocks=rebuilder.total_blocks,
        ff_engaged_cycles=(server.report.ff_engaged_cycles
                           - engaged_start),
        survivor_reads=tuple(
            rebuilder.source_reads.get(survivor, 0)
            for survivor in range(len(server.array))
            if survivor != disk_id),
    )


def simulate_mttds_with_measured_window(
        server: Any, condition: Condition,
        mttf_disk_hours: float,
        disk_id: int = 0,
        replications: int = 200, seed: int = 0,
        workers: int = 1,
        fast_forward: bool = True,
        ) -> tuple[RebuildWindow, ReliabilityEstimate]:
    """MTTDS with the repair window *measured*, not assumed.

    Times one online rebuild of ``server`` (riding the degraded
    fast-forward engine by default), then runs the Monte-Carlo
    mean-time-to-condition with that window as the per-disk MTTR.
    Returns ``(window, estimate)`` so callers can report both.
    """
    window = measure_rebuild_window(server, disk_id=disk_id,
                                    fast_forward=fast_forward)
    estimate = simulate_mean_time_to(
        num_disks=len(server.array),
        mttf_disk_hours=mttf_disk_hours,
        mttr_disk_hours=max(window.hours, 1e-9),
        condition=condition,
        replications=replications,
        seed=seed,
        workers=workers,
    )
    return window, estimate


def _one_replication(num_disks: int, mttf_h: float, mttr_h: float,
                     condition: Condition,
                     rng: RandomSource, replica: int) -> float:
    """Time (hours) until the condition first holds, one sample path."""
    source = rng.spawn(f"replica-{replica}")
    # Event heap: (time, disk, is_failure).
    heap: list[tuple[float, int, bool]] = []
    for disk in range(num_disks):
        heapq.heappush(heap,
                       (source.exponential("events", mttf_h), disk, True))
    failed: set[int] = set()
    while True:
        time, disk, is_failure = heapq.heappop(heap)
        if is_failure:
            failed.add(disk)
            if condition(failed):
                return time
            heapq.heappush(
                heap, (time + source.exponential("events", mttr_h),
                       disk, False))
        else:
            failed.discard(disk)
            heapq.heappush(
                heap, (time + source.exponential("events", mttf_h),
                       disk, True))


def _replication_batch(num_disks: int, mttf_h: float, mttr_h: float,
                       condition: Condition, seed: int,
                       start: int, stop: int) -> list[float]:
    """Replicas ``start..stop-1`` of one ensemble (spawn-safe shard).

    Each replica's RNG is spawned from a fresh root source by its own
    index, so the samples depend only on ``(seed, replica)`` — never on
    how the ensemble was sliced into shards or which worker ran them.
    """
    rng = RandomSource(seed)
    return [
        _one_replication(num_disks, mttf_h, mttr_h, condition, rng, replica)
        for replica in range(start, stop)
    ]


def simulate_mean_time_to(num_disks: int, mttf_disk_hours: float,
                          mttr_disk_hours: float, condition: Condition,
                          replications: int = 200,
                          seed: int = 0,
                          workers: int = 1,
                          ) -> ReliabilityEstimate:
    """Estimate the mean time until ``condition`` first holds.

    Use accelerated (small) per-disk MTTF values so replications finish in
    reasonable time; the *ratio* to the closed form is scale-free, which is
    what the validation benchmarks check.

    The replications run as ``4 x workers`` equal spans
    (:func:`~repro.parallel.run_tasks`), a few per worker so an unlucky
    long replica cannot serialise the tail of the run; ``condition``
    must be picklable (the module's condition factories all are).
    Results are **bit-identical** for every worker count: replica RNG
    streams depend only on ``(seed, replica)`` and span results are
    concatenated in replica order.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    if num_disks < 1:
        raise ValueError(f"need at least one disk, got {num_disks}")
    if mttf_disk_hours <= 0 or mttr_disk_hours <= 0:
        raise ValueError("mttf and mttr must be positive")
    tasks = [
        TaskSpec(_replication_batch,
                 args=(num_disks, mttf_disk_hours, mttr_disk_hours,
                       condition, seed, start, stop),
                 label=f"replications-{start}-{stop}")
        for start, stop in shard_ranges(replications, 4 * workers)
    ]
    samples = [sample for batch in run_tasks(tasks, workers)
               for sample in batch]
    mean = sum(samples) / len(samples)
    if len(samples) > 1:
        variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
    else:
        variance = 0.0
    return ReliabilityEstimate(
        samples=len(samples),
        mean_hours=mean,
        stdev_hours=math.sqrt(variance),
    )
