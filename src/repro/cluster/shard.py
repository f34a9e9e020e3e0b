"""One cluster shard: a full server build, spawn-safe and windowed.

A shard is an ordinary :class:`~repro.server.server.MultimediaServer` —
its own layout, disk array, scheme scheduler, and catalog slice — that
the cluster runner drives through the trace in *windows* between routing
barriers.  Everything a shard's lifetime depends on rides in a frozen
:class:`ShardSpec`, so the session init obeys the ``repro.parallel``
spawn rules (R7): the spec is the only pickle, the server state is built
inside whichever worker owns the session, and it never crosses a process
boundary again.

The three module-level functions are the session protocol:

* :func:`init_shard` — build the server from a spec (session init);
* :func:`run_shard_window` — admit one routed batch dict and advance to
  the window barrier (session step, returns a tiny
  :class:`WindowResult`);
* :func:`finalise_shard` — extract the full :class:`ShardResult`,
  including the shard's :class:`~repro.server.metrics.SimulationReport`
  and a per-disk read-counter fingerprint (final session step).

Each shard keeps one :class:`~repro.sched.base.Churn` driver from init
to finalise, so an epoch the engine opened in one window pauses at the
barrier and resumes in the next: a barrier changes no fault or
admission state, and the shard pays no entry walk, fill or write-back
for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.analysis.parameters import SystemParameters
from repro.faults.injector import FaultEvent, FaultSchedule
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.sched.base import Churn
from repro.schemes import Scheme
from repro.server.metrics import SimulationReport
from repro.server.server import MultimediaServer
from repro.units import bytes_to_mb

#: Toy 64-byte tracks, as in the scale grid: a 1000-disk shard
#: materialises in milliseconds while every cycle metric stays real.
TRACK_BYTES = 64
TRACKS_PER_DISK = 4000
SLOTS_PER_DISK = 8


def shard_params(num_disks: int) -> SystemParameters:
    """Table-1 parameters with toy 64-byte tracks for one shard."""
    return SystemParameters.paper_table1(
        num_disks=num_disks,
        track_size_mb=bytes_to_mb(TRACK_BYTES),
        disk_capacity_mb=bytes_to_mb(TRACK_BYTES * TRACKS_PER_DISK),
    )


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard's build depends on — and nothing else.

    Frozen and fully picklable (scheme enum, media objects and
    :class:`~repro.faults.injector.FaultEvent` records are all
    module-level frozen types), so a spec is a valid
    :class:`~repro.parallel.TaskSpec` payload for a spawn worker.
    """

    shard_id: int
    scheme: Scheme
    num_disks: int
    parity_group_size: int
    objects: tuple[MediaObject, ...]
    slots_per_disk: int = SLOTS_PER_DISK
    admission_limit: Optional[int] = None
    faults: tuple[FaultEvent, ...] = ()
    fast_forward: bool = True

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError(f"shard id must be >= 0, got {self.shard_id}")
        if self.num_disks < self.parity_group_size:
            raise ValueError(
                f"shard {self.shard_id} has {self.num_disks} disks, fewer "
                f"than one parity group ({self.parity_group_size})")
        if not self.objects:
            raise ValueError(f"shard {self.shard_id} holds no objects")

    def schedule(self) -> FaultSchedule:
        """The shard's scripted faults as a :class:`FaultSchedule`."""
        return FaultSchedule(self.faults)


class WindowResult(NamedTuple):
    """What a shard reports back at a routing barrier.

    Deliberately tiny — these four integers are the *only* bytes that
    cross the process boundary per shard per window, and the only
    feedback the router's dispatch decisions may depend on (which is
    what keeps ``workers=1`` vs ``workers=N`` bit-identical: the same
    numbers arrive at the same barriers in the same session order).
    """

    admitted: int
    rejected: int
    streams_active: int
    effective_limit: int


@dataclass
class ShardState:
    """A live shard inside its owning worker: server, its driver (which
    carries the shard's fault schedule) and running tallies."""

    spec: ShardSpec
    server: MultimediaServer
    driver: Churn
    admitted: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class ShardResult:
    """A finished shard's deterministic outcome."""

    shard_id: int
    admitted: int
    rejected: int
    effective_limit: int
    report: SimulationReport
    reads_digest: str = field(repr=False, default="")


def build_shard_server(spec: ShardSpec) -> MultimediaServer:
    """Assemble the shard's full server stack from its spec."""
    catalog = Catalog()
    for obj in spec.objects:
        catalog.add(obj)
    return MultimediaServer.build(
        shard_params(spec.num_disks), spec.parity_group_size, spec.scheme,
        catalog=catalog, slots_per_disk=spec.slots_per_disk,
        admission_limit=spec.admission_limit, verify_payloads=False)


def init_shard(spec: ShardSpec) -> ShardState:
    """Session init: build the shard server and its driver once, inside
    its worker."""
    server = build_shard_server(spec)
    driver = server.scheduler.churn(spec.fast_forward, spec.schedule())
    return ShardState(spec=spec, server=server, driver=driver)


def run_shard_window(state: ShardState,
                     batches: Mapping[int, Sequence[str]],
                     end_cycle: int) -> WindowResult:
    """Session step: admit the routed batches, advance to the barrier.

    ``batches`` maps absolute arrival cycles within the window to the
    object names the router dispatched here; the window is one
    :meth:`~repro.sched.base.Churn.advance` of the shard's driver, so
    fast-forward, churn batching, and the shard's scripted fault
    schedule all behave exactly as they would on a standalone server.
    """
    server = state.server
    cycles = end_cycle - server.cycle_index
    if cycles <= 0:
        raise ValueError(
            f"shard {state.spec.shard_id} asked to run to cycle "
            f"{end_cycle} but is already at {server.cycle_index}")
    get = server.catalog.get
    arrivals = {cycle: tuple(get(name) for name in names)
                for cycle, names in batches.items()}
    _, admitted, rejected = state.driver.advance(cycles, arrivals)
    state.admitted += admitted
    state.rejected += rejected
    return WindowResult(
        admitted=admitted,
        rejected=rejected,
        streams_active=state.driver.streams_active(),
        effective_limit=server.scheduler.effective_admission_limit(),
    )


def finalise_shard(state: ShardState) -> ShardResult:
    """Final session step: close the driver, then package the shard's
    deterministic outcome."""
    state.driver.close()
    hasher = hashlib.sha256()
    for disk in state.server.array:
        hasher.update(f"{disk.disk_id}:{disk.reads}:{disk.writes}\n"
                      .encode("utf-8"))
    return ShardResult(
        shard_id=state.spec.shard_id,
        admitted=state.admitted,
        rejected=state.rejected,
        effective_limit=state.server.scheduler.effective_admission_limit(),
        report=state.server.report,
        reads_digest=hasher.hexdigest(),
    )
