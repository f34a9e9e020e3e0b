"""Seeded chaos campaigns: randomized fault storms with hard invariants.

A campaign deterministically generates a fault *script* from a seed —
whole-disk failures and repairs (sometimes striking mid-cycle), fail-slow
degradations and restorations, and latent sector errors — then replays it
against a scheme's full server stack while a background scrubber patrols.
The replay is checked against the invariants the paper's design promises:

* **Determinism** — replaying the same script twice produces bit-identical
  reports (compared by a SHA-256 digest of the canonical snapshot).
* **Mode equivalence** — the metadata-only fast path and the byte-verified
  payload mode agree on every metric, hiccup and stream outcome, and the
  verified replay sees zero payload mismatches.
* **Hiccup discipline** — hiccups only occur where the paper permits
  them: double failures, mid-cycle strikes, scheme transitions within a
  bounded window, or media errors colliding with other faults.  A healthy
  single-failure mode must stay hiccup-free for the clustered schemes,
  and a lone latent sector error must never hiccup anyone.

Used by ``python -m repro chaos`` and the CI smoke job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.parameters import SystemParameters
from repro.faults.domain import SectorScrubber
from repro.faults.injector import FaultAction, FaultEvent, FaultSchedule
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.parallel import TaskSpec, run_tasks
from repro.schemes import Scheme
from repro.sim.rng import RandomSource
from repro.units import kilobytes

#: Track payload size for chaos servers: tiny (64 bytes), so payload-mode
#: replays (the mode-equivalence invariant) stay cheap.
TRACK_SIZE_MB = kilobytes(0.064)

#: Parity group size of every chaos server.
PARITY_GROUP_SIZE = 5


@dataclass(frozen=True)
class ChaosProfile:
    """Knobs of one campaign's fault mix (all probabilities per cycle).

    ``num_disks``/``objects``/``tracks_per_object`` size the farm the
    storm rages over.  The defaults (``num_disks=None``) keep the
    classic chaos-sized server — 10 disks (11 declustered, 12
    improved-bandwidth), four 40-track objects — so existing campaign
    digests are untouched; the chaos *benchmark* overrides them to a
    1000-disk farm so its fast-forward numbers reflect production
    scale, not a toy.
    """

    cycles: int = 40
    max_concurrent_failures: int = 2
    fail_probability: float = 0.18
    repair_probability: float = 0.30
    mid_cycle_probability: float = 0.30
    degrade_probability: float = 0.12
    restore_probability: float = 0.35
    media_probability: float = 0.25
    transient_probability: float = 0.50
    slowdowns: tuple[float, ...] = (1.5, 2.0)
    num_disks: Optional[int] = None
    objects: int = 4
    tracks_per_object: int = 40

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("a campaign needs at least one cycle")
        if self.max_concurrent_failures < 0:
            raise ValueError("max_concurrent_failures must be >= 0")
        if self.num_disks is not None and self.num_disks < 5:
            raise ValueError(
                f"a chaos farm needs >= 5 disks, got {self.num_disks}")
        if self.objects < 1:
            raise ValueError(f"objects must be >= 1, got {self.objects}")
        if self.tracks_per_object < 1:
            raise ValueError(
                f"tracks_per_object must be >= 1, "
                f"got {self.tracks_per_object}")


@dataclass
class ChaosResult:
    """Outcome of one scheme's campaign."""

    scheme: Scheme
    seed: int
    cycles: int
    events: int
    digest: str
    total_hiccups: int
    total_media_errors: int
    total_streams_shed: int
    data_loss_events: int
    scrub_repairs: int
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return not self.violations


def build_chaos_server(scheme: Scheme, verify_payloads: bool = False,
                       profile: Optional[ChaosProfile] = None) -> Any:
    """A chaos-campaign server; the profile sizes the farm.

    Without a profile (or with ``profile.num_disks=None``) the classic
    chaos server is built: 10 disks (11 declustered for block-design
    balance, 12 improved-bandwidth for whole clusters) holding four
    40-track objects.
    """
    from repro.server.server import MultimediaServer
    if profile is not None and profile.num_disks is not None:
        num_disks = profile.num_disks
    elif scheme is Scheme.IMPROVED_BANDWIDTH:
        num_disks = 12
    elif scheme is Scheme.PARITY_DECLUSTERED:
        # A prime farm size gives the declustered block design exact
        # pairwise balance (no phantom rows).
        num_disks = 11
    else:
        num_disks = 10
    objects = profile.objects if profile is not None else 4
    tracks = profile.tracks_per_object if profile is not None else 40
    params = SystemParameters.paper_table1(
        num_disks=num_disks,
        track_size_mb=TRACK_SIZE_MB,
        disk_capacity_mb=TRACK_SIZE_MB * 4000,
    )
    catalog = Catalog()
    for index in range(objects):
        catalog.add(MediaObject(f"m{index}", 0.1875, tracks, seed=index))
    return MultimediaServer.build(
        params, PARITY_GROUP_SIZE, scheme, catalog=catalog, slots_per_disk=8,
        verify_payloads=verify_payloads)


def generate_script(scheme: Scheme, seed: int,
                    profile: ChaosProfile) -> list[FaultEvent]:
    """Deterministically roll one scheme's fault script from a seed.

    The generator mirrors the scheduler's fault-domain state (who is
    failed, who is fail-slow) so it never scripts an illegal transition —
    e.g. degrading a failed disk or restoring an operational one — and it
    spaces latent-error injections far enough apart for the per-cycle
    scrubber to keep up.
    """
    probe = build_chaos_server(scheme, profile=profile)
    num_disks = len(probe.array)
    media_gap = PARITY_GROUP_SIZE + 4
    # Candidate media-error targets: every stored block (data and parity)
    # of every object, so injected errors land where streams actually
    # read and the retry/parity-fallback path gets exercised.  The list
    # keeps allocation order: a group's members, then its parity.
    blocks: list[tuple[int, int]] = []
    for obj in probe.layout.objects:
        disks, positions = probe.layout.allocation_order(obj.name)
        blocks.extend(zip(disks.tolist(), positions.tolist()))
    rng = RandomSource(seed)
    tag = scheme.value
    events: list[FaultEvent] = []
    failed: set[int] = set()
    degraded: set[int] = set()
    last_media = -media_gap
    for cycle in range(profile.cycles):
        # Whole-disk failures and repairs.
        if len(failed) < profile.max_concurrent_failures \
                and rng.random(f"{tag}-fail") < profile.fail_probability:
            candidates = [d for d in range(num_disks) if d not in failed]
            disk = candidates[rng.integers(f"{tag}-fail-pick", 0,
                                           len(candidates))]
            mid = (rng.random(f"{tag}-mid")
                   < profile.mid_cycle_probability)
            events.append(FaultEvent(cycle, disk, FaultAction.FAIL,
                                     mid_cycle=mid))
            failed.add(disk)
            degraded.discard(disk)  # the failure overrides fail-slow
        elif failed and rng.random(f"{tag}-repair") \
                < profile.repair_probability:
            pool = sorted(failed)
            disk = pool[rng.integers(f"{tag}-repair-pick", 0, len(pool))]
            events.append(FaultEvent(cycle, disk, FaultAction.REPAIR))
            failed.discard(disk)
        # Fail-slow transitions.
        if not degraded and rng.random(f"{tag}-degrade") \
                < profile.degrade_probability:
            candidates = [d for d in range(num_disks)
                          if d not in failed and d not in degraded]
            if candidates:
                disk = candidates[rng.integers(f"{tag}-degrade-pick", 0,
                                               len(candidates))]
                slowdown = profile.slowdowns[rng.integers(
                    f"{tag}-slowdown", 0, len(profile.slowdowns))]
                events.append(FaultEvent(cycle, disk, FaultAction.DEGRADE,
                                         slowdown=slowdown))
                degraded.add(disk)
        elif degraded and rng.random(f"{tag}-restore") \
                < profile.restore_probability:
            pool = sorted(degraded)
            disk = pool[rng.integers(f"{tag}-restore-pick", 0, len(pool))]
            events.append(FaultEvent(cycle, disk, FaultAction.RESTORE))
            degraded.discard(disk)
        # Latent sector errors, paced for the scrubber.
        if cycle - last_media >= media_gap \
                and rng.random(f"{tag}-media") < profile.media_probability:
            candidates = [(d, p) for d, p in blocks if d not in failed]
            if candidates:
                disk, position = candidates[rng.integers(
                    f"{tag}-media-pick", 0, len(candidates))]
                transient = (rng.random(f"{tag}-transient")
                             < profile.transient_probability)
                events.append(FaultEvent(cycle, disk,
                                         FaultAction.MEDIA_ERROR,
                                         position=position,
                                         transient=transient))
                last_media = cycle
    return events


def replay(scheme: Scheme, events: list[FaultEvent], cycles: int,
           verify_payloads: bool = False,
           fast_forward: bool = True,
           profile: Optional[ChaosProfile] = None) -> dict[str, Any]:
    """Replay a fault script on a fresh server; returns the snapshot.

    One ``run_churn`` call: the script's events before ``cycles``; a
    closed loop of arrivals (every title not playing, at every top), so
    degraded-mode admission meets every fault transition; and a scrub
    pass at every top after the first, ahead of its faults, so a fresh
    latent error stays readable by streams for a cycle.  The snapshot is
    bit-identical with ``fast_forward`` on or off.
    """
    from repro.sched.epoch import ClosedLoop
    server = build_chaos_server(scheme, verify_payloads=verify_payloads,
                                profile=profile)
    scrubber = SectorScrubber(server.array, tracks_per_pass=2)
    schedule = FaultSchedule([e for e in events if e.cycle < cycles],
                             (scrubber, range(1, cycles + 1)))
    rejected = server.scheduler.run_churn(
        cycles, ClosedLoop(tuple(server.catalog.objects())), fast_forward,
        schedule)[2]
    schedule.apply(server.scheduler, cycles)  # the last pass
    snap = snapshot(server, scrubber)
    snap["admissions_rejected"] = rejected
    return snap


def snapshot(server: Any, scrubber: Optional[SectorScrubber] = None,
             ) -> dict[str, Any]:
    """Everything observable about a finished run, JSON-canonical."""
    report = server.report
    scheduler = server.scheduler
    snap: dict[str, Any] = {
        "scheme": server.config.scheme.value,
        "rows": report.to_rows(),
        "payload_mismatches": report.payload_mismatches,
        "hiccups": [
            [h.cycle, h.stream_id, h.object_name, h.track, h.cause.value]
            for h in report.all_hiccups()
        ],
        "data_loss": [
            [e.cycle, list(e.failed_disks),
             {name: list(tracks)
              for name, tracks in sorted(e.lost_tracks.items())},
             list(e.shed_streams)]
            for e in report.data_loss_events
        ],
        "reads_per_disk": [d.reads for d in server.array.disks],
        "writes_per_disk": [d.writes for d in server.array.disks],
        "media_per_disk": [
            [d.media_errors_injected, d.media_errors_cleared]
            for d in server.array.disks
        ],
        "streams": [
            [s.stream_id, s.status.value, s.delivered_tracks,
             s.hiccup_count, s.reconstructed_tracks,
             sorted(s.lost_tracks)]
            for s in scheduler.streams.values()
        ],
        "lost_tracks": {name: list(tracks)
                        for name, tracks in server.lost_tracks.items()},
        "redundant_fault_commands": scheduler.redundant_fault_commands,
    }
    if scrubber is not None:
        snap["scrub"] = [scrubber.passes_run, scrubber.errors_repaired]
    return snap


def snapshot_digest(snap: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of a snapshot."""
    canonical = json.dumps(snap, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- hiccup classification ------------------------------------------------------


class _Allowances:
    """Per-cycle windows in which each hiccup class is legitimate."""

    __slots__ = ("multi", "mid", "fault_window", "degrade_window")

    def __init__(self, events: list[FaultEvent], cycles: int,
                 window: int) -> None:
        self.multi: set[int] = set()
        self.mid: set[int] = set()
        self.fault_window: set[int] = set()
        self.degrade_window: set[int] = set()
        by_cycle: dict[int, list[FaultEvent]] = {}
        for event in events:
            by_cycle.setdefault(event.cycle, []).append(event)
        failed: set[int] = set()
        degraded: set[int] = set()
        horizon = cycles + window + 1
        for cycle in range(cycles):
            for event in by_cycle.get(cycle, ()):
                span = range(cycle, min(cycle + window + 1, horizon))
                if event.action is FaultAction.FAIL:
                    failed.add(event.disk_id)
                    degraded.discard(event.disk_id)
                    self.fault_window.update(span)
                    if event.mid_cycle:
                        self.mid.update(span)
                elif event.action is FaultAction.REPAIR:
                    failed.discard(event.disk_id)
                    self.fault_window.update(span)
                elif event.action is FaultAction.DEGRADE:
                    degraded.add(event.disk_id)
                    self.degrade_window.update(span)
                elif event.action is FaultAction.RESTORE:
                    degraded.discard(event.disk_id)
                    self.degrade_window.update(span)
            if len(failed) >= 2:
                self.multi.update(
                    range(cycle, min(cycle + window + 1, horizon)))
            if failed:
                self.fault_window.add(cycle)
            if degraded:
                self.degrade_window.add(cycle)

    def permits(self, scheme: Scheme, cycle: int, cause: str) -> bool:
        """Whether the paper's bounds excuse this hiccup."""
        if cause == "data-loss":
            return cycle in self.multi
        if cause == "mid-cycle-failure":
            return cycle in self.mid
        if cause == "media-error":
            # A lone latent error must be absorbed by retry + parity;
            # only a concurrent fault excuses a media hiccup.
            return (cycle in self.fault_window
                    or cycle in self.degrade_window)
        if cause == "slot-overflow":
            return (cycle in self.degrade_window or cycle in self.multi
                    or (scheme in _TRANSITION_SCHEMES
                        and cycle in self.fault_window))
        # disk-failure / transition / buffer-exhausted: the staggered and
        # non-clustered schemes hiccup during bounded transitions; the
        # clustered-parity group reads (SR) and the shift-right cascade
        # (IB) must stay clean outside double failures and mid-cycle hits.
        if scheme in _TRANSITION_SCHEMES:
            return cycle in self.fault_window or cycle in self.multi
        return cycle in self.multi or cycle in self.mid


_TRANSITION_SCHEMES = frozenset(
    {Scheme.STAGGERED_GROUP, Scheme.NON_CLUSTERED})


# -- campaigns ------------------------------------------------------------------


def run_campaign(scheme: Scheme, seed: int,
                 profile: Optional[ChaosProfile] = None,
                 check_payload_mode: bool = True,
                 fast_forward: bool = True) -> ChaosResult:
    """Run one scheme's seeded campaign; returns invariant results.

    ``fast_forward`` lets the replays ride the epoch engines (default);
    the payload-mode replay always runs scalar cycles (the engines
    refuse payload mode), so the mode-equivalence invariant doubles as
    a fast-vs-scalar digest check on every campaign.
    """
    profile = profile if profile is not None else ChaosProfile()
    events = generate_script(scheme, seed, profile)
    window = PARITY_GROUP_SIZE + 3
    violations: list[str] = []

    first = replay(scheme, events, profile.cycles,
                   fast_forward=fast_forward, profile=profile)
    second = replay(scheme, events, profile.cycles,
                    fast_forward=fast_forward, profile=profile)
    digest = snapshot_digest(first)
    if snapshot_digest(second) != digest:
        violations.append("replay of the same script diverged "
                          "(determinism broken)")
    if check_payload_mode:
        verified = replay(scheme, events, profile.cycles,
                          verify_payloads=True,
                          fast_forward=fast_forward, profile=profile)
        if verified["payload_mismatches"]:
            violations.append(
                f"{verified['payload_mismatches']} payload mismatches in "
                "the byte-verified replay")
            verified["payload_mismatches"] = 0
        if snapshot_digest(verified) != digest:
            violations.append("metadata-only and payload-mode replays "
                              "disagree")

    allowances = _Allowances(events, profile.cycles, window)
    for cycle, stream_id, name, track, cause in first["hiccups"]:
        if not allowances.permits(scheme, cycle, cause):
            violations.append(
                f"unexcused hiccup: cycle {cycle} stream {stream_id} "
                f"{name!r} track {track} ({cause})")

    rows = first["rows"]
    return ChaosResult(
        scheme=scheme,
        seed=seed,
        cycles=profile.cycles,
        events=len(events),
        digest=digest,
        total_hiccups=len(first["hiccups"]),
        total_media_errors=sum(r["media_errors"] for r in rows),
        total_streams_shed=sum(r["streams_shed"] for r in rows),
        data_loss_events=len(first["data_loss"]),
        scrub_repairs=first["scrub"][1],
        violations=violations,
    )


def run_campaign_grid(seeds: list[int],
                      schemes: Optional[list[Scheme]] = None,
                      profile: Optional[ChaosProfile] = None,
                      check_payload_mode: bool = True,
                      workers: int = 1,
                      fast_forward: bool = True) -> list[ChaosResult]:
    """Campaigns over a ``seeds x schemes`` grid, in (seed, scheme) order.

    The full grid is one flat task list, so a pool sees maximum
    parallel width; the merged result order (seed-major, then scheme)
    is independent of workers.
    """
    from repro.schemes import ALL_IMPLEMENTED_SCHEMES
    if schemes is None:
        schemes = list(ALL_IMPLEMENTED_SCHEMES)
    tasks = [
        TaskSpec(run_campaign, args=(scheme, seed),
                 kwargs={"profile": profile,
                         "check_payload_mode": check_payload_mode,
                         "fast_forward": fast_forward},
                 label=f"chaos-{scheme.value}-{seed}")
        for seed in seeds for scheme in schemes
    ]
    results: list[ChaosResult] = run_tasks(tasks, workers)
    return results
