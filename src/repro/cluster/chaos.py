"""Cluster-level chaos: seeded shard fault storms with a determinism gate.

The single-server campaigns in :mod:`repro.faults.chaos` storm one disk
farm; a cluster campaign storms *every shard at once*.  A script of
``(shard, FaultEvent)`` pairs is rolled deterministically from a seed —
per-shard whole-disk failures, some striking mid-cycle, some with a
scheduled repair — and replayed through
:func:`~repro.cluster.runner.run_cluster`, twice:

* once at ``workers=1`` (the serial baseline), and
* once at the requested pool width.

The gate is :meth:`~repro.cluster.runner.ClusterReport.digest` equality:
the digest folds every deterministic cluster metric *including each
shard's per-disk read-counter fingerprint*, so a worker-count-dependent
divergence anywhere in a shard — routing, admission, degraded-mode
reads, rebuild writes — fails the campaign.  Because every shard runs
with fast-forward on (unless the spec disables it), the storm also
exercises the degraded-churn and multi-failure epoch engines inside
shard windows; their scalar-equivalence is covered by the same digest.

Used by ``python -m repro cluster --chaos`` and the cluster tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.runner import ClusterReport, ClusterSpec, run_cluster
from repro.faults.injector import FaultAction, FaultEvent
from repro.sim.rng import RandomSource


@dataclass(frozen=True)
class ClusterChaosProfile:
    """Knobs of one cluster storm (probabilities per shard per cycle).

    The default keeps at most one concurrent failure per shard — the
    regime the paper's parity schemes are designed for, and the one the
    degraded epoch engines keep vectorised.  Raising
    ``max_concurrent_failures`` per shard scripts double-failure
    stretches, which may lose data (the CLI exit code reports it) but
    must still replay deterministically.
    """

    fail_probability: float = 0.12
    mid_cycle_probability: float = 0.25
    repair_probability: float = 0.60
    min_repair_delay: int = 4
    max_repair_delay: int = 12
    max_concurrent_failures: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_probability <= 1.0:
            raise ValueError(
                f"fail_probability must be in [0, 1], "
                f"got {self.fail_probability}")
        if self.min_repair_delay < 1:
            raise ValueError(
                f"min_repair_delay must be >= 1 (a repair lands strictly "
                f"after its failure), got {self.min_repair_delay}")
        if self.max_repair_delay < self.min_repair_delay:
            raise ValueError(
                f"max_repair_delay {self.max_repair_delay} < "
                f"min_repair_delay {self.min_repair_delay}")
        if self.max_concurrent_failures < 0:
            raise ValueError("max_concurrent_failures must be >= 0")


def generate_cluster_script(spec: ClusterSpec, seed: int,
                            profile: ClusterChaosProfile,
                            ) -> tuple[tuple[int, FaultEvent], ...]:
    """Deterministically roll one cluster's fault script from a seed.

    Mirrors the per-shard fault-domain state (who is failed, and until
    when) so the script never exceeds the profile's concurrent-failure
    cap or strikes an already-failed disk; every draw comes from a
    shard-tagged :class:`~repro.sim.rng.RandomSource` stream, so the
    script is a pure function of ``(spec geometry, seed, profile)`` —
    adding a shard never perturbs the storms hitting the others.

    Returns ``(shard, FaultEvent)`` pairs, the failures in
    ``(cycle, shard, disk)`` order, each FAIL followed by its REPAIR.
    The order matters: a repair must stay ahead of a failure on the
    same cycle of the same shard, or two disks of one parity group
    could be down at once beyond the profile's cap.
    """
    rng = RandomSource(seed)
    strikes: list[tuple[int, int, int, bool, Optional[int]]] = []
    for shard in range(spec.shards):
        tag = f"shard{shard}"
        # disk -> scripted repair cycle (None: failed for the whole run)
        failed: dict[int, Optional[int]] = {}
        for cycle in range(spec.cycles):
            for disk, repair in list(failed.items()):
                if repair is not None and repair <= cycle:
                    del failed[disk]
            if len(failed) >= profile.max_concurrent_failures:
                continue
            if rng.random(f"{tag}-fail") >= profile.fail_probability:
                continue
            candidates = [d for d in range(spec.disks_per_shard)
                          if d not in failed]
            if not candidates:
                continue
            disk = candidates[rng.integers(f"{tag}-fail-pick", 0,
                                           len(candidates))]
            mid = (rng.random(f"{tag}-mid")
                   < profile.mid_cycle_probability)
            repair_cycle: Optional[int] = None
            if rng.random(f"{tag}-repair") < profile.repair_probability:
                repair_cycle = cycle + rng.integers(
                    f"{tag}-repair-delay", profile.min_repair_delay,
                    profile.max_repair_delay + 1)
            strikes.append((cycle, shard, disk, mid, repair_cycle))
            failed[disk] = repair_cycle
    script: list[tuple[int, FaultEvent]] = []
    for cycle, shard, disk, mid, repair_cycle in sorted(
            strikes, key=lambda strike: strike[:3]):
        script.append((shard, FaultEvent(cycle, disk, mid_cycle=mid)))
        if repair_cycle is not None:
            script.append((shard, FaultEvent(repair_cycle, disk,
                                             FaultAction.REPAIR)))
    return tuple(script)


@dataclass
class ClusterChaosResult:
    """Outcome of one cluster campaign."""

    spec: ClusterSpec
    seed: int
    workers: int
    events: int
    digest: str
    report: ClusterReport
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when the determinism gate held."""
        return not self.violations


def run_cluster_campaign(spec: ClusterSpec, seed: int,
                         profile: Optional[ClusterChaosProfile] = None,
                         workers: int = 1) -> ClusterChaosResult:
    """Roll a fault script onto ``spec`` and gate its determinism.

    The storm spec (``spec`` plus the scripted faults) runs twice —
    serial baseline, then at ``workers`` width (a straight replay when
    ``workers == 1``) — and the campaign passes iff both runs fold to
    the same :meth:`~repro.cluster.runner.ClusterReport.digest`.  The
    returned report is the pool-width run, so its shard summaries show
    what the campaign actually exercised (including each shard's
    fast-forward disengagement reasons).
    """
    profile = profile if profile is not None else ClusterChaosProfile()
    script = generate_cluster_script(spec, seed, profile)
    storm = replace(spec, faults=script)
    baseline = run_cluster(storm, workers=1)
    report = run_cluster(storm, workers=workers)
    violations: list[str] = []
    digest = baseline.digest()
    if report.digest() != digest:
        violations.append(
            f"workers=1 and workers={workers} replays diverged "
            f"({digest[:12]} != {report.digest()[:12]})")
    return ClusterChaosResult(
        spec=storm,
        seed=seed,
        workers=workers,
        events=sum(event.action is FaultAction.FAIL for _, event in script),
        digest=digest,
        report=report,
        violations=violations,
    )
