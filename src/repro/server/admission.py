"""Admission capacity: how many streams the server may carry right now.

The scheduler's healthy admission limit is its per-disk slot budget, the
discrete counterpart of the analytic stream bound of equations 8–11
(:func:`repro.analysis.streams.max_streams`).  :func:`fault_aware_capacity`
re-derives the effective capacity from the *live* fault-domain state of
the disk array (fail-slow throttles plus a scheme-specific penalty for
consumed redundancy), so the front door sheds or rejects instead of
admitting load the degraded array will drop as slot-overflow hiccup
storms.

:func:`cluster_capacity` lifts the same idea one level up, to a sharded
cluster: shards are fault-isolated (Viennot et al.'s independent-server
model), so the cluster-wide admissible stream count is simply the sum of
the shards' *effective* limits — a shard in degraded mode shrinks the
cluster bound by exactly its own lost capacity and nothing more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.disk.drive import DiskArray


def fault_aware_capacity(base_limit: int, array: "DiskArray",
                         penalty: int = 0) -> int:
    """Effective stream capacity under the array's current fault state.

    The healthy bound ``base_limit`` shrinks two ways:

    * **fail-slow**: the slowest still-operational drive gates every
      scheme's striped reads, so capacity scales with the minimum
      :attr:`~repro.disk.drive.Disk.service_fraction` across operational
      drives (an array with every drive failed has zero capacity), which
      the array's fault index answers without a walk
      (:attr:`~repro.disk.drive.DiskArray.min_service_fraction`);
    * **consumed redundancy**: the scheme-specific ``penalty`` charges
      streams for failures no longer absorbed by reserve bandwidth
      (e.g. Improved-bandwidth failures beyond the ``K_IB`` reserve, or
      Non-clustered degraded clusters the buffer pool could not protect).
    """
    if base_limit < 0:
        raise ValueError(f"base limit must be non-negative, got {base_limit}")
    if penalty < 0:
        raise ValueError(f"penalty must be non-negative, got {penalty}")
    fraction = array.min_service_fraction
    limit = base_limit if fraction >= 1.0 else int(base_limit * fraction)
    return max(0, limit - penalty)


def cluster_capacity(shard_limits: Sequence[int]) -> int:
    """Cluster-wide admissible streams from per-shard effective limits.

    Feed it each shard's :meth:`~repro.sched.base.CycleScheduler.\
effective_admission_limit` — the fault-aware figure, not the healthy
    bound — and the sum *is* the cluster's degraded capacity, because
    shards share no disks, buffers, or parity groups.
    """
    if not shard_limits:
        raise ValueError("cluster has no shards")
    for limit in shard_limits:
        if limit < 0:
            raise ValueError(
                f"shard limit must be non-negative, got {limit}")
    return sum(shard_limits)
