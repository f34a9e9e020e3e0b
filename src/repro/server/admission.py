"""Admission control: decide whether one more stream fits.

The controller enforces the scheme's analytic stream bound (equations
8–11), optionally shaved by a *headroom* fraction.  Headroom is how the
Improved-bandwidth scheme keeps the idle capacity its shift-right cascade
needs — Section 4: "some small amount of idle capacity could be reserved in
case of a disk failure".

:func:`fault_aware_capacity` is the degraded-mode counterpart: it
re-derives the effective stream capacity from the *live* fault-domain
state of the disk array (fail-slow throttles plus a scheme-specific
penalty for consumed redundancy), so the front door sheds or rejects
instead of admitting load the degraded array will drop as slot-overflow
hiccup storms.

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

from repro.analysis.parameters import SystemParameters
from repro.analysis.streams import max_streams
from repro.errors import AdmissionError
from repro.schemes import Scheme


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


class AdmissionController:
    """Analytic-bound admission with optional reserved headroom."""

    def __init__(self, params: SystemParameters, parity_group_size: int,
                 scheme: Scheme, headroom_fraction: float = 0.0) -> None:
        if not 0.0 <= headroom_fraction < 1.0:
            raise ValueError(
                f"headroom fraction must be in [0, 1), got {headroom_fraction}"
            )
        self.params = params
        self.parity_group_size = parity_group_size
        self.scheme = scheme
        self.headroom_fraction = headroom_fraction
        self._bound = max_streams(params, parity_group_size, scheme)
        self.admitted = 0
        self.rejected = 0

    @property
    def capacity(self) -> int:
        """Admissible concurrent streams after headroom."""
        return int(self._bound * (1.0 - self.headroom_fraction))

    @property
    def available(self) -> int:
        """Streams that can still be admitted right now."""
        return max(0, self.capacity - self.admitted)

    def can_admit(self, count: int = 1) -> bool:
        """Would ``count`` more streams fit?"""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self.admitted + count <= self.capacity

    def admit(self, count: int = 1) -> None:
        """Claim capacity for ``count`` streams (AdmissionError if full)."""
        if not self.can_admit(count):
            self.rejected += count
            raise AdmissionError(
                f"cannot admit {count} stream(s): {self.admitted} active, "
                f"capacity {self.capacity}"
            )
        self.admitted += count

    def release(self, count: int = 1) -> None:
        """Return capacity when streams finish."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if count > self.admitted:
            raise ValueError(
                f"releasing {count} streams but only {self.admitted} admitted"
            )
        self.admitted -= count
