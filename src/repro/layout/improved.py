"""The Improved-bandwidth layout (Section 4, Figure 8).

No dedicated parity disks: clusters consist of ``C - 1`` *data* disks, and
the parity block of a group stored on cluster ``i`` lives on one of the
disks of cluster ``i + 1`` (round-robin within that cluster so the parity
load spreads evenly).  Every disk therefore serves data in normal mode —
the scheme's selling point — but a disk now belongs to two parity-group
populations (its own cluster's data and the previous cluster's parity),
which is why a failure in each of two *adjacent* clusters already loses
data and the MTTF denominator grows from ``C - 1`` to ``2C - 1``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.layout.base import DataLayout
from repro.media.objects import MediaObject


class ImprovedBandwidthLayout(DataLayout):
    """Clusters of ``C - 1`` data disks; parity shifted to the next cluster."""

    def __init__(self, num_disks: int, parity_group_size: int) -> None:
        super().__init__(num_disks, parity_group_size)
        stripe = parity_group_size - 1
        if num_disks % stripe != 0:
            raise ConfigurationError(
                f"disk count {num_disks} is not a multiple of the data "
                f"stripe width {stripe}"
            )
        if num_disks // stripe < 2:
            raise ConfigurationError(
                "the improved-bandwidth layout needs at least two clusters "
                "(parity lives on the *next* cluster)"
            )
        self._object_rank: dict[str, int] = {}

    @property
    def num_clusters(self) -> int:
        """Number of clusters the disks are grouped into."""
        return self.num_disks // self.data_disks_per_group

    @property
    def data_disks_per_group(self) -> int:
        """Data blocks per parity group (``C - 1``)."""
        return self.parity_group_size - 1

    @property
    def data_disk_count(self) -> int:
        """``D'``: every disk serves data in this layout."""
        return self.num_disks

    def cluster_of(self, disk_id: int) -> int:
        """Cluster index of a disk."""
        self._check_disk(disk_id)
        return disk_id // self.data_disks_per_group

    def cluster_disks(self, cluster: int) -> list[int]:
        """Disk ids of one cluster, ascending."""
        self._check_cluster(cluster)
        base = cluster * self.data_disks_per_group
        return list(range(base, base + self.data_disks_per_group))

    def is_parity_disk(self, disk_id: int) -> bool:
        """No disk is *dedicated* to parity here."""
        self._check_disk(disk_id)
        return False

    def _rank(self, obj: MediaObject) -> int:
        if obj.name not in self._object_rank:
            self._object_rank[obj.name] = len(self._object_rank)
        return self._object_rank[obj.name]

    def _group_disks(self, obj: MediaObject, start: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        groups = np.arange(self.group_count(obj))
        stripe = self.data_disks_per_group
        clusters = (start + groups) % self.num_clusters
        next_clusters = (clusters + 1) % self.num_clusters
        # Spread parity round-robin over the next cluster's disks.  The
        # extra ``group // num_clusters`` term advances one additional slot
        # each full tour of the clusters; without it the slot index and the
        # target cluster advance in lockstep and some disks would never
        # receive parity.
        slots = (self._rank(obj) + groups + groups // self.num_clusters) \
            % stripe
        return (clusters[:, None] * stripe + np.arange(stripe),
                next_clusters * stripe + slots)

    def parity_source_cluster(self, disk_id: int) -> int:
        """The cluster whose parity blocks may live on ``disk_id``."""
        return (self.cluster_of(disk_id) - 1) % self.num_clusters

    def is_catastrophic_geometric(self, failed_ids: Iterable[int]) -> bool:
        """Failures in the same or *adjacent* clusters lose data.

        Section 4: "a failure in each of two adjacent clusters causes data
        to be lost", because a parity group spans cluster ``i``'s data disks
        and one disk of cluster ``i + 1``.
        """
        clusters = sorted({self.cluster_of(d) for d in failed_ids})
        failed_by_cluster: dict[int, int] = {}
        for disk_id in failed_ids:
            cluster = self.cluster_of(disk_id)
            failed_by_cluster[cluster] = failed_by_cluster.get(cluster, 0) + 1
        for cluster, count in failed_by_cluster.items():
            if count >= 2:
                return True
        nc = self.num_clusters
        cluster_set = set(clusters)
        for cluster in clusters:
            if (cluster + 1) % nc in cluster_set:
                return True
        return False

    # -- helpers -----------------------------------------------------------

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < self.num_disks:
            raise ConfigurationError(f"no such disk: {disk_id}")

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self.num_clusters:
            raise ConfigurationError(f"no such cluster: {cluster}")
