"""The clustered layout with dedicated parity disks (Section 2, Figure 3).

Disks are grouped into fixed clusters of ``C``: the first ``C - 1`` disks of
each cluster store data, the last is the cluster's dedicated parity disk.
Each object is striped across the data disks of a cluster one parity group
at a time, and successive parity groups visit clusters round-robin.

This layout is shared by the Streaming RAID, Staggered-group, and
Non-clustered *schedulers* — the paper's point is precisely that the same
layout admits very different read schedules with very different memory
footprints.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.layout.base import DataLayout
from repro.media.objects import MediaObject


class ClusteredParityLayout(DataLayout):
    """Clusters of ``C`` disks: ``C - 1`` data + 1 dedicated parity disk."""

    def __init__(self, num_disks: int, parity_group_size: int) -> None:
        super().__init__(num_disks, parity_group_size)
        if num_disks % parity_group_size != 0:
            raise ConfigurationError(
                f"disk count {num_disks} is not a multiple of the cluster "
                f"size {parity_group_size}"
            )

    @property
    def num_clusters(self) -> int:
        """Number of clusters the disks are grouped into."""
        return self.num_disks // self.parity_group_size

    @property
    def data_disks_per_group(self) -> int:
        """Data blocks per parity group (``C - 1``)."""
        return self.parity_group_size - 1

    @property
    def data_disk_count(self) -> int:
        """``D'``: disks from which data is read (excludes parity disks)."""
        return self.num_clusters * self.data_disks_per_group

    def cluster_of(self, disk_id: int) -> int:
        """Cluster index of a disk."""
        self._check_disk(disk_id)
        return disk_id // self.parity_group_size

    def cluster_disks(self, cluster: int) -> list[int]:
        """Disk ids of one cluster, ascending."""
        self._check_cluster(cluster)
        base = cluster * self.parity_group_size
        return list(range(base, base + self.parity_group_size))

    def data_disks(self, cluster: int) -> list[int]:
        """The ``C - 1`` data disks of one cluster."""
        return self.cluster_disks(cluster)[:-1]

    def parity_disk(self, cluster: int) -> int:
        """The dedicated parity disk of one cluster."""
        return self.cluster_disks(cluster)[-1]

    def is_parity_disk(self, disk_id: int) -> bool:
        """True for the last disk of each cluster (the parity disk)."""
        self._check_disk(disk_id)
        return disk_id % self.parity_group_size == self.parity_group_size - 1

    def _group_disks(self, obj: MediaObject, start: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        clusters = (start + np.arange(self.group_count(obj))) \
            % self.num_clusters
        first = clusters * self.parity_group_size
        return (first[:, None] + np.arange(self.data_disks_per_group),
                first + self.data_disks_per_group)

    def is_catastrophic_geometric(self, failed_ids: Iterable[int]) -> bool:
        """Two failures in the same cluster lose data (layout geometry only).

        Unlike :meth:`DataLayout.is_catastrophic` this does not consult the
        placed objects, so the reliability Monte-Carlo can use it on bare
        geometry; it is the paper's own criterion (Section 2).
        """
        seen: set[int] = set()
        for disk_id in failed_ids:
            cluster = self.cluster_of(disk_id)
            if cluster in seen:
                return True
            seen.add(cluster)
        return False

    # -- helpers -----------------------------------------------------------

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < self.num_disks:
            raise ConfigurationError(f"no such disk: {disk_id}")

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self.num_clusters:
            raise ConfigurationError(f"no such cluster: {cluster}")
