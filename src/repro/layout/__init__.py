"""Data layouts: how object tracks and parity blocks map onto disks.

Two families cover the paper's four schemes:

* :class:`ClusteredParityLayout` — fixed clusters of ``C`` disks with one
  *dedicated* parity disk per cluster; parity groups allocated round-robin
  over clusters (Section 2, Figure 3).  Shared by Streaming RAID,
  Staggered-group, and Non-clustered scheduling.
* :class:`ImprovedBandwidthLayout` — no dedicated parity disks; the parity
  of cluster ``i`` is spread over the disks of cluster ``i + 1``
  (Section 4, Figure 8), so every disk serves data in normal mode.

The parity-declustered extension adds a third family:

* :class:`DeclusteredParityLayout` — parity groups on ``C``-subsets of
  *all* disks via a balanced block design, so rebuild reads spread over
  every survivor (PAPERS.md: Dau et al., arXiv:1209.6152).
"""

from repro.layout.address import BlockKind, DiskAddress, GroupSpan, StoredBlock
from repro.layout.base import DataLayout, Placement
from repro.layout.clustered import ClusteredParityLayout
from repro.layout.declustered import DeclusteredParityLayout
from repro.layout.improved import ImprovedBandwidthLayout
from repro.schemes import Scheme


def layout_for(scheme: Scheme, num_disks: int,
               parity_group_size: int) -> DataLayout:
    """The empty layout a scheme's server places its catalog on: IB's
    shifted parity, PD's block design, the clustered layout otherwise."""
    if scheme is Scheme.IMPROVED_BANDWIDTH:
        return ImprovedBandwidthLayout(num_disks, parity_group_size)
    if scheme is Scheme.PARITY_DECLUSTERED:
        return DeclusteredParityLayout(num_disks, parity_group_size)
    return ClusteredParityLayout(num_disks, parity_group_size)


__all__ = [
    "BlockKind",
    "ClusteredParityLayout",
    "DataLayout",
    "DeclusteredParityLayout",
    "DiskAddress",
    "GroupSpan",
    "ImprovedBandwidthLayout",
    "Placement",
    "StoredBlock",
    "layout_for",
]
