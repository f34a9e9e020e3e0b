"""The four fault-tolerance schemes the paper compares (Section 5)."""

from __future__ import annotations

import enum


class Scheme(enum.Enum):
    """One of the paper's four data-layout/scheduling schemes."""

    #: Streaming RAID (Tobagi et al. 1993; paper Section 2): clusters with a
    #: dedicated parity disk; a full parity group is read per stream per
    #: cycle (k = k' = C - 1).
    STREAMING_RAID = "SR"

    #: Staggered group (Section 2): same layout as SR, but a stream's group
    #: read is staggered and delivered over the following C - 1 cycles
    #: (k = C - 1, k' = 1), roughly halving the memory requirement.
    STAGGERED_GROUP = "SG"

    #: Non-clustered with a shared buffer pool (Section 3): only the next
    #: track per stream is read each cycle (k = k' = 1); a disk failure
    #: triggers a transition to degraded (group-at-a-time) reads.
    NON_CLUSTERED = "NC"

    #: Improved bandwidth (Section 4): parity of cluster i lives on cluster
    #: i + 1, so all D disks serve data in normal mode; failures shift load
    #: to the right (k = k' = C - 1).
    IMPROVED_BANDWIDTH = "IB"

    #: Parity-declustered (extension; Dau et al., arXiv:1209.6152): parity
    #: groups map to C-subsets of *all* D disks through a balanced block
    #: design, so a failed disk's reconstruction reads spread uniformly
    #: over every survivor and the rebuild window shrinks by the
    #: declustering ratio alpha = (C - 1) / (D - 1).  Reads are
    #: group-at-a-time like SR (k = k' = C - 1).
    PARITY_DECLUSTERED = "PD"

    @property
    def display_name(self) -> str:
        """The scheme's human-readable name as used in the paper's tables."""
        return {
            Scheme.STREAMING_RAID: "Streaming RAID",
            Scheme.STAGGERED_GROUP: "Staggered-group",
            Scheme.NON_CLUSTERED: "Non-clustered",
            Scheme.IMPROVED_BANDWIDTH: "Improved BW",
            Scheme.PARITY_DECLUSTERED: "Parity-declustered",
        }[self]

    def read_granularity(self, parity_group_size: int) -> tuple[int, int]:
        """``(k, k')`` for this scheme at parity-group size ``C``.

        Section 5: SR and IB use k = k' = C - 1; SG uses k = C - 1 with
        k' = 1; NC uses k = k' = 1.  PD reads whole groups like SR.
        """
        stripe = parity_group_size - 1
        if self in (Scheme.STREAMING_RAID, Scheme.IMPROVED_BANDWIDTH,
                    Scheme.PARITY_DECLUSTERED):
            return stripe, stripe
        if self is Scheme.STAGGERED_GROUP:
            return stripe, 1
        return 1, 1


#: The paper's four schemes, in its presentation order.  Registry tables
#: and Figure-9 shape assertions encode the paper's published numbers for
#: exactly these four, so the PD extension is wired in explicitly where it
#: is compared (chaos, scale grid, benchmarks) rather than appended here.
ALL_SCHEMES = (
    Scheme.STREAMING_RAID,
    Scheme.STAGGERED_GROUP,
    Scheme.NON_CLUSTERED,
    Scheme.IMPROVED_BANDWIDTH,
)

#: Every scheme the simulator implements: the paper's four plus the
#: parity-declustered extension.
ALL_IMPLEMENTED_SCHEMES = ALL_SCHEMES + (Scheme.PARITY_DECLUSTERED,)
