"""The parity-declustered layout (extension; PAPERS.md: Dau et al.,
arXiv:1209.6152; Viennot et al., arXiv:0804.0743).

The paper's four schemes confine each parity group to one cluster, so a
failed disk is rebuilt from the ``C - 1`` survivors of a single cluster
and the rebuild window is bounded by that cluster's idle bandwidth.
Parity declustering instead maps every parity group to a ``C``-subset of
*all* ``D`` disks drawn from a balanced block design: each disk pair
co-occurs in (nearly) the same number of groups, so after a failure the
reconstruction reads spread uniformly over all ``D - 1`` survivors and
the rebuild window shrinks by the declustering ratio
``alpha = (C - 1) / (D - 1)``.

Design construction
-------------------

For prime ``D`` the design is the classical arithmetic-progression
family over ``Z_D``: block ``B(j, s) = {j, j+s, ..., j+(C-1)s} mod D``
for every rotation ``j`` and every stride ``s in 1..D-1``.  Every
unordered disk pair at difference ``d`` is covered once per
``(k, s)`` solution of ``k s = +-d (mod D)`` with weight ``C - k``, so
each pair co-occurs in exactly ``lambda = C (C - 1)`` blocks — an exact
balanced design, verified by the property tests.

For composite ``D`` no BIBD is guaranteed to exist (Holland & Gibson's
observation for declustered RAID); the layout builds the same family
over ``P``, the smallest prime ``>= D``, and drops blocks containing a
phantom disk ``>= D``.  ``P - D`` is small, so the surviving design is
near-balanced and the survivor read-load spread stays within a few
percent of uniform — the chaos and benchmark gates measure this rather
than assume it.

Blocks are enumerated diagonally — raw index ``r`` maps to
``(j, s) = (r mod P, 1 + r mod (P-1))``, a bijection onto the full
design by CRT — so any *prefix* of the design already mixes rotations
and strides, and the groups of a freshly placed object immediately
spread over the farm.  Parity rotates through the block's members
(position ``t mod C`` for design row ``t``), so no disk is dedicated to
parity and every disk serves data, like the Improved-bandwidth layout.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.layout.base import DataLayout
from repro.media.objects import MediaObject


def smallest_prime_at_least(n: int) -> int:
    """The smallest prime ``>= n`` (deterministic trial division)."""
    candidate = max(2, n)
    while True:
        is_prime = candidate >= 2
        divisor = 2
        while divisor * divisor <= candidate:
            if candidate % divisor == 0:
                is_prime = False
                break
            divisor += 1
        if is_prime:
            return candidate
        candidate += 1


class DeclusteredParityLayout(DataLayout):
    """Parity groups on ``C``-subsets of all disks via a block design."""

    def __init__(self, num_disks: int, parity_group_size: int) -> None:
        super().__init__(num_disks, parity_group_size)
        #: Modulus of the arithmetic-progression design (== ``num_disks``
        #: when that is prime; the design is then exactly balanced).
        self.design_modulus = smallest_prime_at_least(num_disks)
        #: Valid design rows materialised so far, in diagonal order.
        #: Construction-time geometry: rows depend only on (D, C), never
        #: on placement, so the memo needs no epoch key.
        self._design_rows = np.empty((0, parity_group_size), dtype=np.int64)
        #: Raw ``(j, s)`` indices scanned so far (phantom rows skipped).
        self._design_scanned = 0

    # -- block design -----------------------------------------------------

    @property
    def is_exact_design(self) -> bool:
        """True when every disk pair co-occurs in *exactly* lambda rows
        (prime farm sizes; composite farms are near-balanced)."""
        return self.design_modulus == self.num_disks

    @property
    def declustering_ratio(self) -> float:
        """``alpha = (C - 1) / (D - 1)``: the fraction of each survivor's
        bandwidth a rebuild claims, and the rebuild-window shrink factor
        relative to a single-cluster scheme."""
        return (self.parity_group_size - 1) / (self.num_disks - 1)

    @property
    def raw_design_size(self) -> int:
        """Rows of the design over ``Z_P`` before phantom filtering."""
        return self.design_modulus * (self.design_modulus - 1)

    def design_size(self) -> int:
        """Valid rows in the full design (materialises it)."""
        self._materialise_rows(self.raw_design_size)
        return len(self._design_rows)

    def _raw_rows(self, first: int, stop: int) -> np.ndarray:
        """Raw design rows ``first .. stop - 1``: the APs ``B(j, s)`` for
        those diagonal indices."""
        p = self.design_modulus
        raw = np.arange(first, stop, dtype=np.int64)[:, None]
        strides = 1 + raw % (p - 1)
        return (raw % p + np.arange(self.parity_group_size) * strides) % p

    # Construction-time geometry: rows depend only on (D, C).
    def _materialise_rows(self, count: int) -> None:  # repro: allow(epoch-cache)
        """Extend the valid-row cache to at least ``count`` rows (or
        exhaustion)."""
        while len(self._design_rows) < count \
                and self._design_scanned < self.raw_design_size:
            # Scan at least the rows still missing and at least as many
            # as are cached, so the memo grows geometrically.
            cached = len(self._design_rows)
            stop = min(self.raw_design_size, self._design_scanned
                       + max(count - cached, cached, 64))
            rows = self._raw_rows(self._design_scanned, stop)
            self._design_rows = np.concatenate(
                (self._design_rows, rows[rows.max(axis=1) < self.num_disks]))
            self._design_scanned = stop

    def _rows(self, first: int, count: int) -> np.ndarray:
        """Valid rows ``first .. first + count - 1``, wrapping past the
        end of an exhausted design."""
        self._materialise_rows(first + count)
        index = np.arange(first, first + count)
        if len(self._design_rows) < first + count:
            index %= len(self._design_rows)
        return self._design_rows[index]

    def design_row(self, index: int) -> tuple[int, ...]:
        """The ``index``-th valid design row (wrapping past the design)."""
        if index < 0:
            raise ConfigurationError(f"design row index {index} < 0")
        return tuple(self._rows(index, 1)[0].tolist())

    def pair_concurrence(self) -> dict[tuple[int, int], int]:
        """Co-occurrence count per unordered disk pair over the full
        design — the balance surface the property tests assert on."""
        counts: dict[tuple[int, int], int] = {}
        for a in range(self.num_disks):
            for b in range(a + 1, self.num_disks):
                counts[(a, b)] = 0
        self._materialise_rows(self.raw_design_size)
        for row in self._design_rows.tolist():
            members = sorted(row)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    counts[(a, b)] += 1
        return counts

    # -- DataLayout geometry ----------------------------------------------

    @property
    def num_clusters(self) -> int:
        """Virtual rotation classes: one start offset per disk.  Objects
        round-robin their first design row over all ``D`` offsets."""
        return self.num_disks

    @property
    def data_disks_per_group(self) -> int:
        """Data blocks per parity group (``C - 1``)."""
        return self.parity_group_size - 1

    @property
    def data_disk_count(self) -> int:
        """``D'``: every disk serves data (parity rotates, like IB)."""
        return self.num_disks

    def cluster_of(self, disk_id: int) -> int:
        """Clusters are virtual here: each disk is its own class."""
        self._check_disk(disk_id)
        return disk_id

    def cluster_disks(self, cluster: int) -> list[int]:
        """The single disk of one virtual rotation class."""
        if not 0 <= cluster < self.num_clusters:
            raise ConfigurationError(f"no such cluster: {cluster}")
        return [cluster]

    def is_parity_disk(self, disk_id: int) -> bool:
        """No disk is dedicated to parity; it rotates through the rows."""
        self._check_disk(disk_id)
        return False

    def _group_disks(self, obj: MediaObject, start: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Group ``g`` takes design row ``t = start + g``; member
        ``t mod C`` holds its parity, the others its data in row order."""
        count = self.group_count(obj)
        rows = self._rows(start, count)
        parity_slot = (start + np.arange(count)) % self.parity_group_size
        members = np.arange(self.data_disks_per_group)
        members = members + (members >= parity_slot[:, None])
        return (np.take_along_axis(rows, members, axis=1),
                rows[np.arange(count), parity_slot])

    def is_catastrophic_geometric(self, failed_ids: Iterable[int]) -> bool:
        """Any two concurrent failures lose data.

        Declustering's trade-off: with every disk pair co-occurring in
        some parity group (lambda > 0 across the design), a second
        concurrent failure is always catastrophic — the exposure grows
        from ``C - 1`` disks to ``D - 1`` — but the vulnerability
        *window* shrinks by ``alpha``, which is what MTTDS buys.
        """
        seen: set[int] = set()
        for disk_id in failed_ids:
            self._check_disk(disk_id)
            if disk_id in seen:
                continue
            seen.add(disk_id)
            if len(seen) >= 2:
                return True
        return False

    # -- helpers -----------------------------------------------------------

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < self.num_disks:
            raise ConfigurationError(f"no such disk: {disk_id}")
