"""Fault-aware and cluster-wide admission capacity."""

import pytest

from repro.disk import DiskArray, PAPER_TABLE1_DRIVE
from repro.server.admission import cluster_capacity, fault_aware_capacity


class TestFaultAwareCapacity:
    """Degraded-mode capacity re-derived from live fault-domain state."""

    def _array(self, count=4):
        return DiskArray(count, PAPER_TABLE1_DRIVE)

    def test_healthy_array_keeps_base_limit(self):
        assert fault_aware_capacity(40, self._array()) == 40

    def test_slowest_operational_drive_gates_capacity(self):
        array = self._array()
        array.degrade(2, 0.5)
        array.degrade(3, 0.75)
        assert fault_aware_capacity(40, array) == 20

    def test_failed_drives_do_not_gate_the_fraction(self):
        array = self._array()
        array.degrade(1, 0.5)
        array.fail(1)  # a dead drive is routed around, not waited on
        assert fault_aware_capacity(40, array) == 40

    def test_penalty_subtracts_and_clamps(self):
        array = self._array()
        assert fault_aware_capacity(40, array, penalty=15) == 25
        assert fault_aware_capacity(10, array, penalty=99) == 0

    def test_all_failed_is_zero_capacity(self):
        array = self._array(2)
        array.fail(0)
        array.fail(1)
        assert fault_aware_capacity(40, array) == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            fault_aware_capacity(-1, self._array())
        with pytest.raises(ValueError):
            fault_aware_capacity(1, self._array(), penalty=-1)


class TestClusterCapacity:
    def test_sums_shard_limits(self):
        assert cluster_capacity([40, 40, 40]) == 120
        assert cluster_capacity([40]) == 40

    def test_degraded_shards_lower_the_sum(self):
        # Shards are fault-isolated: one shard's degraded limit dents
        # the cluster total without touching its peers.
        assert cluster_capacity([40, 20, 0]) == 60

    def test_validation(self):
        with pytest.raises(ValueError, match="no shards"):
            cluster_capacity([])
        with pytest.raises(ValueError, match="non-negative"):
            cluster_capacity([40, -1])
