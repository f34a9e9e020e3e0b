"""The MultimediaServer facade: construction, scheduling, co-simulation."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.faults.injector import FaultAction, FaultEvent
from repro.sched.base import CycleScheduler
from repro.schemes import Scheme
from repro.server import MultimediaServer
from tests.conftest import build_server, tiny_catalog, tiny_params


class TestBuild:
    def test_builds_every_scheme(self):
        for scheme, disks in [(Scheme.STREAMING_RAID, 10),
                              (Scheme.STAGGERED_GROUP, 10),
                              (Scheme.NON_CLUSTERED, 10),
                              (Scheme.IMPROVED_BANDWIDTH, 12)]:
            server = build_server(scheme, num_disks=disks)
            assert server.config.scheme is scheme
            assert len(server.array) == disks

    def test_default_catalog_created(self):
        server = build_server(Scheme.STREAMING_RAID, num_disks=10)
        assert len(server.catalog) >= 2

    def test_materialisation_writes_payload_and_parity(self):
        server = build_server(Scheme.STREAMING_RAID, num_disks=10)
        assert all(disk.stored_tracks > 0 for disk in server.array)

    def test_catalog_too_big_rejected(self):
        params = tiny_params(10, disk_capacity_mb=64 * 3 / 1e6)  # 3 tracks
        catalog = tiny_catalog(8, tracks=64)
        with pytest.raises(ConfigurationError):
            MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                   catalog=catalog, slots_per_disk=4)

    def test_admitting_unknown_object_rejected(self):
        server = build_server(Scheme.STREAMING_RAID, num_disks=10)
        with pytest.raises(KeyError):
            server.admit("not-a-movie")


class TestScriptedFaults:
    def test_schedule_applies_failure_and_repair(self):
        server = build_server(Scheme.STREAMING_RAID, num_disks=10)
        server.admit(server.catalog.names()[0])
        schedule = FaultSchedule.single_failure(cycle=2, disk_id=0,
                                                repair_cycle=5)
        server.run_with_schedule(8, schedule)
        assert not server.array[0].is_failed  # repaired
        assert server.report.hiccup_free()
        assert server.report.total_parity_reads > 0

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.single_failure(cycle=3, disk_id=0, repair_cycle=3)

    def test_multi_event_schedule(self):
        schedule = FaultSchedule([
            FaultEvent(1, 0),
            FaultEvent(1, 5),
            FaultEvent(4, 0, FaultAction.REPAIR),
        ])
        assert len(schedule) == 3
        assert len(schedule.events_before_cycle(1)) == 2

    def test_is_catastrophic_flag(self):
        server = build_server(Scheme.STREAMING_RAID, num_disks=10)
        assert not server.is_catastrophic
        server.fail_disk(0)
        assert not server.is_catastrophic
        server.fail_disk(1)
        assert server.is_catastrophic


class TestTimedCoSimulation:
    def test_run_timed_advances_cycles(self):
        server = build_server(Scheme.NON_CLUSTERED, num_disks=10)
        server.admit(server.catalog.names()[0])
        cycle_length = server.config.cycle_length_s
        server.run_timed(duration_s=10 * cycle_length,
                         mttf_s=1e12, mttr_s=1.0)  # effectively no faults
        assert len(server.report.cycles) == 10

    def test_run_timed_runs_the_cycles_that_start_before_the_horizon(
            self, monkeypatch):
        # n cycle lengths run exactly n cycles, for every n up to 1000; a
        # clock that accumulates ((0 + L) + L) + ... runs n + 1 for most
        # of them.  Only the count is under test, so the cycle body is a
        # counter and the epoch engine is vetoed: 500,500 cycles stay
        # cheap.
        def count_cycle(scheduler):
            scheduler.cycle_index += 1

        monkeypatch.setattr(CycleScheduler, "run_cycle", count_cycle)
        monkeypatch.setattr(CycleScheduler, "_fast_forward_ready",
                            lambda scheduler: False)
        server = build_server(Scheme.STREAMING_RAID, num_disks=10,
                              verify_payloads=False)
        cycle_length = server.config.cycle_length_s
        wrong = []
        for n in range(1, 1001):
            start = server.cycle_index
            server.run_timed(duration_s=n * cycle_length, mttf_s=1e12,
                             mttr_s=1.0)
            if server.cycle_index - start != n:
                wrong.append(n)
        assert wrong == []
        start = server.cycle_index
        server.run_timed(duration_s=60.5 * cycle_length, mttf_s=1e12,
                         mttr_s=1.0)
        assert server.cycle_index - start == 61

    def test_run_timed_injects_and_repairs_faults(self):
        server = build_server(Scheme.STREAMING_RAID, num_disks=10)
        server.admit(server.catalog.names()[0])
        cycle_length = server.config.cycle_length_s
        # Aggressive failure rate so some failures certainly occur.
        report = server.run_timed(duration_s=60 * cycle_length,
                                  mttf_s=5 * cycle_length,
                                  mttr_s=2 * cycle_length, seed=7)
        assert any(disk.failures > 0 for disk in server.array)
        # SR masks everything that is not catastrophic; payloads stay right.
        assert report.payload_mismatches == 0

    def test_run_timed_is_deterministic_per_seed(self):
        def run(seed):
            server = build_server(Scheme.STREAMING_RAID, num_disks=10)
            server.admit(server.catalog.names()[0])
            cl = server.config.cycle_length_s
            server.run_timed(duration_s=40 * cl, mttf_s=8 * cl,
                             mttr_s=2 * cl, seed=seed)
            return (server.report.total_delivered,
                    server.report.total_hiccups,
                    server.report.total_parity_reads)

        assert run(3) == run(3)
        assert run(3) != run(4) or True  # different seeds may coincide
