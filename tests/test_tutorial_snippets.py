"""The docs/TUTORIAL.md snippets must keep executing as written.

Each test mirrors one tutorial section; if an API change breaks a
snippet, this file fails before a reader does.
"""


from repro.analysis import SystemParameters, recommend_design
from repro.analysis.sizing import section1_scale
from repro.faults import (
    catastrophic_condition,
    exact_mttf_clustered_hours,
    simulate_mean_time_to,
)
from repro.layout import ClusteredParityLayout
from repro.media import Catalog, MediaObject
from repro.schemes import Scheme
from repro.server import MultimediaServer, VideoOnDemandSystem
from repro.tertiary import TapeLibrary, compare_rebuild_paths
from repro.workload import WorkloadGenerator, compile_trace


def test_section1_arithmetic():
    scale = section1_scale()
    assert (scale.mpeg2_movies, scale.mpeg1_movies) == (329, 987)
    assert (scale.mpeg2_users, scale.mpeg1_users) == (7111, 21333)


def test_section1_rebuild_gap():
    layout = ClusteredParityLayout(20, 5)
    for i in range(40):
        layout.place(MediaObject(f"movie-{i}", 0.1875, 500, seed=i))
    params = SystemParameters.paper_table1(num_disks=20)
    comparison = compare_rebuild_paths(layout, 0, params, TapeLibrary())
    assert comparison.speedup > 10


def test_section2_design_workflow():
    params = SystemParameters.paper_table1(reserve_k=5)
    best = recommend_design(params, working_set_mb=100_000,
                            required_streams=1200)
    assert best.scheme is Scheme.NON_CLUSTERED
    fast = recommend_design(params, working_set_mb=100_000,
                            required_streams=1500)
    assert fast.scheme is Scheme.IMPROVED_BANDWIDTH
    assert fast.parity_group_size == 2


def test_section3_masked_failure():
    params = SystemParameters.paper_table1(
        num_disks=10, track_size_mb=512 / 1e6, disk_capacity_mb=0.25)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    slots_per_disk=8, verify_payloads=True)
    server.admit(server.catalog.names()[0])
    server.run_cycles(2)
    server.fail_disk(0)
    server.run_cycles(8)
    assert server.report.hiccup_free()
    assert server.report.total_reconstructions > 0
    assert server.report.payload_mismatches == 0


def test_section6_three_routes_to_mttf():
    layout = ClusteredParityLayout(20, 5)
    mc = simulate_mean_time_to(20, 200.0, 1.0,
                               catastrophic_condition(layout),
                               replications=150, seed=9)
    exact = exact_mttf_clustered_hours(20, 5, 200.0, 1.0)
    assert mc.consistent_with(exact)


def test_section7_full_pipeline():
    library = Catalog()
    for i in range(40):
        library.add(MediaObject(f"movie-{i:02d}", 0.1875, 16, seed=i))
    library.set_zipf_popularity(theta=1.0)
    initial = Catalog()
    for name in library.names()[:10]:
        initial.add(library.get(name))
    params = SystemParameters.paper_table1(
        num_disks=10, track_size_mb=512 / 1e6,
        disk_capacity_mb=512 * 200 / 1e6)
    server = MultimediaServer.build(params, 5, Scheme.NON_CLUSTERED,
                                    catalog=initial, slots_per_disk=8)
    system = VideoOnDemandSystem(server, library)
    assert system.request("movie-00") is not None     # hit
    assert system.request("movie-35") is None         # staged
    system.run_cycles(50)
    assert system.stats.started_immediately == 1
    assert "hit rate" in system.summary()


def test_section9_fault_domains():
    params = SystemParameters.paper_table1(num_disks=10)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    admission_limit=40)
    streams = [server.admit(n) for n in server.catalog.names()]
    address = server.layout.data_address(streams[0].object.name, 5)
    server.inject_media_error(address.disk_id, address.position)
    server.degrade_disk(3, slowdown=2.0)
    assert server.scheduler.effective_admission_limit() < 40
    server.run_cycles(8)
    assert server.report.hiccup_free()
    assert server.report.total_media_errors >= 1
    assert server.report.total_media_reconstructions >= 1
    server.restore_disk(3)
    assert server.scheduler.effective_admission_limit() == 40


def test_section8_metadata_scale():
    params = SystemParameters.paper_table1(
        num_disks=1000, track_size_mb=64 / 1e6, disk_capacity_mb=0.256)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    slots_per_disk=8)   # metadata-only
    for name in server.catalog.names():
        server.admit(name)
    server.run_cycles(20)
    assert not server.array.store_payloads
    assert server.report.total_delivered > 0
    assert server.report.hiccup_free()
    # Payloads stay derivable and auditable without being stored.
    name = server.catalog.names()[0]
    assert server.layout.spot_check(server.array, name, 0)
    address = server.layout.data_address(name, 0)
    track_bytes = server.scheduler.track_bytes
    payload = server.layout.resolve_payload(
        address.disk_id, address.position, track_bytes)
    assert payload == server.catalog.get(name).track_payload(0, track_bytes)


def test_section8_churn_workload():
    params = SystemParameters.paper_table1(
        num_disks=20, track_size_mb=64 / 1e6, disk_capacity_mb=0.256)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    slots_per_disk=8)
    cycle_s = server.config.cycle_length_s
    generator = WorkloadGenerator(server.catalog,
                                  arrival_rate_per_s=2 / cycle_s, seed=42)
    trace = compile_trace(generator.trace(30 * cycle_s), cycle_s)
    result = server.run_workload(trace, cycles=40, fast_forward=True)
    assert result.admitted + result.rejected + result.unarrived == len(trace)
    assert result.admitted > 0
    # Bit-identical accounting against the scalar loop.
    scalar = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    slots_per_disk=8)
    assert scalar.run_workload(trace, cycles=40) == result


def test_section8_scale_levers():
    params = SystemParameters.paper_table1(
        num_disks=20, track_size_mb=64 / 1e6, disk_capacity_mb=0.256)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    slots_per_disk=8)
    server.admit(server.catalog.names()[0])
    server.run_cycles(30, fast_forward=True)
    assert server.report.total_delivered > 0
    assert server.report.hiccup_free()

    condition = catastrophic_condition(ClusteredParityLayout(10, 5))
    estimate = simulate_mean_time_to(10, 1000.0, 24.0, condition,
                                     replications=8, workers=2)
    serial = simulate_mean_time_to(10, 1000.0, 24.0, condition,
                                   replications=8, workers=1)
    assert estimate.mean_hours == serial.mean_hours


def test_section10_parity_declustering():
    from repro.analysis import declustered_rebuild_hours, declustering_ratio
    from repro.faults.reliability import measure_rebuild_window

    params = SystemParameters.paper_table1(num_disks=11)
    server = MultimediaServer.build(params, 5, Scheme.PARITY_DECLUSTERED)
    for name in server.catalog.names()[:2]:
        server.admit(name)
    server.run_cycles(2)

    window = measure_rebuild_window(server, disk_id=0)
    assert window.cycles > 0
    assert 0.0 < window.read_spread < 2.0
    assert server.report.hiccup_free()        # the failure stayed masked
    assert declustering_ratio(11, 5) == 0.4
    assert declustered_rebuild_hours(10.0, 11, 5) == 4.0

    # Admission pays for degraded mode: alpha * limit slots per failure.
    capped = MultimediaServer.build(params, 5, Scheme.PARITY_DECLUSTERED,
                                    admission_limit=20)
    capped.fail_disk(0)
    assert capped.scheduler.effective_admission_limit() == 12
    capped.repair_disk(0)
    assert capped.scheduler.effective_admission_limit() == 20


def test_section8_degraded_fast_forward():
    params = SystemParameters.paper_table1(num_disks=10)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID)
    for name in server.catalog.names()[:3]:
        server.admit(name)

    server.run_cycles(5, fast_forward=True)      # healthy tables
    server.fail_disk(0)
    server.run_cycles(10, fast_forward=True)     # reconstruction rows
    server.scheduler.start_rebuild(0, writes_per_cycle=1)
    server.run_cycles(45, fast_forward=True)     # rebuild rides along

    report = server.report
    assert report.total_hiccups == 0             # failure fully masked
    assert round(report.ff_residency(), 2) == 0.98
    assert report.ff_disengagements == {"rebuild-complete": 1}
    assert not server.array[0].is_failed         # rebuild restored it


def test_section8_degraded_churn():
    params = SystemParameters.paper_table1(
        num_disks=20, track_size_mb=64 / 1e6, disk_capacity_mb=0.256)
    degraded = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                      slots_per_disk=8)
    degraded.fail_disk(1)
    cycle_s = degraded.config.cycle_length_s
    generator = WorkloadGenerator(degraded.catalog,
                                  arrival_rate_per_s=1 / cycle_s, seed=7)
    trace = compile_trace(generator.trace(20 * cycle_s), cycle_s)
    result = degraded.run_workload(trace, cycles=30, fast_forward=True)
    assert degraded.report.ff_engaged_cycles > 0   # stayed vectorised
    assert result.admitted > 0
    # Bit-identical against the scalar front door, failure and all.
    scalar = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    slots_per_disk=8)
    scalar.fail_disk(1)
    assert scalar.run_workload(trace, cycles=30) == result


def test_section9_disjoint_double_failure():
    params = SystemParameters.paper_table1(num_disks=10)
    server = MultimediaServer.build(params, 5, Scheme.STREAMING_RAID,
                                    admission_limit=40)
    streams = [server.admit(n) for n in server.catalog.names()]
    assert streams
    server.run_cycles(2, fast_forward=True)
    server.fail_disk(0)
    server.fail_disk(7)                # a different parity group
    server.run_cycles(10, fast_forward=True)
    assert not server.lost_tracks                  # disjoint: nothing lost
    assert server.report.ff_engaged_cycles > 0     # multi-failure epochs


def test_section11_sharded_cluster():
    from repro.cluster import ClusterSpec, run_cluster
    from repro.faults import FaultAction, FaultEvent

    spec = ClusterSpec(
        scheme=Scheme.STREAMING_RAID,
        shards=2, disks_per_shard=20,
        objects=8, tracks_per_object=30,
        admission_limit=10,
        cycles=14, window=7,
        arrivals_per_cycle=5.0,
        replicate_top_k=2,
        seed=29,
        faults=((1, FaultEvent(5, 3, mid_cycle=True)),
                (1, FaultEvent(10, 3, FaultAction.REPAIR))),
    )
    serial = run_cluster(spec, workers=1)
    pooled = run_cluster(spec, workers=2)
    assert serial.digest() == pooled.digest()
    assert serial.summary().startswith("SR: 2 shards x 20 disks")
    assert serial.admitted > 0
    # The mid-cycle failure left its mark on shard 1, and the repair at
    # cycle 10 restored the full 2 x 10 fault-aware capacity by the end.
    assert serial.report.total_hiccups > 0
    assert serial.capacity == 20
