"""VoD fast-forward: staged starts land on-cycle under the churn engine.

``VideoOnDemandSystem.run_cycles(fast_forward=True)`` segments at the
pending-start cycles, so a staged title begins streaming on exactly the
cycle its tape load completes — bit-identically to the scalar loop.
These tests also pin the ``VodStats.pending`` bookkeeping: the counter
must always mirror ``_pending_starts`` and drain to zero.
"""

from __future__ import annotations

from repro.media import Catalog, MediaObject
from repro.schemes import Scheme
from repro.server import MultimediaServer
from repro.server.vod import VideoOnDemandSystem
from repro.tertiary import TapeLibrary, TapeSpec
from tests.conftest import TRACK_BYTES, tiny_params
from tests.sched.test_fast_forward import _fingerprint

FAST_TAPE_SPEC = TapeSpec(bandwidth_mb_s=1000.0, exchange_time_s=0.01,
                          average_seek_s=0.01)


def build_system(resident=3, library_size=6, tracks=8) -> VideoOnDemandSystem:
    library = Catalog()
    for index in range(library_size):
        library.add(MediaObject(f"m{index}", 0.1875, tracks, seed=index))
    initial = Catalog()
    for name in library.names()[:resident]:
        initial.add(library.get(name))
    params = tiny_params(10, disk_capacity_mb=TRACK_BYTES * 3 / 1e6)
    server = MultimediaServer.build(
        params, 5, Scheme.STREAMING_RAID, catalog=initial,
        slots_per_disk=8, verify_payloads=False)
    return VideoOnDemandSystem(server, library,
                               tape=TapeLibrary(FAST_TAPE_SPEC))


def _vod_state(system: VideoOnDemandSystem) -> tuple:
    return (
        _fingerprint(system.server, []),
        system.stats,
        sorted(system._pending_starts),
        sorted(system.manager.resident_names),
        sorted(system._pinned_streams.items()),
        system.manager.hits, system.manager.misses,
        system.manager.rejections,
    )


def _drive(system: VideoOnDemandSystem, fast_forward: bool) -> None:
    # A mixed day: resident hits, cold stagings, more requests mid-run.
    for name in ("m0", "m4", "m1"):
        system.request(name)
    system.run_cycles(10, fast_forward=fast_forward)
    for name in ("m5", "m2"):
        system.request(name)
    system.run_cycles(40, fast_forward=fast_forward)


def test_vod_fast_forward_matches_scalar() -> None:
    scalar = build_system()
    fast = build_system()
    _drive(scalar, fast_forward=False)
    _drive(fast, fast_forward=True)
    assert _vod_state(scalar) == _vod_state(fast)
    # The run actually exercised both door outcomes.
    assert fast.stats.started_immediately > 0
    assert fast.stats.started_after_staging > 0


def test_pending_counter_never_drifts() -> None:
    system = build_system()
    for name in ("m4", "m5", "m0"):
        system.request(name)
        assert system.stats.pending == len(system._pending_starts)
    for _ in range(50):
        system.run_cycle()
        assert system.stats.pending == len(system._pending_starts)
    assert system.stats.pending == 0


def test_pending_drains_under_fast_forward() -> None:
    system = build_system()
    system.request("m4")
    system.request("m5")
    assert system.stats.pending == 2
    system.run_cycles(50, fast_forward=True)
    assert system.stats.pending == 0
    assert system.stats.pending == len(system._pending_starts)
    assert system.stats.started_after_staging == 2


def test_placement_churn_matches_scalar() -> None:
    # Two requests per round over a six-title library with room for
    # three: each round stages one title and evicts another, so the plan
    # cache and the engine's read tables see hundreds of placement
    # changes.
    scalar = build_system()
    fast = build_system()
    for system, fast_forward in ((scalar, False), (fast, True)):
        for round_index in range(200):
            system.request(f"m{round_index % 6}")
            system.request(f"m{(round_index + 5) % 6}")
            system.run_cycles(6, fast_forward=fast_forward)
    assert _vod_state(scalar) == _vod_state(fast)
    assert fast.server.layout.epoch > 300
    assert fast.stats.started_immediately > 100
    assert fast.stats.started_after_staging > 100
    assert fast.report.ff_residency() == 1.0
