"""Cluster router: least-loaded-copy dispatch and barrier rebasing."""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.cluster import ClusterRouter, ShardPlacement
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject


def fixture(tracks: dict[str, int],
            copies: dict[str, tuple[int, ...]],
            shards: int = 2) -> tuple[ShardPlacement, Catalog]:
    catalog = Catalog(MediaObject(name=name, bandwidth_mb_s=1.5,
                                  num_tracks=count)
                      for name, count in tracks.items())
    names: list[list[str]] = [[] for _ in range(shards)]
    for name in catalog.names():
        for shard in copies[name]:
            names[shard].append(name)
    placement = ShardPlacement(
        shards=shards, copies=dict(copies),
        names=tuple(tuple(held) for held in names))
    return placement, catalog


def two_copy_router() -> ClusterRouter:
    placement, catalog = fixture(
        {"hot": 4, "a": 4, "b": 4},
        {"hot": (0, 1), "a": (0,), "b": (1,)})
    return ClusterRouter(placement, catalog)


def test_single_copy_objects_go_to_their_holder() -> None:
    router = two_copy_router()
    assert router.route(0, "a") == 0
    assert router.route(0, "b") == 1
    assert router.routed == [1, 1]


def test_unknown_object_raises() -> None:
    router = two_copy_router()
    with pytest.raises(KeyError):
        router.route(0, "missing")


def test_replicated_object_goes_to_most_headroom() -> None:
    router = two_copy_router()
    router.observe(0, active=[0, 0], limits=[10, 10])
    # Load shard 0 with three singles; the replica then prefers shard 1.
    for _ in range(3):
        router.route(0, "a")
    assert router.route(0, "hot") == 1


def test_headroom_tie_breaks_to_lowest_shard() -> None:
    router = two_copy_router()
    router.observe(0, active=[0, 0], limits=[10, 10])
    assert router.route(0, "hot") == 0


def test_modelled_load_drains_at_stream_end() -> None:
    router = two_copy_router()
    router.observe(0, active=[0, 0], limits=[10, 10])
    router.route(0, "a")  # occupies shard 0 through cycle 3
    # While "a" plays, the replica steers to shard 1 ...
    assert router.route(1, "hot") == 1
    # ... after it ends (cycle 4), both shards carry one stream each and
    # the tie goes back to shard 0.
    assert router.route(4, "hot") == 0


def test_observe_rebases_on_actual_active_counts() -> None:
    router = two_copy_router()
    router.observe(0, active=[0, 0], limits=[10, 10])
    for _ in range(3):
        router.route(0, "a")  # model: shard 0 holds 3 streams
    # The shard actually rejected two of them (active=1): the barrier
    # bias makes shard 0 the emptier copy again.
    router.observe(1, active=[1, 2], limits=[10, 10])
    assert router.route(1, "hot") == 0


def test_observe_applies_degraded_limits() -> None:
    router = two_copy_router()
    # Shard 0 lost capacity (fault-aware limit 1) while shard 1 kept 10:
    # even though both are idle, headroom steers the replica to shard 1.
    router.observe(0, active=[0, 0], limits=[1, 10])
    assert router.route(0, "hot") == 1


def test_route_window_groups_batches_by_shard_and_cycle() -> None:
    router = two_copy_router()
    router.observe(0, active=[0, 0], limits=[10, 10])
    batches = router.route_window(
        [(0, "a"), (0, "hot"), (1, "b"), (2, "a")])
    assert batches[0] == {0: ["a"], 2: ["a"]}
    # "hot" routed to shard 1: shard 0 already booked "a" that cycle.
    assert batches[1] == {0: ["hot"], 1: ["b"]}
    assert router.routed == [2, 2]


def test_observe_validates_feedback_shape() -> None:
    router = two_copy_router()
    with pytest.raises(ValueError, match="expected feedback"):
        router.observe(0, active=[0], limits=[10, 10])
    with pytest.raises(ValueError, match="expected feedback"):
        router.observe(0, active=[0, 0], limits=[10])


class ScanningRouter(ClusterRouter):
    """The reference: every route runs the headroom scan, single-copy
    titles included."""

    def route(self, cycle: int, name: str) -> int:
        holders = self.placement.holders(name)
        best = max(holders, key=lambda s: (self._headroom(s, cycle), -s))
        heapq.heappush(self._ends[best], cycle + self._durations[name])
        self.routed[best] += 1
        return best


@pytest.mark.parametrize("seed", range(6))
def test_single_copy_routes_match_the_scan(seed: int) -> None:
    """Random windows over single-copy and replicated titles (replica
    holders in random order, primary first), barrier feedback between
    some windows and arrival cycles that sometimes step back: the
    shortcut and the scan pick the same shards and leave the same
    model."""
    rng = np.random.default_rng(seed)
    shards = 3
    names = [f"t{i}" for i in range(12)]
    copies = {name: (tuple(rng.permutation(shards)[
        :int(rng.integers(2, shards + 1))].tolist()) if i % 4 == 0
        else (int(rng.integers(shards)),))
        for i, name in enumerate(names)}
    tracks = {name: int(rng.integers(1, 15)) for name in names}
    placement, catalog = fixture(tracks, copies, shards)
    fast = ClusterRouter(placement, catalog)
    scan = ScanningRouter(placement, catalog)
    cycle = 0
    for window in range(16):
        items = []
        for _ in range(int(rng.integers(0, 30))):
            cycle = max(0, cycle + int(rng.integers(-2, 4)))
            items.append((cycle, names[int(rng.integers(len(names)))]))
        assert fast.route_window(items) == scan.route_window(items)
        assert fast.routed == scan.routed
        assert fast._ends == scan._ends
        if window % 3:
            active = rng.integers(0, 12, shards).tolist()
            limits = rng.integers(0, 20, shards).tolist()
            fast.observe(cycle, active, limits)
            scan.observe(cycle, active, limits)
            assert fast._bias == scan._bias
        assert [fast._load(s, cycle) for s in range(shards)] == \
            [scan._load(s, cycle) for s in range(shards)]
    assert sum(fast.routed) > 100
