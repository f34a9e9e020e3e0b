"""Buffer pool leases and occupancy tracking."""

import pytest

from repro.buffers import BufferPool, BufferTracker
from repro.errors import BufferExhausted
from repro.media import MediaObject
from repro.server import Stream


class TestBufferPool:
    def test_acquire_and_release(self):
        pool = BufferPool(capacity_clusters=2, tracks_per_cluster=10)
        pool.acquire(0)
        pool.acquire(3)
        assert pool.leased_clusters == {0, 3}
        assert pool.available == 0
        assert pool.tracks_in_use == 20
        pool.release(0)
        assert pool.available == 1

    def test_acquire_is_idempotent(self):
        pool = BufferPool(1, 10)
        pool.acquire(0)
        pool.acquire(0)
        assert pool.tracks_in_use == 10

    def test_exhaustion_raises(self):
        pool = BufferPool(1, 10)
        pool.acquire(0)
        with pytest.raises(BufferExhausted):
            pool.acquire(1)
        assert pool.refusals == 1

    def test_release_unknown_is_noop(self):
        pool = BufferPool(1, 10)
        pool.release(5)
        assert pool.available == 1

    def test_peak_lease_tracking(self):
        pool = BufferPool(3, 10)
        pool.acquire(0)
        pool.acquire(1)
        pool.release(0)
        pool.acquire(2)
        assert pool.peak_leases == 2

    def test_zero_capacity_pool_refuses_everything(self):
        pool = BufferPool(0, 10)
        with pytest.raises(BufferExhausted):
            pool.acquire(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferPool(-1, 10)
        with pytest.raises(ValueError):
            BufferPool(1, 0)


class TestBufferTracker:
    def make_stream(self, held):
        stream = Stream(0, MediaObject("m", 0.1875, 100))
        for track in range(held):
            stream.store_track(track, b"x")
        return stream

    def test_sample_counts_stream_buffers(self):
        tracker = BufferTracker()
        assert tracker.sample([self.make_stream(3)]) == 3

    def test_extra_tracks_added(self):
        tracker = BufferTracker()
        assert tracker.sample([self.make_stream(2)], extra_tracks=5) == 7

    def test_per_stream_peak(self):
        tracker = BufferTracker()
        stream = self.make_stream(5)
        tracker.sample([stream])
        stream.take_track(0)
        tracker.sample([stream])
        assert tracker.stream_peak(0) == 5
