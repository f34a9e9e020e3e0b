"""The placement delta log: surgical invalidation for churn-proof caches."""

import pytest

from repro.layout import ClusteredParityLayout, PlacementDelta
from repro.layout.base import DELTA_LOG_LIMIT
from repro.media import uniform_catalog


def _layout(num_objects: int = 4) -> ClusteredParityLayout:
    layout = ClusteredParityLayout(num_disks=10, parity_group_size=5)
    layout.place_catalog(uniform_catalog(num_objects, 0.1875, 8))
    return layout


class TestDeltaLog:
    def test_place_and_remove_are_logged(self):
        layout = _layout(2)
        epoch = layout.epoch
        assert layout.deltas_since(epoch) == ()
        layout.remove("object-0")
        deltas = layout.deltas_since(epoch)
        assert deltas == (PlacementDelta(epoch + 1, "remove", "object-0"),)
        assert layout.epoch == epoch + 1

    def test_deltas_since_partial_window(self):
        layout = _layout(3)
        e0 = layout.epoch
        layout.remove("object-1")
        e1 = layout.epoch
        layout.remove("object-2")
        assert [d.name for d in layout.deltas_since(e0)] == [
            "object-1", "object-2"]
        assert [d.name for d in layout.deltas_since(e1)] == ["object-2"]

    def test_floor_below_history_returns_none(self):
        layout = _layout(1)
        assert layout.deltas_since(-1) is None

    def test_log_is_bounded_and_floor_rises(self):
        layout = _layout(1)
        base = layout.epoch
        obj = list(uniform_catalog(2, 0.1875, 4))[1]
        for _ in range(DELTA_LOG_LIMIT):
            layout.place(obj)
            layout.remove(obj.name)
        assert len(layout._delta_log) == DELTA_LOG_LIMIT
        # The floor has risen past ``base``: bridging from there must fail.
        assert layout.deltas_since(base) is None
        # But the retained window still bridges.
        recent = layout.epoch - 3
        assert [d.kind for d in layout.deltas_since(recent)] == [
            "remove", "place", "remove"][-3:]

    def test_place_keeps_existing_memos_valid(self):
        layout = _layout(2)
        before_span = layout.group_span("object-0", 0)
        before_geom = layout.group_geometry("object-0", 0)
        layout.place(list(uniform_catalog(3, 0.1875, 8))[2])
        assert layout.group_span("object-0", 0) == before_span
        assert layout.group_geometry("object-0", 0) == before_geom

    def test_remove_evicts_only_that_object(self):
        layout = _layout(3)
        span = layout.group_span("object-0", 0)
        layout.group_span("object-1", 0)
        geometry = layout.group_geometry("object-2", 0)
        layout.remove("object-1")
        assert layout.group_span("object-0", 0) == span
        assert layout.group_geometry("object-2", 0) == geometry
        with pytest.raises(Exception):
            layout.group_span("object-1", 0)

    def test_object_names_refreshes_after_delta(self):
        layout = _layout(2)
        assert "object-1" in layout.object_names
        layout.remove("object-1")
        assert "object-1" not in layout.object_names

    def test_reuse_after_remove_still_correct(self):
        # A placement that reuses freed slots must produce addresses the
        # delta-refreshed caches agree with.
        layout = _layout(2)
        layout.remove("object-0")
        obj = list(uniform_catalog(1, 0.1875, 8))[0]
        layout.place(obj)
        span = layout.group_span(obj.name, 0)
        for address, track in zip(span.data, layout.group_tracks(obj.name, 0)):
            assert layout.data_address(obj.name, track) == address
        assert layout.block_at(span.data[0].disk_id,
                               span.data[0].position).object_name == obj.name
