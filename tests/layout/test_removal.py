"""Object removal, slot reuse, placement epochs and demand prediction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.layout import ClusteredParityLayout, ImprovedBandwidthLayout
from repro.media import MediaObject, uniform_catalog


def obj(name, tracks=8, seed=0):
    return MediaObject(name, 0.1875, tracks, seed=seed)


def _layout(num_objects: int = 4) -> ClusteredParityLayout:
    layout = ClusteredParityLayout(num_disks=10, parity_group_size=5)
    layout.place_catalog(uniform_catalog(num_objects, 0.1875, 8))
    return layout


class TestRemove:
    def test_remove_frees_every_block(self):
        layout = ClusteredParityLayout(10, 5)
        layout.place(obj("x", 8))
        before = [layout.occupied_positions(d) for d in range(10)]
        freed = layout.remove("x")
        assert len(freed) == 8 + 2  # tracks + 2 parity blocks
        assert all(layout.occupied_positions(d) == 0 for d in range(10))
        assert sum(before) == len(freed)

    def test_removed_object_is_unknown(self):
        layout = ClusteredParityLayout(10, 5)
        layout.place(obj("x"))
        layout.remove("x")
        with pytest.raises(LayoutError):
            layout.data_address("x", 0)
        with pytest.raises(LayoutError):
            layout.remove("x")

    def test_disk_inventory_updated(self):
        layout = ClusteredParityLayout(10, 5)
        layout.place(obj("x"), start_cluster=0)
        layout.place(obj("y"), start_cluster=0)
        layout.remove("x")
        for disk_id in range(10):
            names = {b.object_name for b in layout.blocks_on_disk(disk_id)}
            assert "x" not in names

    def test_freed_slots_reused_before_high_water_grows(self):
        layout = ClusteredParityLayout(10, 5)
        layout.place(obj("x", 8), start_cluster=0)
        high_water = [layout.used_positions(d) for d in range(10)]
        layout.remove("x")
        layout.place(obj("y", 8), start_cluster=0)
        assert [layout.used_positions(d) for d in range(10)] == high_water

    def test_replacement_object_is_fully_addressable(self):
        layout = ClusteredParityLayout(10, 5)
        layout.place(obj("x", 8), start_cluster=0)
        layout.remove("x")
        layout.place(obj("y", 12, seed=1), start_cluster=1)
        for track in range(12):
            layout.data_address("y", track)  # no gaps, no collisions
        addresses = [layout.data_address("y", t) for t in range(12)]
        assert len(set(addresses)) == 12


class TestPlacementChanges:
    def test_place_and_remove_each_bump_the_epoch(self):
        # The scheduler's plan cache is keyed on this epoch: a placement
        # change that did not move it would serve stale plans.
        layout = _layout(2)
        epoch = layout.epoch
        layout.remove("object-0")
        assert layout.epoch == epoch + 1
        layout.place(list(uniform_catalog(1, 0.1875, 8))[0])
        assert layout.epoch == epoch + 2

    def test_place_keeps_existing_addresses(self):
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

    def test_object_names_refreshes_after_remove(self):
        layout = _layout(2)
        assert "object-1" in layout.object_names
        layout.remove("object-1")
        assert "object-1" not in layout.object_names

    def test_reuse_after_remove_still_correct(self):
        # A placement that reuses freed slots must produce addresses the
        # lazily rebuilt views (the block reverse index) agree with.
        layout = _layout(2)
        layout.remove("object-0")
        staged = list(uniform_catalog(1, 0.1875, 8))[0]
        layout.place(staged)
        span = layout.group_span(staged.name, 0)
        tracks = layout.group_tracks(staged.name, 0)
        for address, track in zip(span.data, tracks):
            assert layout.data_address(staged.name, track) == address
        assert layout.block_at(
            span.data[0].disk_id,
            span.data[0].position).object_name == staged.name


class TestPlacementDemand:
    def test_demand_matches_actual_placement(self):
        layout = ClusteredParityLayout(10, 5)
        demand = layout.placement_demand(obj("x", 10), start_cluster=0)
        layout.place(obj("x", 10), start_cluster=0)
        for disk_id, count in demand.items():
            assert layout.occupied_positions(disk_id) == count
        assert sum(demand.values()) == 10 + 3  # 3 groups' parity

    def test_demand_is_side_effect_free(self):
        layout = ClusteredParityLayout(10, 5)
        layout.placement_demand(obj("x", 10))
        assert layout.objects == []
        assert all(layout.occupied_positions(d) == 0 for d in range(10))
        # The same object can still be placed afterwards.
        layout.place(obj("x", 10))

    def test_demand_for_placed_object_rejected(self):
        layout = ClusteredParityLayout(10, 5)
        layout.place(obj("x"))
        with pytest.raises(LayoutError):
            layout.placement_demand(obj("x"))

    def test_demand_on_improved_layout(self):
        layout = ImprovedBandwidthLayout(8, 5)
        demand = layout.placement_demand(obj("x", 8), start_cluster=0)
        layout.place(obj("x", 8), start_cluster=0)
        for disk_id, count in demand.items():
            assert layout.occupied_positions(disk_id) == count


@settings(max_examples=30)
@given(st.data())
def test_churn_preserves_layout_invariants(data):
    """Random place/remove churn: no slot ever double-booked, occupancy
    always equals the live blocks."""
    layout = ClusteredParityLayout(10, 5)
    live: dict[str, int] = {}
    counter = 0
    for _step in range(data.draw(st.integers(min_value=1, max_value=25))):
        if live and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(live)))
            layout.remove(victim)
            del live[victim]
        else:
            name = f"o{counter}"
            counter += 1
            tracks = data.draw(st.integers(min_value=1, max_value=20))
            layout.place(obj(name, tracks, seed=counter))
            live[name] = tracks
    # Every live block addressable, all addresses distinct.
    addresses = []
    for name, tracks in live.items():
        for track in range(tracks):
            addresses.append(layout.data_address(name, track))
        groups = (tracks + 3) // 4
        for group in range(groups):
            addresses.append(layout.parity_address(name, group))
    assert len(addresses) == len(set(addresses))
    assert sum(layout.occupied_positions(d) for d in range(10)) == \
        len(addresses)
