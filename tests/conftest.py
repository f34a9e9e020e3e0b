"""Shared test fixtures: scaled-down server configurations.

Simulation tests use 64-byte tracks so materialisation is cheap, and pin
``slots_per_disk`` explicitly because the toy track size makes the real
time budget meaningless.  Admission limits derive from the slot budget.
"""

from __future__ import annotations

import pytest

from repro.analysis import SystemParameters
from repro.media import Catalog, MediaObject
from repro.schemes import Scheme
from repro.server import MultimediaServer
from repro.server.stream import Stream

TRACK_BYTES = 64


def tiny_params(num_disks: int, **overrides) -> SystemParameters:
    """Table-1 parameters with 64-byte tracks and matching capacity."""
    defaults = dict(
        num_disks=num_disks,
        track_size_mb=TRACK_BYTES / 1e6,
        disk_capacity_mb=TRACK_BYTES * 2000 / 1e6,
    )
    defaults.update(overrides)
    return SystemParameters.paper_table1(**defaults)


def tiny_catalog(count: int, tracks: int, bandwidth: float = 0.1875) -> Catalog:
    """A catalog of identical-shape objects with distinct payloads."""
    catalog = Catalog()
    for index in range(count):
        catalog.add(MediaObject(f"m{index}", bandwidth, tracks, seed=index))
    return catalog


def build_server(scheme: Scheme, num_disks: int, parity_group_size: int = 5,
                 slots_per_disk: int = 8, catalog: Catalog | None = None,
                 **kwargs) -> MultimediaServer:
    """A small, byte-verified server for one scheme."""
    params = tiny_params(num_disks)
    kwargs.setdefault("verify_payloads", True)
    return MultimediaServer.build(
        params, parity_group_size, scheme, catalog=catalog,
        slots_per_disk=slots_per_disk, **kwargs)


def stream_states(server: MultimediaServer) -> list[tuple]:
    """Every registered stream in id order: its id, every
    :attr:`Stream.__slots__` value and its tracker peak.  The object is
    kept by name, the buffer, parity and accumulator dicts by their keys
    and the lost tracks sorted, so a stream built from an archived row
    compares with one the scalar loop kept all along."""
    scheduler = server.scheduler
    states = []
    for stream_id, stream in scheduler.streams.items():
        values = []
        for name in Stream.__slots__:
            value = getattr(stream, name)
            if name == "object":
                value = value.name
            elif isinstance(value, (dict, set)):
                value = sorted(value)
            values.append((name, value))
        states.append((stream_id, tuple(values),
                       scheduler.tracker.stream_peak(stream_id)))
    return states


def assert_same_streams(fast: MultimediaServer,
                        scalar: MultimediaServer) -> None:
    """The fast run's registry holds exactly the scalar run's streams,
    slot for slot and peak for peak (see :func:`stream_states`)."""
    ours, theirs = stream_states(fast), stream_states(scalar)
    assert [state[0] for state in ours] == [state[0] for state in theirs]
    for mine, expected in zip(ours, theirs):
        assert mine == expected, f"stream {expected[0]} differs"


@pytest.fixture
def sr_server():
    return build_server(Scheme.STREAMING_RAID, num_disks=10)


@pytest.fixture
def sg_server():
    return build_server(Scheme.STAGGERED_GROUP, num_disks=10)


@pytest.fixture
def nc_server():
    return build_server(Scheme.NON_CLUSTERED, num_disks=10)


@pytest.fixture
def ib_server():
    return build_server(Scheme.IMPROVED_BANDWIDTH, num_disks=12)
