"""The multimedia server: streams, metrics, admission, and the facade.

:class:`MultimediaServer` wires a data layout, a disk array, a scheme
scheduler, buffer accounting, and fault injection into one object with a
cycle-at-a-time ``run`` loop — the executable counterpart of the paper's
Figures 2–8.

``MultimediaServer`` is exposed lazily (PEP 562): the scheduler package
imports ``repro.server.metrics``/``repro.server.stream`` while the facade
imports the schedulers, so an eager import here would be circular.
"""

from repro.server.admission import cluster_capacity
from repro.server.metrics import (
    CycleReport,
    HiccupRecord,
    SimulationReport,
)
from repro.server.stream import Stream, StreamStatus

__all__ = [
    "CycleReport",
    "HiccupRecord",
    "MultimediaServer",
    "SimulationReport",
    "Stream",
    "StreamStatus",
    "VideoOnDemandSystem",
    "WorkloadResult",
    "cluster_capacity",
]


def __getattr__(name: str) -> type:
    if name == "MultimediaServer":
        from repro.server.server import MultimediaServer
        return MultimediaServer
    if name == "WorkloadResult":
        from repro.server.server import WorkloadResult
        return WorkloadResult
    if name == "VideoOnDemandSystem":
        from repro.server.vod import VideoOnDemandSystem
        return VideoOnDemandSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
