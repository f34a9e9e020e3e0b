"""Request-trace generation: Poisson arrivals over a Zipf-ranked catalog."""

from __future__ import annotations

from dataclasses import dataclass

from repro.media.catalog import Catalog
from repro.sim.rng import RandomSource
from repro.workload.arrivals import PoissonArrivals
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class StreamRequest:
    """One viewer request: when it arrives and what it asks for."""

    arrival_time_s: float
    object_name: str

    def arrival_cycle(self, cycle_length_s: float) -> int:
        """The cycle in which this request should be admitted."""
        if cycle_length_s <= 0:
            raise ValueError("cycle length must be positive")
        return int(self.arrival_time_s / cycle_length_s)


class WorkloadGenerator:
    """Builds deterministic request traces from a catalog and a seed."""

    def __init__(self, catalog: Catalog, arrival_rate_per_s: float,
                 zipf_theta: float = 1.0, seed: int = 0) -> None:
        if len(catalog) == 0:
            raise ValueError("catalog is empty")
        self.catalog = catalog
        rng = RandomSource(seed)
        self._arrivals = PoissonArrivals(arrival_rate_per_s, rng)
        self._sampler = ZipfSampler(len(catalog), zipf_theta, rng)
        self._names = catalog.names()

    def trace(self, horizon_s: float) -> list[StreamRequest]:
        """All requests arriving within the horizon, in time order.

        Vectorised: all arrival times in one chunked draw
        (:meth:`PoissonArrivals.times_array`), then all ranks in one draw
        (:meth:`ZipfSampler.sample_array`).  Because arrivals and ranks
        live on *separate* named RNG streams, pulling each stream in bulk
        consumes exactly the values the interleaved scalar loop would —
        :meth:`trace_scalar` stays as the byte-identical reference.
        """
        times = self._arrivals.times_array(horizon_s)
        ranks = self._sampler.sample_array(len(times))
        return [StreamRequest(float(t), self._names[r])
                for t, r in zip(times, ranks)]

    def trace_scalar(self, horizon_s: float) -> list[StreamRequest]:
        """Reference implementation: one request at a time."""
        requests = []
        for arrival in self._arrivals.times_until(horizon_s):
            rank = self._sampler.sample()
            requests.append(StreamRequest(arrival, self._names[rank]))
        return requests
