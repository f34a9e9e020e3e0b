"""Seeded random-number streams: the simulator's one source of randomness.

Every stochastic component (exponential disk lifetimes, arrivals, Zipf
popularity, chaos scripts) draws from its own named
:class:`~repro.sim.rng.RandomSource` stream, so a run is fully
determined by its root seed.
"""

from repro.sim.rng import RandomSource

__all__ = ["RandomSource"]
