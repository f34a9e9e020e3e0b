"""Chaos-campaign benchmark cells: one seeded storm per scheme.

``benchmarks/bench_chaos.py`` replays one campaign per scheme through
the scalar loop and through the segmented fast-forward engine, and
requires the campaign digests to match.  The sweep rages over a
**1000-disk farm with 200 streams** (the paper's production scale), so
the recorded speedup is honest about what the segmented engine buys
under a real storm: the scripts are dense, epochs between events are
short, and the engine wins modestly rather than by the 5x+ it shows on
quiescent workloads.  The artifact keeps that number visible; it gates
only equality.  The at-scale degraded speedup gate is
``bench_degraded.py``.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.harness import Record, Stopwatch, run_pair
from repro.faults.chaos import ChaosProfile, run_campaign
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme

SEED = 7

#: The sweep's farm: paper scale, 200 concurrent streams.
FARM_DISKS = 1000
FARM_OBJECTS = 200
FARM_TRACKS = 40


def farm_profile(cycles: int) -> ChaosProfile:
    """The 1000-disk campaign profile the sweep runs on."""
    return ChaosProfile(cycles=cycles, num_disks=FARM_DISKS,
                        objects=FARM_OBJECTS,
                        tracks_per_object=FARM_TRACKS)


def run_chaos_cell(scheme: Scheme, profile: ChaosProfile,
                   fast_forward: bool) -> Record:
    """One campaign (metadata mode only), timed whole."""
    with Stopwatch() as run:
        result = run_campaign(scheme, SEED, profile=profile,
                              check_payload_mode=False,
                              fast_forward=fast_forward)
    return {"engine": "fast" if fast_forward else "scalar",
            "scheme": scheme.value, "cycles": profile.cycles,
            "num_disks": profile.num_disks, "streams": profile.objects,
            "seed": SEED, "passed": result.passed,
            "digest": result.digest, "run_s": run.seconds}


def campaigns_passed(reference: Record, candidate: Record,
                     ) -> dict[str, bool]:
    """Both campaigns must hold every invariant, not merely agree."""
    return {"campaigns_passed": reference["passed"] and candidate["passed"]}


def run_chaos_gate(cycles: int) -> Record:
    """bench_chaos: one pair per scheme, after an untimed warm-up.

    The warm-up campaign absorbs interpreter and numpy start-up, so the
    first timed cell is not charged for it.
    """
    run_campaign(Scheme.STREAMING_RAID, SEED,
                 profile=ChaosProfile(cycles=12), check_payload_mode=False)
    profile = farm_profile(cycles)
    return {
        "farm": {"num_disks": FARM_DISKS, "streams": FARM_OBJECTS,
                 "tracks_per_object": FARM_TRACKS},
        "order": "scalar reference first; artifacts before the shared "
                 "harness timed the fast campaign first",
        "pairs": {scheme.value: run_pair(
            scheme.value, partial(run_chaos_cell, scheme, profile),
            checks=campaigns_passed) for scheme in ALL_IMPLEMENTED_SCHEMES},
    }
