"""Churn benchmark cells: VoD-scale admission churn, scalar vs engine.

``benchmarks/bench_churn.py`` drives a 1000-disk Streaming-RAID farm
with a high-rate Zipf/Poisson request trace — continuous arrivals and
completions, the workload the paper's front door faces — once through
the per-cycle scalar loop and once through the scheduler's churn engine
(``run_workload(fast_forward=True)``).  The cell logic lives here so
spawn workers and tests can import it; the benchmark script is the
human-facing driver.

Two equality guards make the speedup claim falsifiable:

* the **trace digest** proves both runs consumed byte-identical request
  traces (the vectorised generator against its scalar contract);
* the harness's **state digests** cover every deterministic outcome —
  cycle rows, per-disk counters, stream state, the rendered summary —
  and the record adds the admitted/rejected/unarrived split, so a
  fast-but-wrong engine cannot pass.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.harness import (
    Record,
    Stopwatch,
    engine_record,
    run_pair,
)
from repro.experiments.scalegrid import scale_catalog, scale_params
from repro.schemes import Scheme
from repro.workload import CompiledTrace, WorkloadGenerator, compile_trace

NUM_DISKS = 1000
CYCLES = 150
HORIZON_CYCLES = 120
ARRIVALS_PER_CYCLE = 30.0
ZIPF_THETA = 0.3
SEED = 42

#: Sized for churn, not for the slot-budget cliff: with ~600 concurrent
#: streams over 200 objects at theta=0.3 the hottest cluster sees ~10
#: concurrent readers, so 32 slots keeps every healthy cycle drop-free
#: while the explicit admission limit makes the front door reject.
SLOTS_PER_DISK = 32
ADMISSION_LIMIT = 600

#: The acceptance gate: the churn engine must beat the scalar loop by
#: at least this factor on the flagship cell.
MIN_SPEEDUP = 3.0


def build_churn_server() -> Any:
    """A 1000-disk Streaming-RAID farm shaped for admission churn."""
    from repro.server.server import MultimediaServer
    return MultimediaServer.build(
        scale_params(NUM_DISKS), 5, Scheme.STREAMING_RAID,
        catalog=scale_catalog(NUM_DISKS // 5),
        slots_per_disk=SLOTS_PER_DISK,
        admission_limit=ADMISSION_LIMIT,
        verify_payloads=False)


def churn_trace(server: Any) -> CompiledTrace:
    """The benchmark's fixed request trace, compiled once per server."""
    cycle_length = server.config.cycle_length_s
    generator = WorkloadGenerator(
        server.catalog,
        arrival_rate_per_s=ARRIVALS_PER_CYCLE / cycle_length,
        zipf_theta=ZIPF_THETA, seed=SEED)
    return compile_trace(generator.trace(HORIZON_CYCLES * cycle_length),
                         cycle_length)


def run_churn_cell(fast_forward: bool, cycles: int = CYCLES) -> Record:
    """Build the farm, run the churn trace, return metrics + guards."""
    with Stopwatch() as build:
        server = build_churn_server()
    compiled = churn_trace(server)
    with Stopwatch() as run:
        result = server.run_workload(compiled, cycles,
                                     fast_forward=fast_forward)
    assert result.admitted > 0
    return engine_record(
        server, fast_forward, run.seconds, num_disks=NUM_DISKS,
        cycles=cycles, requests=compiled.total, admitted=result.admitted,
        rejected=result.rejected, unarrived=result.unarrived,
        build_s=build.seconds, trace_sha256=compiled.digest())


def run_churn_gate() -> Record:
    """bench_churn: the trace through the scalar loop, then the engine."""
    return {"seed": SEED, "arrivals_per_cycle": ARRIVALS_PER_CYCLE,
            "pairs": {"churn": run_pair("churn", run_churn_cell,
                                        min_speedup=MIN_SPEEDUP)}}
