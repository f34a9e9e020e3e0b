"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this script in a fresh subprocess per workload run::

    python benchmarks/e2e/measure.py --workload vod-steady --seed 42 \\
        --seconds 12 [--trace] [--smoke]

Untraced, it runs whole passes until the next one would end past
``--seconds``, repeats set-up alone until it has at least
:data:`MIN_SETUPS` set-up samples, and reports every sample, both in host
time and normalised to the reference host's speed (:func:`measure`).
With ``--trace`` it runs a warm-up pass, an untraced baseline pass and a
traced pass (for ``cluster``: a second traced pass through the spawned
session pool, whose workers the wrappers cannot reach), writes the spans
to ``benchmarks/e2e/out/trace-<workload>.json`` and reports per-layer
self time, its share of the traced wall, call counts and the simulator's
own counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import workloads
from spans import LAYER_SPANS, Tracer, coverage

from repro.units import bytes_to_mb

OUT = Path(__file__).resolve().parent / "out"
#: Set-up samples are short (0.1 to 0.4 s) and move with the host's
#: memory pressure, which :func:`reference_s` does not see: ten keep
#: their median steady.
MIN_SETUPS = 10
#: Size of :func:`reference_s`: about 0.04 s for each half.
REFERENCE_LOOP = 500_000
REFERENCE_SORTS = 8
#: :func:`reference_s` on the reference host (2-vCPU KVM guest, Python
#: 3.11.7, numpy 2.4) when little else loads it: the 5th percentile of
#: 387 timings.  It only sets the scale of the normalised times.
REFERENCE_HOST_S = 0.068
#: Spans the cluster's spawned-pool traced pass supplies; every other
#: layer comes from the in-process traced pass.
POOL_SPANS = ("parallel.open", "parallel.step_all")
NS_PER_MS = 1_000_000


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (pool
    workers), in MB; ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return bytes_to_mb((own + workers) * 1024)


def reference_s() -> float:
    """Host seconds of a fixed job that runs no simulator code: a
    pure-Python integer loop and in-place numpy passes over 4 MB of
    floats, the two kinds of work a pass mixes."""
    started = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    values = np.random.default_rng(0).random(1 << 19)
    for _ in range(REFERENCE_SORTS):
        values += 1.0
        np.sqrt(values, out=values)
        values.sort()
    return perf_counter() - started


def measure(params: workloads.Params, seed: int,
            seconds: float) -> dict[str, Any]:
    """Untraced passes for ``seconds``; every sample in host time and
    normalised.

    :func:`reference_s` runs before the first sample and after each one.
    A sample's host time is scaled by ``REFERENCE_HOST_S`` over the mean
    of the two reference times around it: the time the sample would have
    taken on a quiet reference host, however loaded this host is.
    """
    deadline = perf_counter() + seconds
    references = [reference_s()]
    passes: list[workloads.Pass] = []
    while True:
        gc.collect()
        started = perf_counter()
        passes.append(workloads.run_pass(params, seed))
        references.append(reference_s())
        took = perf_counter() - started
        if perf_counter() + took > deadline:
            break
    host_setups = [done.setup_s for done in passes]
    while len(host_setups) < MIN_SETUPS:
        gc.collect()
        host_setups.append(workloads.run_setup(params, seed))
        references.append(reference_s())
    scales = [REFERENCE_HOST_S / statistics.fmean(pair)
              for pair in zip(references, references[1:])]
    host_rates = [done.cycles / done.run_s for done in passes]
    return {
        "passes": len(passes),
        "reference_s": references,
        "host_setup_s": host_setups,
        "host_sim_cycles_per_s": host_rates,
        "setup_s": [setup * scale
                    for setup, scale in zip(host_setups, scales)],
        "sim_cycles_per_s": [rate / scale
                             for rate, scale in zip(host_rates, scales)],
        "peak_rss_mb": peak_rss_mb(),
        **_verdict(params, seed, passes),
    }


def _verdict(params: workloads.Params, seed: int,
             passes: list[workloads.Pass]) -> dict[str, Any]:
    """Outcome of the first pass and every pass-level problem."""
    first = passes[0]
    problems = [problem for done in passes for problem in done.problems]
    problems += workloads.front_door_problems(params, seed, passes)
    if any(done.digest != first.digest for done in passes):
        problems.append("passes of one seed reached different digests")
    return {"outcome": first.outcome(),
            "attempted": sum(done.ops for done in passes),
            "failed": sum(done.broken for done in passes),
            "problems": problems}


def traced(name: str, params: workloads.Params,
           seed: int) -> dict[str, Any]:
    """Warm-up, untraced baseline and traced passes; per-layer metrics."""
    workloads.run_pass(params, seed)
    gc.collect()
    baseline = workloads.run_pass(params, seed)
    runs: list[tuple[str, Tracer, workloads.Pass]] = []
    cluster = isinstance(params, workloads.ClusterParams)
    for pool in [0] + ([params.pool_workers] if cluster else []):
        gc.collect()
        tracer = Tracer()
        with tracer.installed(LAYER_SPANS, capture=("server.build",)):
            done = (workloads.cluster_pass(params, seed, workers=pool)
                    if pool else workloads.run_pass(params, seed))
        runs.append((f"workers={pool}" if pool else "traced", tracer, done))
    OUT.mkdir(parents=True, exist_ok=True)
    with (OUT / f"trace-{name}.json").open("w") as handle:
        json.dump({"workload": name, "seed": seed,
                   "runs": [tracer.record(label)
                            for label, tracer, _ in runs]},
                  handle, separators=(",", ":"))
    layers = _layer_metrics(runs, params.shards if cluster else 1)
    first = runs[0][2]
    shares = [coverage(tracer, done.wall_s) for _, tracer, done in runs]
    layers["trace.coverage"] = min(share["coverage"] for share in shares)
    layers["trace.untraced_s"] = max(share["untraced_s"] for share in shares)
    layers["trace.overhead_ratio"] = first.wall_s / baseline.wall_s
    servers = runs[0][1].captured["server.build"]
    layers.update(workloads.sim_counters(servers))
    outcome = first.outcome()
    layers["server.ops"] = outcome["ops"]
    layers["server.hiccups"] = outcome["hiccups"]
    layers["server.streams_shed"] = outcome["streams_shed"]
    layers["server.reject_ratio"] = outcome["reject_ratio"]
    verdict = _verdict(params, seed,
                       [baseline] + [done for _, _, done in runs])
    return {"per_layer": layers,
            "spans": {label: tracer.summary() for label, tracer, _ in runs},
            **verdict}


def _layer_metrics(runs: list[tuple[str, Tracer, workloads.Pass]],
                   shards: int) -> dict[str, float]:
    """``<span>.calls``, ``<span>.self_s`` and ``<span>.self_share`` (self
    time over the wall of the traced pass the span comes from) for every
    wrapped layer, plus the session-pool barrier figures on ``cluster``."""
    _, shard, shard_pass = runs[0]
    _, pool, pool_pass = runs[-1]
    metrics: dict[str, float] = {}
    for name in LAYER_SPANS:
        tracer, done = ((pool, pool_pass) if name in POOL_SPANS
                        else (shard, shard_pass))
        self_s = tracer.self_ns.get(name, 0) / 1e9
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.self_share"] = self_s / done.wall_s
    windows = shard.durations_ns("cluster.shard_window")
    steps = pool.durations_ns("parallel.step_all")
    p50 = p95 = overhead = 0.0
    if windows and len(runs) > 1:
        slowest = [max(windows[i:i + shards])
                   for i in range(0, len(windows), shards)]
        # The last step_all is the finalise barrier, which has no window.
        barrier = steps[:len(slowest)]
        cuts = statistics.quantiles(barrier, n=20)
        p50 = statistics.median(barrier) / NS_PER_MS
        p95 = cuts[18] / NS_PER_MS
        overhead = (sum(barrier) - sum(slowest)) / 1e9
    metrics["parallel.step_all.p50_ms"] = p50
    metrics["parallel.step_all.p95_ms"] = p95
    metrics["parallel.barrier_overhead_s"] = overhead
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    params = workloads.params_for(args.workload, args.smoke)
    if args.trace:
        result = traced(args.workload, params, args.seed)
    else:
        result = measure(params, args.seed, args.seconds)
    print(json.dumps({"params": workloads.describe(params), **result}))


if __name__ == "__main__":
    main()
