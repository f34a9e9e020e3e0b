"""Correctness checks for one workload, run in their own subprocess.

``run.py`` starts this script once per workload on every invocation,
outside every timed window::

    python benchmarks/e2e/checks.py --workload vod-steady --seed 42 [--smoke]

* ``vod-*``: the fast-forward engines and the scalar loop reach the same
  full-state digest (``degraded_digest``) and the same front-door split
  on a prefix of the workload, with zero hiccups and a balanced account.
* ``fault-storm``: a short fast-forward replay and a scalar replay of
  each scheme's script reach the same ``snapshot_digest``.
* ``cluster``: ``ClusterReport.digest()`` is the same at ``workers=1``
  and ``workers=2`` on a prefix of the run, with zero hiccups and a
  balanced account.

Prints one JSON object; exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import workloads

from repro.cluster.runner import run_cluster
from repro.experiments.degradedbench import degraded_digest
from repro.faults import chaos
from repro.schemes import ALL_IMPLEMENTED_SCHEMES


def _check(name: str, ok: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def vod_checks(p: workloads.VodParams, seed: int) -> list[dict[str, Any]]:
    """Fast vs scalar on the first ``check_cycles`` cycles."""
    outcomes = []
    for fast_forward in (True, False):
        server = workloads.vod_server(p)
        trace = workloads.vod_trace(server, p, seed)
        result, problems = workloads.drive_vod(
            server, trace, p, p.check_cycles, fast_forward=fast_forward)
        outcomes.append((result, problems, trace.total,
                         server.report.total_hiccups,
                         degraded_digest(server)))
    (fast, fast_problems, total, hiccups, fast_digest), \
        (scalar, _, _, scalar_hiccups, scalar_digest) = outcomes
    checks = [
        _check("fast == scalar state_sha256", fast_digest == scalar_digest,
               f"{fast_digest[:12]} vs {scalar_digest[:12]}"),
        _check("fast == scalar front door", fast == scalar,
               f"{tuple(fast)} vs {tuple(scalar)}"),
        _check("hiccups == 0", hiccups == scalar_hiccups == 0,
               f"{hiccups} fast, {scalar_hiccups} scalar"),
        _check("admitted + rejected + unarrived == trace total",
               sum(fast) == total, f"{sum(fast)} vs {total}"),
    ]
    if p.segment:
        checks.append(_check("every rebuild ends within its segment",
                             not fast_problems, "; ".join(fast_problems)))
    return checks


def storm_checks(p: workloads.StormParams,
                 seed: int) -> list[dict[str, Any]]:
    """Fast vs scalar replay of a short script, per scheme."""
    profile = workloads.storm_profile(p, p.check_cycles)
    checks = []
    for scheme in ALL_IMPLEMENTED_SCHEMES:
        events = chaos.generate_script(scheme, seed, profile)
        digests = [
            chaos.snapshot_digest(chaos.replay(
                scheme, events, p.check_cycles, fast_forward=fast_forward,
                profile=profile))
            for fast_forward in (True, False)]
        checks.append(_check(f"{scheme.value} fast == scalar snapshot_digest",
                             digests[0] == digests[1],
                             f"{digests[0][:12]} vs {digests[1][:12]}"))
    return checks


def cluster_checks(p: workloads.ClusterParams,
                   seed: int) -> list[dict[str, Any]]:
    """``workers=1`` vs ``workers=2`` on the first ``check_cycles``."""
    spec = workloads.cluster_spec(p, seed, cycles=p.check_cycles)
    serial = run_cluster(spec, workers=1)
    pooled = run_cluster(spec, workers=p.pool_workers)
    total = workloads.cluster_trace_total(spec)
    accounted = serial.admitted + serial.rejected + serial.unarrived
    return [
        _check(f"workers=1 == workers={p.pool_workers} "
               "ClusterReport.digest",
               serial.digest() == pooled.digest(),
               f"{serial.digest()[:12]} vs {pooled.digest()[:12]}"),
        _check("hiccups == 0", serial.report.total_hiccups == 0,
               f"{serial.report.total_hiccups}"),
        _check("admitted + rejected + unarrived == trace total",
               accounted == total, f"{accounted} vs {total}"),
    ]


def run_checks(params: workloads.Params, seed: int) -> list[dict[str, Any]]:
    """Every check of one workload."""
    if isinstance(params, workloads.VodParams):
        return vod_checks(params, seed)
    if isinstance(params, workloads.StormParams):
        return storm_checks(params, seed)
    return cluster_checks(params, seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    checks = run_checks(workloads.params_for(args.workload, args.smoke),
                        args.seed)
    ok = all(check["ok"] for check in checks)
    print(json.dumps({"workload": args.workload, "ok": ok,
                      "checks": checks}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
