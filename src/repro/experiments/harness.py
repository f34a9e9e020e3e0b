"""One harness for the benchmark gates.

Every gate runs a *pair*: a reference run and a candidate run of one
scenario.  Engine pairs put the scalar cycle loop against the
fast-forward engine; pool pairs put a serial run against a process
pool.  A gate passes only if both sides land on the same deterministic
outcome and, where it has a threshold, the candidate is fast enough.

The scenario modules (``scalegrid``, ``churnbench``, ``degradedbench``,
``rebuildbench``, ``chaosbench``, ``clusterbench``) keep only their
farm, warm-up arc, measured segment and threshold; the ``bench_*.py``
scripts keep only their assertions.  This module owns what they share:

* :func:`load_one_stream_per_disk` — the standard farm load;
* :class:`Stopwatch` — the wall clock around a measured segment;
* :func:`degraded_digest` and :func:`engine_record` — the full-state
  digest of a finished server and the record every engine run returns;
* :func:`run_pair` and :func:`verdict` — the reference runs first, and
  the digests are compared before any ratio;
* :func:`write_artifact` and :func:`publish` — the ``BENCH_*.json``
  writer, which stamps the host (cpu count, python, numpy, platform)
  into every artifact, and the failed verdicts a script exits on.

Wall clock never reaches a digest: :func:`result_digest` leaves out the
wall-clock keys and the keys that name or diagnose a pair's side.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

#: One run of a scenario: JSON-ready fields, flat.
Record = dict[str, Any]

#: Record keys measured on the host, not simulated.
WALL_CLOCK_KEYS = frozenset({"build_s", "place_s", "run_s", "us_per_cycle",
                             "cycles_per_s", "streams_per_s"})
#: Record keys that name or diagnose one side of a pair.  Equal outcomes
#: differ here by design: the engine's residency, the pool's width.
SIDE_KEYS = frozenset({"engine", "workers", "ff_engaged_cycles",
                       "ff_residency", "ff_disengagements"})

#: Pooled speedup gates need this many CPUs on the host and this many
#: workers in the pool; below that the numbers are recorded, not gated.
POOL_GATE_WORKERS = 4


def sha256_json(value: Any) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``value``."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_one_stream_per_disk(server: Any) -> int:
    """Admit ``min(D, admission_limit)`` streams; return how many.

    Objects take ``D // objects`` streams each, in catalog order, so a
    farm with one object per cluster carries one stream per disk.
    """
    num_disks = len(server.array)
    names = server.catalog.names()
    per_object = max(1, num_disks // len(names))
    target = min(num_disks, server.scheduler.admission_limit)
    admitted = 0
    for name in names:
        for _ in range(per_object):
            if admitted >= target:
                return admitted
            server.admit(name)
            admitted += 1
    return admitted


class Stopwatch:
    """Wall clock around a ``with`` block; ``seconds`` once it exits."""

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> Stopwatch:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = round(time.perf_counter() - self._start, 4)


def degraded_digest(server: Any) -> str:
    """SHA-256 over the full deterministic state of a finished cell.

    Everything the scalar loop mutates is covered: report rows, per-disk
    read and write counters (rebuild writes land on the spare), the
    per-cycle buffer occupancy (once more under the ``"tracker"`` key,
    so recorded digests stay valid), every stream's pointers/buffers/
    parity holdings, and each rebuilder's cursor.  Wall-clock and the
    ff_* residency counters stay out by construction.
    """
    scheduler = server.scheduler
    streams = [
        [s.stream_id, s.status.value, s.next_read_track,
         s.next_delivery_track, s.delivery_start_cycle,
         s.delivered_tracks, s.hiccup_count, s.reconstructed_tracks,
         sorted(s.buffer), sorted(s.parity_buffer), sorted(s.lost_tracks)]
        for s in sorted(scheduler.streams.values(),
                        key=lambda s: s.stream_id)
    ]
    state = {
        "rows": server.report.to_rows(),
        "reads_per_disk": [d.reads for d in server.array.disks],
        "writes_per_disk": [d.writes for d in server.array.disks],
        "disk_states": [d.state.name for d in server.array.disks],
        "tracker": [c.buffered_tracks for c in server.report.cycles],
        "streams": streams,
        "rebuilders": [
            [r.disk_id, r.blocks_rebuilt, r.reads_consumed, r.completed]
            for r in scheduler.rebuilders
        ],
        "cycle_index": scheduler.cycle_index,
    }
    return sha256_json(state)


def engine_record(server: Any, fast_forward: bool, run_s: float,
                  **fields: Any) -> Record:
    """One engine run: its fields, timing, diagnostics and digests.

    ``state_sha256`` is :func:`degraded_digest`; ``summary_sha256``
    covers what that leaves out — the rendered summary's hiccup causes
    and data-loss events.
    """
    report = server.report
    return {
        "engine": "fast" if fast_forward else "scalar",
        **fields,
        "run_s": run_s,
        "ff_engaged_cycles": report.ff_engaged_cycles,
        "ff_residency": round(report.ff_residency(), 4),
        "ff_disengagements": dict(sorted(report.ff_disengagements.items())),
        "state_sha256": degraded_digest(server),
        "summary_sha256": sha256_json(report.summary()),
    }


def result_digest(record: Record) -> str:
    """SHA-256 over a record's outcome: every key but the wall-clock
    and side keys."""
    skip = WALL_CLOCK_KEYS | SIDE_KEYS
    return sha256_json({key: value for key, value in record.items()
                        if key not in skip})


def verdict(reference: Record, candidate: Record,
            min_speedup: Optional[float] = None,
            **checks: bool) -> Record:
    """Digest first, then the threshold.

    The outcomes must match before any ratio is taken: the record's
    digest (the state digest for engine pairs, the campaign digest for
    chaos, ``ClusterReport.digest()`` for the cluster pool) and every
    tally beside it.  A pair whose outcomes differ fails at any speedup
    and reports none.  An engine candidate must also have engaged the
    fast path at least once, and ``checks`` name any further conditions
    the gate requires.
    """
    equal = result_digest(reference) == result_digest(candidate)
    if "ff_engaged_cycles" in candidate:
        checks = {"engine_engaged": candidate["ff_engaged_cycles"] > 0,
                  **checks}
    speedup: Optional[float] = None
    if equal:
        speedup = (reference["run_s"] / candidate["run_s"]
                   if candidate["run_s"] > 0 else float("inf"))
    fast_enough = min_speedup is None or (
        speedup is not None and speedup >= min_speedup)
    return {
        "digests_equal": equal,
        "speedup": None if speedup is None else round(speedup, 2),
        "min_speedup": min_speedup,
        **checks,
        "passed": equal and fast_enough and all(checks.values()),
    }


def run_pair(label: str, cell: Callable[[Any], Record],
             modes: tuple[Any, Any] = (False, True),
             min_speedup: Optional[float] = None,
             checks: Optional[Callable[[Record, Record],
                                       dict[str, bool]]] = None,
             ) -> Record:
    """Run ``cell`` in the reference mode, then the candidate mode.

    ``modes`` defaults to the engine pair (``fast_forward`` off, then
    on); pool pairs pass worker counts.  Returns the two records and
    their :func:`verdict`, and prints a one-line summary.
    """
    reference = cell(modes[0])
    candidate = cell(modes[1])
    extra = checks(reference, candidate) if checks is not None else {}
    gate = verdict(reference, candidate, min_speedup, **extra)
    speed = ("n/a" if gate["speedup"] is None
             else f"{gate['speedup']:.2f}x")
    if min_speedup is not None:
        speed += f" (gate {min_speedup}x)"
    print(f"  {label}: {reference['run_s']:.3f}s -> "
          f"{candidate['run_s']:.3f}s, {speed}, digests "
          f"{'equal' if gate['digests_equal'] else 'DIVERGED'}, "
          f"{'passed' if gate['passed'] else 'FAILED'}")
    return {"reference": reference, "candidate": candidate,
            "verdict": gate}


def pool_width() -> int:
    """Pool width for a pooled gate: the gate width if the host has the
    cores, else 2 (digests still compared, speedup only recorded)."""
    cpus = os.cpu_count() or 1
    return POOL_GATE_WORKERS if cpus >= POOL_GATE_WORKERS else 2


def pool_gate(min_speedup: float, workers: int) -> Optional[float]:
    """``min_speedup`` where this host and pool can show it, else None."""
    cpus = os.cpu_count() or 1
    return min_speedup if min(cpus, workers) >= POOL_GATE_WORKERS else None


def host_info() -> Record:
    """The host block every artifact carries."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_artifact(script: str, payload: Record) -> Path:
    """Write ``BENCH_<name>.json`` beside the ``bench_<name>.py`` script.

    The artifact leads with the benchmark's name and the host block,
    then the payload (pairs under ``pairs``, scenario extras beside).
    """
    source = Path(script).resolve()
    name = source.stem.removeprefix("bench_")
    path = source.with_name(f"BENCH_{name}.json")
    document = {"benchmark": source.stem, "host": host_info(), **payload}
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")
    return path


def publish(script: str, payload: Record) -> dict[str, Record]:
    """Write the artifact; return the failed verdicts by pair label.

    Empty means every gate passed, so a script ends with
    ``sys.exit(1 if publish(__file__, payload) else 0)``.
    """
    write_artifact(script, payload)
    return {label: pair["verdict"]
            for label, pair in payload["pairs"].items()
            if not pair["verdict"]["passed"]}
