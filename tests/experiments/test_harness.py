"""The benchmark-gate harness: loader, verdict, digest and writer.

No wall clock is measured here: records carry made-up ``run_s`` values,
so the verdict's rules are pinned independently of host speed.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.experiments.harness import (
    load_one_stream_per_disk,
    pool_gate,
    pool_width,
    publish,
    result_digest,
    run_pair,
    verdict,
    write_artifact,
)
from repro.schemes import Scheme
from tests.conftest import build_server, tiny_catalog


def _record(digest: str, run_s: float, **extra: object) -> dict:
    return {"engine": "scalar", "state_sha256": digest, "run_s": run_s,
            **extra}


@pytest.mark.parametrize("candidate_s", [100.0, 10.0, 0.01, 0.0])
def test_differing_digests_fail_at_any_speedup(candidate_s: float) -> None:
    gate = verdict(_record("a", 10.0), _record("b", candidate_s),
                   min_speedup=2.0)
    assert not gate["digests_equal"]
    assert gate["speedup"] is None      # no ratio for diverged outcomes
    assert not gate["passed"]
    assert not verdict(_record("a", 10.0), _record("b", candidate_s),
                       )["passed"]


def test_equal_digests_below_threshold_fail() -> None:
    slow = verdict(_record("a", 10.0), _record("a", 5.0), min_speedup=5.0)
    assert slow["digests_equal"] and slow["speedup"] == 2.0
    assert not slow["passed"]
    fast = verdict(_record("a", 10.0), _record("a", 1.0), min_speedup=5.0)
    assert fast["passed"] and fast["speedup"] == 10.0
    ungated = verdict(_record("a", 10.0), _record("a", 50.0))
    assert ungated["passed"] and ungated["min_speedup"] is None


def test_every_outcome_field_is_compared() -> None:
    """Tallies beside the state digest count; wall clock and the side
    keys (engine, workers, residency diagnostics) do not."""
    reference = _record("a", 9.0, admitted=3, build_s=1.0, workers=1,
                        ff_engaged_cycles=0, ff_residency=0.0,
                        ff_disengagements={"payload-mode": 4})
    candidate = dict(reference, engine="fast", run_s=1.0, build_s=7.0,
                     workers=4, ff_engaged_cycles=9, ff_residency=0.9,
                     ff_disengagements={})
    assert result_digest(reference) == result_digest(candidate)
    assert verdict(reference, candidate)["passed"]
    candidate["admitted"] = 4
    assert result_digest(reference) != result_digest(candidate)
    assert not verdict(reference, candidate)["passed"]


def test_engine_candidate_must_engage_and_checks_must_hold() -> None:
    idle = verdict(_record("a", 10.0, ff_engaged_cycles=0),
                   _record("a", 1.0, ff_engaged_cycles=0), min_speedup=5.0)
    assert idle["digests_equal"] and not idle["engine_engaged"]
    assert not idle["passed"]
    vetoed = verdict(_record("a", 10.0), _record("a", 1.0),
                     campaigns_passed=False)
    assert not vetoed["campaigns_passed"] and not vetoed["passed"]


def test_run_pair_runs_the_reference_first(tmp_path) -> None:
    order: list[object] = []

    def cell(mode: object) -> dict:
        order.append(mode)
        return _record("a", 4.0 if mode == 1 else 1.0, workers=mode)

    pair = run_pair("demo", cell, modes=(1, 3), min_speedup=3.0)
    assert order == [1, 3]
    assert pair["verdict"]["passed"] and pair["verdict"]["speedup"] == 4.0
    script = str(tmp_path / "bench_demo.py")
    assert publish(script, {"pairs": {"demo": pair}}) == {}
    slow = run_pair("slow", cell, modes=(1, 3), min_speedup=5.0)
    failed = publish(script, {"pairs": {"demo": pair, "slow": slow}})
    assert list(failed) == ["slow"] and not failed["slow"]["passed"]


def test_pooled_gates_follow_the_host(monkeypatch: pytest.MonkeyPatch,
                                      ) -> None:
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool_width() == 2
    assert pool_gate(2.5, workers=4) is None
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert pool_width() == 4
    assert pool_gate(2.5, workers=4) == 2.5
    assert pool_gate(2.5, workers=2) is None


def _streams_per_object(server) -> list[int]:
    counts = Counter(stream.object.name
                     for stream in server.scheduler.streams.values())
    return [counts[name] for name in server.catalog.names()]


def test_loader_admits_one_stream_per_disk_in_catalog_order() -> None:
    server = build_server(Scheme.STREAMING_RAID, num_disks=10,
                          catalog=tiny_catalog(2, tracks=40),
                          verify_payloads=False)
    assert server.scheduler.admission_limit >= 10
    assert load_one_stream_per_disk(server) == 10
    assert _streams_per_object(server) == [5, 5]
    ids = sorted(server.scheduler.streams)
    names = [server.scheduler.streams[i].object.name for i in ids]
    assert names == ["m0"] * 5 + ["m1"] * 5


def test_loader_stops_at_the_admission_limit() -> None:
    server = build_server(Scheme.STREAMING_RAID, num_disks=10,
                          catalog=tiny_catalog(2, tracks=40),
                          admission_limit=7, verify_payloads=False)
    assert load_one_stream_per_disk(server) == 7
    assert _streams_per_object(server) == [5, 2]


def test_artifact_carries_the_host_block(tmp_path) -> None:
    script = tmp_path / "bench_demo.py"
    script.write_text("")
    path = write_artifact(str(script), {"pairs": {}})
    document = json.loads(path.read_text())
    assert path.name == "BENCH_demo.json"
    assert document["benchmark"] == "bench_demo"
    assert set(document["host"]) == {"cpu_count", "python", "numpy",
                                     "platform"}
    assert list(document)[:2] == ["benchmark", "host"]
