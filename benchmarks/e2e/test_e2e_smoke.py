"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs ``run.py --smoke`` with ``--repeat 2`` and once more with
``--trace``, then checks that every metric ``BENCHMARK.json`` names is
emitted with its unit, that the two runs of each workload reach the same
digest, that the correctness checks pass, and that the traced spans
account for the traced wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _smoke(label: str, *extra: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """The last-line JSON and the result file of one smoke invocation."""
    out = HERE / "out" / f"test-{label}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *extra], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return (json.loads(done.stdout.strip().splitlines()[-1]),
            json.loads(out.read_text()))


@pytest.fixture(scope="module")
def repeated() -> tuple[dict[str, Any], dict[str, Any]]:
    return _smoke("smoke", "--repeat", "2")


@pytest.fixture(scope="module")
def traced() -> tuple[dict[str, Any], dict[str, Any]]:
    return _smoke("smoke-trace", "--trace")


def _assert_emitted(line: dict[str, Any],
                    catalogue: list[dict[str, Any]]) -> None:
    for workload in WORKLOADS:
        for entry in catalogue:
            metric = line["metrics"][f"{workload}.{entry['name']}"]
            assert metric["unit"] == entry["unit"], (workload, entry)
            assert isinstance(metric["value"], (int, float))


def test_every_end_to_end_metric_is_emitted_with_its_unit(repeated):
    line, _ = repeated
    _assert_emitted(line, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    line, _ = traced
    _assert_emitted(line, SPEC["per_layer"])


def test_two_smoke_runs_give_identical_digests(repeated):
    _, record = repeated
    for name in WORKLOADS:
        digests = record["workloads"][name]["digests"]
        assert len(digests) == 2 and digests[0] == digests[1], name


def test_checks_pass(repeated):
    line, record = repeated
    assert line["correct"] and line["failed"] == 0
    for name in WORKLOADS:
        result = record["workloads"][name]
        assert result["checks"], name
        assert all(check["ok"] for check in result["checks"]), name
        assert not result["problems"], (name, result["problems"])


def test_spans_cover_the_traced_wall_time(traced):
    line, _ = traced
    for name in WORKLOADS:
        assert line["metrics"][f"{name}.trace.coverage"]["value"] >= 0.95
