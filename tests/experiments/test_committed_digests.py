"""The committed chaos and reliability artifacts, reproduced.

``bench_chaos --smoke`` and ``bench_reliability --smoke`` compare the
fast run against the scalar run of the same invocation, so a change that
moves both sides together passes both gates.  These tests re-run the
fast side of each committed pair and require the digest the artifact
recorded.  The run sizes come from the artifact, so re-recording it on
purpose needs no edit here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.experiments.chaosbench import farm_profile, run_chaos_cell
from repro.experiments.rebuildbench import run_window_cell
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _pairs(name: str) -> dict[str, Any]:
    artifact = json.loads((BENCHMARKS / f"BENCH_{name}.json").read_text())
    pairs: dict[str, Any] = artifact["pairs"]
    return pairs


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_chaos_campaign_reproduces_its_committed_digest(
        scheme: Scheme) -> None:
    recorded = _pairs("chaos")[scheme.value]["candidate"]
    cell = run_chaos_cell(scheme, farm_profile(recorded["cycles"]), True)
    assert cell["digest"] == recorded["digest"]


def test_rebuild_window_reproduces_its_committed_digest() -> None:
    recorded = _pairs("reliability")["window"]["candidate"]
    cell = run_window_cell(recorded["num_disks"], True)
    assert cell["state_sha256"] == recorded["state_sha256"]
