"""The repository itself passes its own static analysis.

This is the tier-1 gate: any new unseeded randomness, magic unit factor,
epoch-cache violation, slot leak, float equality in analysis/, or
untyped def fails the test suite, not just CI.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.checks import Analyzer

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_is_clean() -> None:
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        report = Analyzer().check_paths(
            ["src", "tests", "benchmarks", "examples"])
    finally:
        os.chdir(cwd)
    assert report.files_checked > 100
    assert report.ok, "\n" + "\n".join(f.render() for f in report.findings)
