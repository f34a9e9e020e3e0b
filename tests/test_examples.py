"""Every script in ``examples/`` runs to completion.

The examples are the package's narrated entry points and read the
public report API (``report.peak_buffered_tracks``, ``summary()`` ...),
so each one runs in a fresh interpreter with ``src`` on the path and
must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script: Path) -> None:
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    result = subprocess.run([sys.executable, str(script)], cwd=REPO_ROOT,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
