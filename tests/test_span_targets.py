"""Every layer span of the end-to-end benchmark names a live function.

``benchmarks/e2e/spans.py`` wraps simulator functions by dotted name
(``CycleScheduler.run_churn``, ``run_epoch``, ``admit_batch`` ...).  A
rename in ``src/`` would otherwise surface only when the benchmark runs,
so this loads the span table by path and resolves every entry.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import ModuleType

SPANS_PATH = (Path(__file__).resolve().parent.parent
              / "benchmarks" / "e2e" / "spans.py")


def _load_spans() -> ModuleType:
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_span_resolves() -> None:
    spans = _load_spans()
    assert spans.LAYER_SPANS
    unresolved = []
    for name, (module, qualname) in sorted(spans.LAYER_SPANS.items()):
        try:
            owner, attr = spans.resolve(module, qualname)
            if not callable(getattr(owner, attr)):
                unresolved.append(f"{name}: {module}.{qualname} "
                                  "is not callable")
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{name}: {module}.{qualname} ({exc})")
    assert not unresolved, unresolved
