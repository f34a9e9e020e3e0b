"""Suppression semantics for the interprocedural rules (R8–R11).

A ``# repro: allow(R8)`` means different things at different anchors:
on the *callee's def line* it vouches for the function everywhere; on a
*call site* it vouches only for that edge — other paths to the same
callee still report.  These tests pin both, including across files.
"""

from __future__ import annotations

import textwrap

from repro.checks.core import Analyzer
from repro.checks.rules import rules_by_id


def _dedent(code: str) -> str:
    return textwrap.dedent(code).strip("\n") + "\n"


def _check(files: list[tuple[str, str]], select: list[str]):
    analyzer = Analyzer(rules_by_id(select))
    return analyzer.check_sources(
        [(path, _dedent(code)) for path, code in files])


IMPURE_HELPER = """
    class Sched:
        def _ff_classify(self) -> str:
            self._note()
            return "healthy"

        def _note(self) -> None:
            self.log = 1
"""

IMPURE_HELPER_ALLOWED_DEF = """
    class Sched:
        def _ff_classify(self) -> str:
            self._note()
            return "healthy"

        # repro: allow(R8)
        def _note(self) -> None:
            self.log = 1
"""

IMPURE_HELPER_ALLOWED_CALL = """
    class Sched:
        def _ff_classify(self) -> str:
            self._note()  # repro: allow(R8)
            return "healthy"

        def _note(self) -> None:
            self.log = 1
"""


def test_r8_unsuppressed_flags_the_helper() -> None:
    findings = _check([("src/repro/sched/mod.py", IMPURE_HELPER)], ["R8"])
    assert [f.rule_id for f in findings] == ["R8"]
    assert "_note" in findings[0].message


def test_r8_callee_def_allow_clears_all_paths() -> None:
    findings = _check(
        [("src/repro/sched/mod.py", IMPURE_HELPER_ALLOWED_DEF)], ["R8"])
    assert findings == []


def test_r8_call_site_allow_clears_that_edge_only() -> None:
    findings = _check(
        [("src/repro/sched/mod.py", IMPURE_HELPER_ALLOWED_CALL)], ["R8"])
    assert findings == []


def test_r8_call_site_allow_does_not_cover_other_edges() -> None:
    code = """
        class Sched:
            def _ff_classify(self) -> str:
                self._note()  # repro: allow(R8)
                return "healthy"

            def _fast_forward_ready(self) -> bool:
                self._note()
                return True

            def _note(self) -> None:
                self.log = 1
    """
    findings = _check([("src/repro/sched/mod.py", code)], ["R8"])
    # The unsuppressed _fast_forward_ready path still reports the helper.
    assert [f.rule_id for f in findings] == ["R8"]
    assert "_note" in findings[0].message


MEMO_MODULE = """
    class Memo:
        def __init__(self) -> None:
            self.count = 0

        def note(self) -> None:
            self.count += 1
"""

MEMO_MODULE_ALLOWED_DEF = """
    class Memo:
        def __init__(self) -> None:
            self.count = 0

        # repro: allow(R8)
        def note(self) -> None:
            self.count += 1
"""

SCHED_USES_MEMO = """
    from repro.layout.memo import Memo

    class Sched:
        def __init__(self) -> None:
            self.memo = Memo()

        def _ff_classify(self) -> str:
            self.memo.note(){allow}
            return "healthy"
"""


def test_r8_cross_file_unsuppressed_reports_the_callee() -> None:
    files = [
        ("src/repro/sched/mod.py", SCHED_USES_MEMO.format(allow="")),
        ("src/repro/layout/memo.py", MEMO_MODULE),
    ]
    findings = _check(files, ["R8"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/layout/memo.py"
    assert "note" in findings[0].message


def test_r8_cross_file_callee_def_allow_wins() -> None:
    # The allow on the callee's def (file B) clears a reachability
    # finding triggered from a probe in file A.
    files = [
        ("src/repro/sched/mod.py", SCHED_USES_MEMO.format(allow="")),
        ("src/repro/layout/memo.py", MEMO_MODULE_ALLOWED_DEF),
    ]
    assert _check(files, ["R8"]) == []


def test_r8_cross_file_call_site_allow_is_local() -> None:
    # Call-site allow in file A covers file A's edge; file B's own
    # unsuppressed probe path still reports.
    files = [
        ("src/repro/sched/mod.py",
         SCHED_USES_MEMO.format(allow="  # repro: allow(R8)")),
        ("src/repro/layout/memo.py", MEMO_MODULE + """
    class Layout:
        def __init__(self) -> None:
            self.memo = Memo()

        def _ff_classify(self) -> str:
            self.memo.note()
            return "healthy"
"""),
    ]
    findings = _check(files, ["R8"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/layout/memo.py"


def test_r9_read_site_allow_suppresses() -> None:
    code = """
        class Sched:
            def lookup(self, name):
                return self._plan_cache[name]  # repro: allow(R9)
    """
    assert _check([("src/repro/sched/mod.py", code)], ["R9"]) == []


def test_r9_cross_file_guard_satisfies_the_read() -> None:
    files = [
        ("src/repro/sched/mod.py", """
            class Sched:
                def _refresh_plan_cache(self) -> None:
                    key = (self.layout.epoch, self.array.state_epoch)
                    if self._plan_cache_key != key:
                        self._plan_cache = {}
                        self._plan_cache_key = key

                def _lookup(self, name):
                    return self._plan_cache.get(name)
            """),
        ("src/repro/server/top.py", """
            from repro.sched.mod import Sched

            class Driver(Sched):
                def run_cycle(self, name):
                    self._refresh_plan_cache()
                    return self._lookup(name)
            """),
    ]
    assert _check(files, ["R9"]) == []


def test_r10_suppressed_use_site_is_local() -> None:
    files = [
        ("src/repro/workload/mod.py", """
            def draw(rng) -> float:
                return rng.exponential("shared", 1.0)
            """),
        ("src/repro/faults/mod.py", """
            def draw(rng) -> float:
                return rng.exponential("shared", 1.0)  # repro: allow(R10)
            """),
    ]
    findings = _check(files, ["R10"])
    # Only the unsuppressed side of the collision reports.
    assert [f.path for f in findings] == ["src/repro/workload/mod.py"]


def test_r11_allow_on_the_accumulation_line() -> None:
    code = """
        import numpy as np

        def total(n: int) -> int:
            acc = np.zeros(n, dtype=np.int64)
            acc += 0.5  # repro: allow(R11)
            return int(acc.sum())
    """
    assert _check([("src/repro/sched/mod.py", code)], ["R11"]) == []
