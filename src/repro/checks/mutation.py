"""Mutation audit: canned bugs that must not survive the analyzer.

A linter only earns trust by demonstrating it *catches things*: every
rule here is exercised by planting a realistic bug — in a known-clean
fixture snippet and in a copy of the real source tree — and asserting
the expected rule kills the mutant.  A surviving mutant means a rule
regressed (or an idiom drifted out from under it) and fails the audit.

Two operator kinds:

* :data:`FIXTURE_OPS` mutate the *good* fixtures from
  :mod:`repro.checks.fixtures` in memory;
* :data:`REAL_OPS` mutate a temp-tree copy of ``src/repro`` itself —
  including ``repro.checks``'s own source — so the audit also covers
  resolution against real project structure (class hierarchies,
  cross-file call paths, subsystem boundaries).

Determinism: operators are plain substring replacements; when a target
substring occurs more than once, the site is chosen as
``(seed + operator_index) % occurrences`` — arithmetic, not RNG, because
R1 bans stdlib ``random`` and ambient RNG in this tree.  Same seed, same
mutants, same verdicts.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.checks.core import Analyzer
from repro.checks.fixtures import FIXTURES, PROJECT_FIXTURES
from repro.checks.rules import rules_by_id

#: Default audit seed (CI pins this; any seed must yield 100% kills).
DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class FixtureOp:
    """Mutate one known-clean fixture; ``kill`` must fire."""

    name: str
    base: str  # label in FIXTURES or PROJECT_FIXTURES
    old: str
    new: str
    kill: str  # rule ID expected to kill the mutant


@dataclass(frozen=True)
class RealSourceOp:
    """Mutate one real source file (in a temp copy); ``kill`` must fire."""

    name: str
    file: str  # path relative to the repo root
    old: str
    new: str
    kill: str


FIXTURE_OPS: tuple[FixtureOp, ...] = (
    FixtureOp("import-stdlib-random", "R1-good-random-source",
              "from repro.sim.rng import RandomSource",
              "import random\nfrom repro.sim.rng import RandomSource",
              "R1"),
    FixtureOp("import-wall-clock", "R1-good-random-source",
              "from repro.sim.rng import RandomSource",
              "from time import time\nfrom repro.sim.rng import RandomSource",
              "R1"),
    FixtureOp("inline-mb-conversion", "R2-good-units-vocabulary",
              "return mb_to_bytes(track_size_mb)",
              "return int(track_size_mb * 1_000_000)",
              "R2"),
    FixtureOp("inline-mbit-conversion", "R2-good-units-vocabulary",
              "return mbits_per_sec(bandwidth_mbits)",
              "return bandwidth_mbits / 8",
              "R2"),
    FixtureOp("drop-epoch-bump", "R3-good-bumped",
              "        self._record_delta()\n", "",
              "R3"),
    FixtureOp("drop-state-change-bump", "R3-good-fault-domain-bumped",
              "        self.state_changes += 1\n", "",
              "R3"),
    FixtureOp("drop-fault-notifier", "R3-good-fault-index-notified",
              "        self._fault_changed()\n", "",
              "R3"),
    FixtureOp("drop-fault-index-refile", "R3-good-fault-index-notified",
              "        self._faults.refile(self)\n", "",
              "R3"),
    FixtureOp("drop-cache-rekey", "R3-good-cache-evict-rekeyed",
              "        self._plan_cache_key = key\n", "",
              "R3"),
    FixtureOp("empty-subclass-slots", "R4-good-slotted-hierarchy",
              '__slots__ = ("cause",)', "__slots__ = ()",
              "R4"),
    FixtureOp("drop-class-slots", "R4-good-slotted-hierarchy",
              '    __slots__ = ("disk_id", "kind")\n', "",
              "R4"),
    FixtureOp("float-equality", "R5-good-isclose",
              "math.isclose(total_cost, other_cost, rel_tol=1e-9)",
              "total_cost == other_cost",
              "R5"),
    FixtureOp("drop-param-annotation", "R6-good-annotated",
              "def cost(disks: int, price_per_disk: float) -> float:",
              "def cost(disks, price_per_disk: float) -> float:",
              "R6"),
    FixtureOp("drop-return-annotation", "R6-good-annotated",
              "def resize(self, streams: int) -> None:",
              "def resize(self, streams: int):",
              "R6"),
    FixtureOp("untyped-lambda-def", "R6-good-annotated-lambda",
              "cost: Callable[[int], float] = lambda disks: disks * 2.0",
              "cost = lambda disks: disks * 2.0",
              "R6"),
    FixtureOp("lambda-task-payload", "R7-good-module-payload",
              'return TaskSpec(cell, args=(1,), label="ok")',
              'return TaskSpec(lambda: cell(1), label="ok")',
              "R7"),
    FixtureOp("probe-mutates-state", "R8-good-probe-writes-report",
              '        self.report.setdefault("probes", 0)\n',
              '        self.report.setdefault("probes", 0)\n'
              '        self.active.clear()\n',
              "R8"),
    FixtureOp("narrow-guard-key", "R9-good-caller-guards-read",
              "key = (self.layout.epoch, self.array.state_epoch)",
              "key = (self.layout.epoch,)",
              "R9"),
    FixtureOp("drop-guard-block", "R9-good-caller-guards-read",
              "        key = (self.layout.epoch, self.array.state_epoch)\n"
              "        if self._plan_cache_key != key:\n"
              "            self._plan_cache = {}\n"
              "            self._plan_cache_key = key\n",
              "",
              "R9"),
    FixtureOp("steal-fault-stream", "R10-good-isolated-streams",
              'rng.exponential("arrivals", 1.0)',
              'rng.exponential("events", 1.0)',
              "R10"),
    FixtureOp("steal-workload-stream", "R10-good-isolated-streams",
              'rng.exponential("events", 100.0)',
              'rng.exponential("arrivals", 100.0)',
              "R10"),
    FixtureOp("drop-bincount-minlength", "R11-good-real-idioms",
              ", minlength=n", "",
              "R11"),
    FixtureOp("drop-reduceat-cast", "R11-good-real-idioms",
              "down.astype(np.int64)", "down",
              "R11"),
    FixtureOp("drop-buffer-seed-tail", "R11-good-real-idioms",
              "    steps[1:] = gaps\n", "",
              "R11"),
)


REAL_OPS: tuple[RealSourceOp, ...] = (
    RealSourceOp("real-import-random", "src/repro/workload/arrivals.py",
                 "import numpy as np",
                 "import numpy as np\nimport random",
                 "R1"),
    RealSourceOp("real-drop-fault-bump", "src/repro/disk/drive.py",
                 "self.state_changes += 1", "pass",
                 "R3"),
    RealSourceOp("real-drop-fault-notify", "src/repro/disk/drive.py",
                 "self._fault_changed()", "pass",
                 "R3"),
    RealSourceOp("real-untype-param", "src/repro/checks/callgraph.py",
                 "def subsystem_of(path: str) -> str:",
                 "def subsystem_of(path) -> str:",
                 "R6"),
    RealSourceOp("real-impure-ff-probe",
                 "src/repro/sched/improved_bandwidth.py",
                 "        return not self.proactive_parity and "
                 "not self.mirror_read_balance",
                 "        self.proactive_parity = False\n"
                 "        return not self.proactive_parity and "
                 "not self.mirror_read_balance",
                 "R8"),
    RealSourceOp("real-array-memo-write", "src/repro/disk/drive.py",
                 "        return sorted(self.faults.failed)\n",
                 "        self._failed_memo = sorted(self.faults.failed)\n"
                 "        return self._failed_memo\n",
                 "R8"),
    RealSourceOp("real-narrow-plan-key", "src/repro/sched/base.py",
                 "key = (self.layout.epoch, self.array.state_epoch)",
                 "key = (self.layout.epoch,)",
                 "R9"),
    RealSourceOp("real-drop-plan-refresh", "src/repro/sched/base.py",
                 "        self._refresh_plan_cache()\n"
                 "        report = CycleReport(cycle=self.cycle_index)\n",
                 "        report = CycleReport(cycle=self.cycle_index)\n",
                 "R9"),
    RealSourceOp("real-narrow-table-key", "src/repro/sched/epoch.py",
                 "sched._ff_tables_key = sched._plan_cache_key",
                 "sched._ff_tables_key = (sched.layout.epoch,)",
                 "R9"),
    RealSourceOp("real-steal-workload-stream",
                 "src/repro/faults/reliability.py",
                 '"events"', '"arrivals"',
                 "R10"),
    RealSourceOp("real-chaos-static-collision", "src/repro/faults/chaos.py",
                 'rng.random(f"{tag}-fail")', 'rng.random("arrivals")',
                 "R10"),
    RealSourceOp("real-drop-bincount-minlength", "src/repro/sched/epoch.py",
                 ", minlength=self.num_disks", "",
                 "R11"),
    RealSourceOp("real-drop-reduceat-cast", "src/repro/sched/epoch.py",
                 "np.add.reduceat(down.astype(np.int64), ptr[:-1])",
                 "np.add.reduceat(down, ptr[:-1])",
                 "R11"),
    RealSourceOp("real-drop-empty-seed", "src/repro/workload/arrivals.py",
                 "            steps[1:] = gaps\n", "",
                 "R11"),
)


@dataclass(frozen=True)
class MutantResult:
    """Verdict for one operator at one (seed-chosen) site."""

    op: str
    kind: str  # "fixture" | "real"
    kill: str
    site: int  # chosen occurrence index
    occurrences: int
    killed: bool
    detail: str = ""


@dataclass
class AuditReport:
    """All mutant verdicts for one seed."""

    seed: int
    results: list[MutantResult]

    @property
    def ok(self) -> bool:
        return all(result.killed for result in self.results)

    @property
    def killed(self) -> int:
        return sum(1 for result in self.results if result.killed)

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "mutants": len(self.results),
            "killed": self.killed,
            "results": [
                {"op": r.op, "kind": r.kind, "kill": r.kill,
                 "site": r.site, "occurrences": r.occurrences,
                 "killed": r.killed, "detail": r.detail}
                for r in self.results
            ],
        }


class MutationError(Exception):
    """An operator's target text is missing — the idiom drifted."""


def _replace_occurrence(text: str, old: str, new: str,
                        index: int) -> tuple[str, int, int]:
    """Replace the ``index``-th (mod count) occurrence of ``old``.

    Returns (mutated text, chosen index, occurrence count).
    """
    positions: list[int] = []
    start = 0
    while True:
        at = text.find(old, start)
        if at < 0:
            break
        positions.append(at)
        start = at + len(old)
    if not positions:
        raise MutationError(f"target text not found: {old!r}")
    chosen = index % len(positions)
    at = positions[chosen]
    return text[:at] + new + text[at + len(old):], chosen, len(positions)


def _fixture_by_label(label: str) -> Union[object, None]:
    for fixture in FIXTURES:
        if fixture.label == label:
            return fixture
    for fixture in PROJECT_FIXTURES:
        if fixture.label == label:
            return fixture
    return None


def _run_fixture_op(op: FixtureOp, index: int, seed: int) -> MutantResult:
    base = _fixture_by_label(op.base)
    if base is None:
        return MutantResult(op=op.name, kind="fixture", kill=op.kill,
                            site=0, occurrences=0, killed=False,
                            detail=f"base fixture {op.base!r} not found")
    analyzer = Analyzer(rules_by_id([op.kill]))
    try:
        if hasattr(base, "files"):  # ProjectFixture
            files = list(base.files)
            holders = [i for i, (_path, source) in enumerate(files)
                       if op.old in source]
            if not holders:
                raise MutationError(f"target text not found: {op.old!r}")
            mutated_files = []
            site = occurrences = 0
            for i, (path, source) in enumerate(files):
                if i == holders[0]:
                    source, site, occurrences = _replace_occurrence(
                        source, op.old, op.new, seed + index)
                mutated_files.append((path, source))
            findings = analyzer.check_sources(mutated_files)
        else:
            code, site, occurrences = _replace_occurrence(
                base.code, op.old, op.new, seed + index)
            findings = analyzer.check_source(code, base.path)
    except MutationError as exc:
        return MutantResult(op=op.name, kind="fixture", kill=op.kill,
                            site=0, occurrences=0, killed=False,
                            detail=str(exc))
    except SyntaxError as exc:
        return MutantResult(op=op.name, kind="fixture", kill=op.kill,
                            site=0, occurrences=0, killed=False,
                            detail=f"mutant does not parse: {exc}")
    killed = any(finding.rule_id == op.kill for finding in findings)
    detail = "" if killed else "no finding from expected rule"
    return MutantResult(op=op.name, kind="fixture", kill=op.kill,
                        site=site, occurrences=occurrences, killed=killed,
                        detail=detail)


def _run_real_op(op: RealSourceOp, index: int, seed: int,
                 tree_root: Path) -> MutantResult:
    target = tree_root / op.file
    if not target.is_file():
        return MutantResult(op=op.name, kind="real", kill=op.kill,
                            site=0, occurrences=0, killed=False,
                            detail=f"missing file {op.file}")
    original = target.read_text(encoding="utf-8")
    try:
        mutated, site, occurrences = _replace_occurrence(
            original, op.old, op.new, seed + index)
    except MutationError as exc:
        return MutantResult(op=op.name, kind="real", kill=op.kill,
                            site=0, occurrences=0, killed=False,
                            detail=str(exc))
    try:
        target.write_text(mutated, encoding="utf-8")
        analyzer = Analyzer(rules_by_id([op.kill]))
        report = analyzer.check_paths([tree_root / "src"])
        killed = any(finding.rule_id == op.kill
                     for finding in report.findings)
    finally:
        target.write_text(original, encoding="utf-8")
    detail = "" if killed else "no finding from expected rule"
    return MutantResult(op=op.name, kind="real", kill=op.kill,
                        site=site, occurrences=occurrences, killed=killed,
                        detail=detail)


def run_mutation_audit(seed: int = DEFAULT_SEED,
                       repo_root: Optional[Path] = None) -> AuditReport:
    """Run every operator; the audit passes only on a 100% kill rate."""
    root = repo_root if repo_root is not None else Path(".")
    results: list[MutantResult] = []
    for index, fixture_op in enumerate(FIXTURE_OPS):
        results.append(_run_fixture_op(fixture_op, index, seed))
    source_root = root / "src" / "repro"
    if REAL_OPS and source_root.is_dir():
        with tempfile.TemporaryDirectory(prefix="repro-mutants-") as tmp:
            tree_root = Path(tmp)
            shutil.copytree(source_root, tree_root / "src" / "repro")
            for index, real_op in enumerate(REAL_OPS):
                results.append(_run_real_op(real_op, index, seed,
                                            tree_root))
    elif REAL_OPS:
        for real_op in REAL_OPS:
            results.append(MutantResult(
                op=real_op.name, kind="real", kill=real_op.kill,
                site=0, occurrences=0, killed=False,
                detail=f"source tree not found under {source_root}"))
    return AuditReport(seed=seed, results=results)
