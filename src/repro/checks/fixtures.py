"""Good/bad fixture snippets proving each rule fires (and stays quiet).

These back ``python -m repro.checks --self-test`` and the
``tests/checks`` suite: every rule has at least one *bad* snippet with
the exact ``(rule_id, line)`` pairs it must produce, at least one *good*
snippet that must stay clean, and a suppressed variant showing the
``# repro: allow(...)`` escape works.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass

from repro.checks.core import Analyzer, Finding


@dataclass(frozen=True)
class Fixture:
    """One self-test snippet and the findings it must produce."""

    label: str
    #: Synthetic path placing the snippet inside the target rule's scope.
    path: str
    code: str
    #: Expected ``(rule_id, line)`` pairs, exactly; empty for good/clean.
    expect: tuple[tuple[str, int], ...] = ()


def _snippet(code: str) -> str:
    return textwrap.dedent(code).strip("\n") + "\n"


FIXTURES: tuple[Fixture, ...] = (
    # -- R1 determinism ------------------------------------------------------
    Fixture(
        label="R1-bad-import-random",
        path="src/repro/workload/example.py",
        code=_snippet("""
            import random


            def draw() -> float:
                return random.random()
        """),
        expect=(("R1", 1),),
    ),
    Fixture(
        label="R1-bad-wall-clock",
        path="src/repro/faults/example.py",
        code=_snippet("""
            import time
            from datetime import datetime


            def stamp() -> float:
                started = time.time()
                label = datetime.now()
                return started
        """),
        expect=(("R1", 6), ("R1", 7)),
    ),
    Fixture(
        label="R1-bad-unseeded-rng",
        path="tests/workload/test_example.py",
        code=_snippet("""
            import numpy as np


            def make_rng() -> object:
                return np.random.default_rng()
        """),
        expect=(("R1", 5),),
    ),
    Fixture(
        label="R1-bad-global-numpy-rng",
        path="src/repro/workload/example.py",
        code=_snippet("""
            import numpy as np


            def draw() -> float:
                np.random.seed(0)
                return float(np.random.uniform())
        """),
        expect=(("R1", 5), ("R1", 6)),
    ),
    Fixture(
        label="R1-bad-seeded-rng-in-src",
        path="src/repro/media/example.py",
        code=_snippet("""
            import numpy as np


            def make_rng() -> object:
                return np.random.default_rng(42)
        """),
        expect=(("R1", 5),),
    ),
    Fixture(
        label="R1-good-seeded-rng-in-tests",
        path="tests/workload/test_example.py",
        code=_snippet("""
            import numpy as np


            def make_rng() -> object:
                return np.random.default_rng(42)
        """),
    ),
    Fixture(
        label="R1-good-random-source",
        path="src/repro/workload/example.py",
        code=_snippet("""
            from repro.sim.rng import RandomSource


            def draw(rng: RandomSource) -> float:
                return rng.uniform("arrivals")
        """),
    ),
    Fixture(
        label="R1-suppressed",
        path="src/repro/workload/example.py",
        code=_snippet("""
            import random  # repro: allow(determinism)


            def draw() -> float:
                return random.random()
        """),
    ),
    # -- R2 units ------------------------------------------------------------
    Fixture(
        label="R2-bad-inline-conversions",
        path="src/repro/sched/example.py",
        code=_snippet("""
            def track_bytes(track_size_mb: float) -> int:
                return int(track_size_mb * 1_000_000)


            def to_mb_s(bandwidth_mbits: float) -> float:
                return bandwidth_mbits / 8
        """),
        expect=(("R2", 2), ("R2", 6)),
    ),
    Fixture(
        label="R2-good-units-vocabulary",
        path="src/repro/sched/example.py",
        code=_snippet("""
            from repro.units import mb_to_bytes, mbits_per_sec


            def track_bytes(track_size_mb: float) -> int:
                return mb_to_bytes(track_size_mb)


            def to_mb_s(bandwidth_mbits: float) -> float:
                return mbits_per_sec(bandwidth_mbits)
        """),
    ),
    Fixture(
        label="R2-good-non-unit-factor",
        path="src/repro/sched/example.py",
        code=_snippet("""
            def spread(count: int) -> int:
                return count * 1000
        """),
    ),
    Fixture(
        label="R2-suppressed",
        path="src/repro/sched/example.py",
        code=_snippet("""
            def track_bytes(track_size_mb: float) -> int:
                return int(track_size_mb * 1_000_000)  # repro: allow(R2)
        """),
    ),
    # -- R3 epoch-cache ------------------------------------------------------
    Fixture(
        label="R3-bad-placement-mutation",
        path="src/repro/layout/example.py",
        code=_snippet("""
            class Layout:
                def forget(self, name: str) -> None:
                    self._placements.pop(name)
        """),
        expect=(("R3", 2),),
    ),
    Fixture(
        label="R3-bad-array-flip",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("array",)

                def crash(self, disk_id: int) -> None:
                    self.array.fail(disk_id)
        """),
        expect=(("R3", 4),),
    ),
    Fixture(
        label="R3-bad-fault-domain-call",
        path="src/repro/faults/example.py",
        code=_snippet("""
            class Harness:
                __slots__ = ("array",)

                def slow_down(self, disk_id: int, fraction: float) -> None:
                    self.array.degrade(disk_id, fraction)

                def plant(self, disk_id: int, position: int) -> None:
                    self.array.inject_media_error(position)
        """),
        expect=(("R3", 4), ("R3", 7)),
    ),
    Fixture(
        label="R3-bad-fail-slow-field",
        path="src/repro/disk/example.py",
        code=_snippet("""
            class Disk:
                __slots__ = ("service_fraction", "_media_errors")

                def throttle(self, fraction: float) -> None:
                    self.service_fraction = fraction

                def corrupt(self, position: int) -> None:
                    self._media_errors[position] = False
        """),
        expect=(("R3", 4), ("R3", 7)),
    ),
    Fixture(
        label="R3-good-fault-domain-bumped",
        path="src/repro/disk/example.py",
        code=_snippet("""
            class Disk:
                __slots__ = ("service_fraction", "state_changes", "_faults")

                def throttle(self, fraction: float) -> None:
                    self.service_fraction = fraction
                    self._fault_changed()

                def _fault_changed(self) -> None:
                    self.state_changes += 1
                    self._faults.refile(self)
        """),
    ),
    Fixture(
        # A bare per-disk bump leaves the array's fault index stale, and
        # a notifier that skips the index is no notifier at all.
        label="R3-bad-fault-bump-without-notifier",
        path="src/repro/disk/example.py",
        code=_snippet("""
            class Disk:
                __slots__ = ("_media_errors", "state_changes")

                def scrub(self, position: int) -> bool:
                    if self._media_errors.pop(position, None) is None:
                        return False
                    self.state_changes += 1
                    return True

                def _fault_changed(self) -> None:
                    self.state_changes += 1
        """),
        expect=(("R3", 4), ("R3", 10)),
    ),
    Fixture(
        label="R3-good-fault-index-notified",
        path="src/repro/disk/example.py",
        code=_snippet("""
            class Disk:
                __slots__ = ("_media_errors", "state_changes", "_faults")

                def scrub(self, position: int) -> bool:
                    if self._media_errors.pop(position, None) is None:
                        return False
                    self._fault_changed()
                    return True

                def _fault_changed(self) -> None:
                    self.state_changes += 1
                    self._faults.refile(self)
        """),
    ),
    Fixture(
        label="R3-good-scrub-internal-bump",
        path="src/repro/faults/example.py",
        code=_snippet("""
            class Scrubber:
                __slots__ = ("array",)

                def step(self, disk_id: int, position: int) -> bool:
                    return self.array[disk_id].scrub(position)
        """),
    ),
    Fixture(
        label="R3-good-bumped",
        path="src/repro/layout/example.py",
        code=_snippet("""
            class Layout:
                def forget(self, name: str) -> None:
                    self._placements.pop(name)
                    self._record_delta()

                def _record_delta(self) -> None:
                    self._epoch += 1
        """),
    ),
    Fixture(
        label="R3-good-init-exempt",
        path="src/repro/layout/example.py",
        code=_snippet("""
            class Layout:
                def __init__(self) -> None:
                    self._placements = {}
                    self._epoch = 0
        """),
    ),
    Fixture(
        label="R3-suppressed",
        path="src/repro/layout/example.py",
        code=_snippet("""
            class Layout:
                # Caller owns the epoch bump.
                def forget(self, name: str) -> None:  # repro: allow(epoch-cache)
                    self._placements.pop(name)
        """),
    ),
    Fixture(
        label="R3-bad-design-cache-mutation",
        path="src/repro/layout/example.py",
        code=_snippet("""
            class DeclusteredLayout:
                def rescan(self) -> None:
                    self._design_rows.clear()
                    self._design_scanned = 0
        """),
        expect=(("R3", 2),),
    ),
    Fixture(
        label="R3-good-design-cache-marked",
        path="src/repro/layout/example.py",
        code=_snippet("""
            class DeclusteredLayout:
                # Construction-time geometry: rows depend only on (D, C).
                def _materialise_rows(self, count: int) -> None:  # repro: allow(epoch-cache)
                    while len(self._design_rows) < count:
                        self._design_rows.append(self._raw_row(
                            self._design_scanned))
                        self._design_scanned += 1
        """),
    ),
    Fixture(
        label="R3-bad-cache-evict-without-rekey",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_plan_cache", "_ff_tables")

                def evict(self, name: str) -> None:
                    self._plan_cache.pop(name, None)

                def reset_tables(self) -> None:
                    self._ff_tables = {}
        """),
        expect=(("R3", 4), ("R3", 7)),
    ),
    Fixture(
        label="R3-good-cache-evict-rekeyed",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_plan_cache", "_plan_cache_key",
                             "_ff_tables", "_ff_tables_key")

                def bridge(self, name: str, key: tuple) -> None:
                    self._plan_cache.pop(name, None)
                    self._plan_cache_key = key

                def reset_tables(self, key: tuple) -> None:
                    self._ff_tables = {}
                    self._ff_tables_key = key

                def fill(self, name: str, plan: object) -> None:
                    self._plan_cache[name] = plan
        """),
    ),
    Fixture(
        label="R3-bad-degraded-cache-without-rekey",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_ff_plan", "_ff_tables")

                def reset_rebuild_plan(self) -> None:
                    self._ff_plan = None

                def reset_tables(self) -> None:
                    self._ff_tables.clear()
        """),
        expect=(("R3", 4), ("R3", 7)),
    ),
    Fixture(
        label="R3-good-degraded-cache-rekeyed",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_ff_tables", "_ff_tables_key",
                             "_ff_plan", "_ff_plan_key")

                def reset_tables(self, key: tuple) -> None:
                    self._ff_tables = {}
                    self._ff_tables_key = key

                def memoise(self, plan: tuple, key: tuple) -> None:
                    self._ff_plan = plan
                    self._ff_plan_key = key
        """),
    ),
    # -- R4 slots ------------------------------------------------------------
    Fixture(
        label="R4-bad-missing-slots",
        path="src/repro/disk/example.py",
        code=_snippet("""
            class Cache:
                def __init__(self) -> None:
                    self.entries = {}
        """),
        expect=(("R4", 1),),
    ),
    Fixture(
        label="R4-bad-undeclared-attribute",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Plan:
                __slots__ = ("disk_id",)

                def __init__(self, disk_id: int) -> None:
                    self.disk_id = disk_id
                    self.retries = 0
        """),
        expect=(("R4", 6),),
    ),
    Fixture(
        label="R4-bad-plain-dataclass",
        path="src/repro/sched/example.py",
        code=_snippet("""
            from dataclasses import dataclass


            @dataclass
            class Entry:
                disk_id: int
        """),
        expect=(("R4", 5),),
    ),
    Fixture(
        label="R4-good-slotted-hierarchy",
        path="src/repro/sched/example.py",
        code=_snippet("""
            import enum
            from dataclasses import dataclass


            class Kind(enum.Enum):
                DATA = "data"


            @dataclass(slots=True)
            class Entry:
                disk_id: int


            class Plan:
                __slots__ = ("disk_id", "kind")

                def __init__(self, disk_id: int, kind: Kind) -> None:
                    self.disk_id = disk_id
                    self.kind = kind


            class RecoveryPlan(Plan):
                __slots__ = ("cause",)

                def __init__(self, disk_id: int, kind: Kind) -> None:
                    super().__init__(disk_id, kind)
                    self.cause = None
        """),
    ),
    Fixture(
        label="R4-suppressed",
        path="src/repro/disk/example.py",
        code=_snippet("""
            class Cache:  # repro: allow(slots)
                def __init__(self) -> None:
                    self.entries = {}
        """),
    ),
    # -- R5 float-equality ---------------------------------------------------
    Fixture(
        label="R5-bad-float-compares",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            def same_cost(total_cost: float, other_cost: float) -> bool:
                return total_cost == other_cost


            def is_free(overhead_fraction: float) -> bool:
                return overhead_fraction != 0.0
        """),
        expect=(("R5", 2), ("R5", 6)),
    ),
    Fixture(
        label="R5-good-isclose",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            import math


            def same_cost(total_cost: float, other_cost: float) -> bool:
                return math.isclose(total_cost, other_cost, rel_tol=1e-9)


            def count_matches(streams: int, wanted: int) -> bool:
                return streams == wanted
        """),
    ),
    Fixture(
        label="R5-suppressed",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            def same_cost(total_cost: float, other_cost: float) -> bool:
                return total_cost == other_cost  # repro: allow(float-equality)
        """),
    ),
    # -- R6 typed-defs -------------------------------------------------------
    Fixture(
        label="R6-bad-untyped",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            def cost(disks, price_per_disk: float) -> float:
                return disks * price_per_disk


            def describe() -> str:
                return "ok"


            class Sizer:
                def resize(self, streams: int):
                    self.streams = streams
        """),
        expect=(("R6", 1), ("R6", 10)),
    ),
    Fixture(
        label="R6-good-annotated",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            def cost(disks: int, price_per_disk: float) -> float:
                return disks * price_per_disk


            class Sizer:
                def resize(self, streams: int) -> None:
                    self.streams = streams
        """),
    ),
    Fixture(
        label="R6-suppressed",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            def cost(disks, price_per_disk: float) -> float:  # repro: allow(R6)
                return disks * price_per_disk
        """),
    ),
    Fixture(
        label="R6-bad-lambda-assigned",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            cost = lambda disks: disks * 2.0


            class Sizer:
                __slots__ = ("streams",)

                scale = lambda factor: factor
        """),
        expect=(("R6", 1), ("R6", 7)),
    ),
    Fixture(
        label="R6-good-annotated-lambda",
        path="src/repro/analysis/example.py",
        code=_snippet("""
            from typing import Callable

            cost: Callable[[int], float] = lambda disks: disks * 2.0
        """),
    ),
    # -- R7 spawn-safety -----------------------------------------------------
    Fixture(
        label="R7-bad-lambda-payload",
        path="src/repro/experiments/example.py",
        code=_snippet("""
            from functools import partial

            from repro.parallel import TaskSpec


            def build() -> tuple[object, object]:
                direct = TaskSpec(lambda: 1, label="direct")
                wrapped = TaskSpec(partial(lambda x: x, 1), label="wrapped")
                return direct, wrapped
        """),
        expect=(("R7", 7), ("R7", 8)),
    ),
    Fixture(
        label="R7-bad-nested-payload",
        path="tests/parallel/test_example.py",
        code=_snippet("""
            from repro.parallel import TaskSpec


            def build() -> object:
                def cell() -> int:
                    return 1
                return TaskSpec(fn=cell, label="nested")
        """),
        expect=(("R7", 7),),
    ),
    Fixture(
        label="R7-bad-module-state",
        path="src/repro/parallel.py",
        code=_snippet("""
            _RESULTS: dict[str, int] = {}
            _LABELS = []


            def record(label: str, value: int) -> None:
                _RESULTS[label] = value
                _LABELS.append(label)
        """),
        expect=(("R7", 1), ("R7", 2)),
    ),
    Fixture(
        label="R7-good-module-payload",
        path="src/repro/experiments/example.py",
        code=_snippet("""
            from repro.parallel import TaskSpec


            def cell(index: int) -> int:
                return index * 2


            def build() -> object:
                return TaskSpec(cell, args=(1,), label="ok")
        """),
    ),
    Fixture(
        label="R7-suppressed",
        path="tests/parallel/test_example.py",
        code=_snippet("""
            from repro.parallel import TaskSpec


            def build() -> object:
                return TaskSpec(lambda: 1, label="ok")  # repro: allow(R7)
        """),
    ),
    # -- R8 ff-purity --------------------------------------------------------
    Fixture(
        label="R8-bad-impure-probe",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_queue",)

                def _fast_forward_ready(self) -> bool:
                    self._queue.pop()
                    return True
        """),
        expect=(("R8", 4),),
    ),
    Fixture(
        label="R8-bad-reachable-helper",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_pending",)

                def _ff_classify(self) -> int:
                    return self._scan()

                def _scan(self) -> int:
                    self._pending.append(1)
                    return len(self._pending)
        """),
        expect=(("R8", 7),),
    ),
    Fixture(
        label="R8-good-probe-writes-report",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("report", "active")

                def _ff_classify(self) -> int:
                    self.report.setdefault("probes", 0)
                    return len(self.active)
        """),
    ),
    Fixture(
        label="R8-suppressed-callee-def",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_pending",)

                def _ff_classify(self) -> int:
                    return self._scan()

                def _scan(self) -> int:  # repro: allow(R8)
                    self._pending.append(1)
                    return len(self._pending)
        """),
    ),
    Fixture(
        label="R8-suppressed-call-site",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_pending",)

                def _ff_classify(self) -> int:
                    return self._scan()  # repro: allow(R8)

                def _scan(self) -> int:
                    self._pending.append(1)
                    return len(self._pending)
        """),
    ),
    Fixture(
        # The epoch engine re-probes per-stream eligibility on every
        # entry, degraded epochs included; an impure stream probe would
        # perturb the simulation exactly where fast==scalar matters most.
        label="R8-bad-impure-degraded-probe",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_deg_cache",)

                def _ff_stream_ok(self, stream: object) -> bool:
                    self._deg_cache.clear()
                    return True
        """),
        expect=(("R8", 4),),
    ),
    Fixture(
        label="R8-good-multi-failure-classify",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("array", "_known_lost_tracks")

                def _ff_classify(self) -> object:
                    failed = self.array.failed_ids
                    if self._known_lost_tracks:
                        if len(failed) > 1:
                            return "shared-group"
                        return "pending-state"
                    return None
        """),
    ),
    # -- R9 cache-keys -------------------------------------------------------
    Fixture(
        label="R9-bad-incomplete-key",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_plan_cache", "_plan_cache_key", "layout")

                def refresh(self) -> None:
                    self._plan_cache = {}
                    self._plan_cache_key = (self.layout.epoch,)
        """),
        expect=(("R9", 6),),
    ),
    Fixture(
        label="R9-bad-unguarded-read",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_plan_cache",)

                def peek(self, name: str) -> object:
                    return self._plan_cache.get(name)
        """),
        expect=(("R9", 5),),
    ),
    Fixture(
        label="R9-good-caller-guards-read",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_plan_cache", "_plan_cache_key",
                             "layout", "array")

                def run(self) -> object:
                    key = (self.layout.epoch, self.array.state_epoch)
                    if self._plan_cache_key != key:
                        self._plan_cache = {}
                        self._plan_cache_key = key
                    return self._lookup()

                def _lookup(self) -> object:
                    return self._plan_cache.get("x")
        """),
    ),
    Fixture(
        # Cache and key fields match on any receiver: a module function
        # handed the scheduler narrows its table key at line 4.
        label="R9-bad-narrowed-module-key",
        path="src/repro/sched/example.py",
        code=_snippet("""
            def flat_tables(sched: object) -> object:
                if sched._ff_tables_key != sched._plan_cache_key:
                    sched._ff_tables = {}
                    sched._ff_tables_key = (sched.layout.epoch,)
                return sched._ff_tables.get("x")
        """),
        expect=(("R9", 4),),
    ),
    Fixture(
        label="R9-good-module-key-chained",
        path="src/repro/sched/example.py",
        code=_snippet("""
            def flat_tables(sched: object) -> object:
                if sched._ff_tables_key != sched._plan_cache_key:
                    sched._ff_tables = {}
                    sched._ff_tables_key = sched._plan_cache_key
                return sched._ff_tables.get("x")
        """),
    ),
    Fixture(
        label="R9-suppressed-read",
        path="src/repro/sched/example.py",
        code=_snippet("""
            class Scheduler:
                __slots__ = ("_plan_cache",)

                def peek(self, name: str) -> object:
                    # caller re-keys every cycle  # repro: allow(R9)
                    return self._plan_cache.get(name)
        """),
    ),
    # -- R11 dtype-hygiene ---------------------------------------------------
    Fixture(
        label="R11-bad-accumulation",
        path="src/repro/sched/vec_example.py",
        code=_snippet("""
            import numpy as np


            def loads(ids: object) -> object:
                return np.bincount(ids)


            def fcount(disks: object, ptr: object) -> object:
                down = disks == 3
                return np.add.reduceat(down, ptr)


            def tally(ids: object) -> object:
                counts = np.zeros(8, dtype=np.int64)
                counts[ids] += 0.5
                return counts
        """),
        expect=(("R11", 5), ("R11", 10), ("R11", 15)),
    ),
    Fixture(
        label="R11-bad-empty-partial-seed",
        path="src/repro/workload/vec_example.py",
        code=_snippet("""
            import numpy as np


            def carry(gaps: object, start: float) -> object:
                steps = np.empty(4)
                steps[0] = start
                return np.cumsum(steps)
        """),
        expect=(("R11", 5),),
    ),
    Fixture(
        label="R11-good-real-idioms",
        path="src/repro/sched/vec_example.py",
        code=_snippet("""
            import numpy as np


            def loads(ids: object, n: int) -> object:
                return np.bincount(ids, minlength=n)


            def fcount(disks: object, ptr: object) -> object:
                down = disks == 3
                return np.add.reduceat(down.astype(np.int64), ptr)


            def carry(gaps: object, start: float) -> object:
                steps = np.empty(4)
                steps[0] = start
                steps[1:] = gaps
                return np.cumsum(steps)
        """),
    ),
    Fixture(
        label="R11-suppressed",
        path="src/repro/sched/vec_example.py",
        code=_snippet("""
            import numpy as np


            def loads(ids: object) -> object:
                return np.bincount(ids)  # repro: allow(R11)
        """),
    ),
)


@dataclass(frozen=True)
class ProjectFixture:
    """A multi-file self-test project for the cross-file flow rules.

    Findings are expected as exact ``(rule_id, path, line)`` triples
    across the whole analyzed set.
    """

    label: str
    files: tuple[tuple[str, str], ...]
    expect: tuple[tuple[str, str, int], ...] = ()


PROJECT_FIXTURES: tuple[ProjectFixture, ...] = (
    ProjectFixture(
        label="R10-bad-cross-subsystem-collision",
        files=(
            ("src/repro/faults/example.py", _snippet("""
                class FaultClock:
                    __slots__ = ("rng",)

                    def next_fail(self) -> float:
                        return self.rng.exponential("events", 100.0)
            """)),
            ("src/repro/workload/example.py", _snippet("""
                class Arrivals:
                    __slots__ = ("rng",)

                    def next_gap(self) -> float:
                        return self.rng.exponential("events", 1.0)
            """)),
        ),
        expect=(("R10", "src/repro/faults/example.py", 5),
                ("R10", "src/repro/workload/example.py", 5)),
    ),
    ProjectFixture(
        label="R10-bad-handle-escape",
        files=(
            ("src/repro/workload/example.py", _snippet("""
                class Sampler:
                    __slots__ = ("_rng",)

                    def handle(self) -> object:
                        return self._rng.stream("arrivals")
            """)),
            ("src/repro/sched/example.py", _snippet("""
                class Consumer:
                    __slots__ = ()

                    def pull(self, sampler: Sampler) -> float:
                        gen = sampler.handle()
                        return float(next(gen))
            """)),
        ),
        expect=(("R10", "src/repro/workload/example.py", 5),),
    ),
    ProjectFixture(
        label="R10-good-isolated-streams",
        files=(
            ("src/repro/faults/example.py", _snippet("""
                class FaultClock:
                    __slots__ = ("rng",)

                    def next_fail(self) -> float:
                        return self.rng.exponential("events", 100.0)
            """)),
            ("src/repro/workload/example.py", _snippet("""
                class Arrivals:
                    __slots__ = ("rng",)

                    def next_gap(self) -> float:
                        return self.rng.exponential("arrivals", 1.0)
            """)),
        ),
    ),
    ProjectFixture(
        label="R10-suppressed-one-site",
        files=(
            ("src/repro/faults/example.py", _snippet("""
                class FaultClock:
                    __slots__ = ("rng",)

                    def next_fail(self) -> float:
                        # legacy shared stream  # repro: allow(R10)
                        return self.rng.exponential("events", 100.0)
            """)),
            ("src/repro/workload/example.py", _snippet("""
                class Arrivals:
                    __slots__ = ("rng",)

                    def next_gap(self) -> float:
                        return self.rng.exponential("events", 1.0)
            """)),
        ),
        expect=(("R10", "src/repro/workload/example.py", 5),),
    ),
    ProjectFixture(
        # The cluster package is its own R10 subsystem: its
        # ``cluster-placement`` stream must stay inside it ...
        label="R10-good-cluster-stream-isolated",
        files=(
            ("src/repro/cluster/example.py", _snippet("""
                class Placer:
                    __slots__ = ("rng",)

                    def pick(self, count: int) -> int:
                        return self.rng.integers("cluster-placement", 0,
                                                 count)
            """)),
            ("src/repro/workload/example.py", _snippet("""
                class Arrivals:
                    __slots__ = ("rng",)

                    def next_gap(self) -> float:
                        return self.rng.exponential("arrivals", 1.0)
            """)),
        ),
    ),
    ProjectFixture(
        # ... and borrowing it from another subsystem is a collision on
        # both sides of the boundary.
        label="R10-bad-cluster-stream-borrowed",
        files=(
            ("src/repro/cluster/example.py", _snippet("""
                class Placer:
                    __slots__ = ("rng",)

                    def pick(self, count: int) -> int:
                        return self.rng.integers("cluster-placement", 0,
                                                 count)
            """)),
            ("src/repro/workload/example.py", _snippet("""
                class Arrivals:
                    __slots__ = ("rng",)

                    def shard_of(self, count: int) -> int:
                        return self.rng.integers("cluster-placement", 0,
                                                 count)
            """)),
        ),
        expect=(("R10", "src/repro/cluster/example.py", 5),
                ("R10", "src/repro/workload/example.py", 5)),
    ),
    ProjectFixture(
        label="R9-good-cross-file-guard",
        files=(
            ("src/repro/sched/example.py", _snippet("""
                class Scheduler:
                    __slots__ = ("_plan_cache", "_plan_cache_key",
                                 "layout", "array")

                    def _refresh_plan_cache(self) -> None:
                        key = (self.layout.epoch, self.array.state_epoch)
                        if self._plan_cache_key != key:
                            self._plan_cache = {}
                            self._plan_cache_key = key

                    def _lookup(self) -> object:
                        return self._plan_cache.get("x")
            """)),
            ("src/repro/sched/driver_example.py", _snippet("""
                class Driver(Scheduler):
                    __slots__ = ()

                    def run_cycle(self) -> object:
                        self._refresh_plan_cache()
                        return self._lookup()
            """)),
        ),
    ),
)


def run_self_test() -> list[str]:
    """Run every fixture; return human-readable failure descriptions."""
    analyzer = Analyzer()
    failures: list[str] = []
    for fixture in FIXTURES:
        found = analyzer.check_source(fixture.code, fixture.path)
        got = tuple((finding.rule_id, finding.line) for finding in found)
        if got != fixture.expect:
            failures.append(
                f"{fixture.label}: expected {list(fixture.expect)}, "
                f"got {_describe(found)}")
    for project in PROJECT_FIXTURES:
        found = analyzer.check_sources(list(project.files))
        triples = tuple(sorted(
            (finding.rule_id, finding.path, finding.line)
            for finding in found))
        if triples != tuple(sorted(project.expect)):
            failures.append(
                f"{project.label}: expected {sorted(project.expect)}, "
                f"got {_describe(found)}")
    return failures


def fixture_count() -> int:
    """Total fixtures the self-test runs (single-file + project)."""
    return len(FIXTURES) + len(PROJECT_FIXTURES)


def _describe(findings: list[Finding]) -> str:
    if not findings:
        return "no findings"
    return "; ".join(f"{f.rule_id}@{f.line} ({f.message})" for f in findings)
