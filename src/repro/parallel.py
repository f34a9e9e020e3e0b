"""Deterministic process-pool execution for ensemble runs.

The paper's headline numbers come from *ensembles* — Monte-Carlo
reliability replications, chaos campaigns, C/D/scheme benchmark grids —
that are embarrassingly parallel.  This module runs them across worker
processes without giving up the repo's core contract: **a run is fully
determined by its seeds**, regardless of worker count.

There is one pool, :class:`SessionPool`: persistent spawn workers that
each hold some sessions' state.  A session's state is built *once*,
inside its worker, from a self-contained :class:`TaskSpec`; later steps
ship only the step function and its (small) arguments, so a stateful
shard — a cluster server stepped through many trace segments — never
crosses a process boundary again.  A stateless task is the degenerate
case, a one-step session: :func:`run_tasks` builds each task's result as
its session's state and fetches it back with a single step.

Three design rules make parallel runs bit-identical to serial ones:

1. **Self-seeded tasks.**  Each :class:`TaskSpec` carries everything its
   result depends on; nothing is read from shared mutable state.  Seeds
   for shards are derived ahead of time (:func:`derive_seeds`, built on
   ``numpy.random.SeedSequence.spawn``) so shard *i*'s stream is a pure
   function of ``(root_seed, i)``.
2. **Spawn-safety at construction.**  Workers use the ``spawn`` start
   method (fresh interpreters — the only portable choice, and the one
   that cannot silently fork half-mutated state).  Task callables must
   therefore be picklable: module-level functions in importable modules.
   Lambdas, closures and ``__main__``-only functions are rejected when
   the :class:`TaskSpec` is built — loudly, and identically for
   ``workers=1`` — so a workload never *becomes* unparallelisable.
   Rule R7 of ``repro.checks`` enforces the same contract statically.
3. **Ordered merge.**  Session ``i`` is pinned to worker ``i % W`` and
   results are returned strictly in session order, whatever order
   workers finish in.  Aggregations are therefore independent of
   scheduling.  Pinning is static, so an ensemble balances its own
   work: the reliability estimator cuts ``4 x workers`` equal replica
   spans and the grids interleave sizes and schemes.

``workers=1`` never starts a process: states are built and stepped
in-process, in order, so small runs and debugging sessions pay zero
multiprocessing overhead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterable, Optional, Sequence

from numpy.random import SeedSequence

from repro.errors import SpawnSafetyError


def spawn_safety_violation(value: object) -> Optional[str]:
    """Why ``value`` cannot ride in a spawn-based task, or ``None``.

    Checks the properties pickling relies on without actually pickling
    (payloads can be large): the callable must be addressable as
    ``module.qualname`` in a freshly spawned interpreter.
    """
    target = value.func if isinstance(value, functools.partial) else value
    if not callable(target):
        return None
    qualname = getattr(target, "__qualname__", "")
    module = getattr(target, "__module__", "")
    if "<lambda>" in qualname:
        return "lambdas are not picklable under the spawn start method"
    if "<locals>" in qualname:
        return (f"{qualname!r} is defined inside a function; spawn "
                "workers cannot import it")
    if module == "__main__":
        return (f"{qualname!r} lives in __main__; spawn workers "
                "re-import the script and will not find it")
    return None


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One self-contained unit of ensemble work.

    ``fn(*args, **kwargs)`` must depend only on its arguments (plus
    imported module code), so running it in another process — or another
    week — gives the same answer.  Construction validates spawn-safety
    of ``fn`` and of every callable argument; see
    :func:`spawn_safety_violation`.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        problem = spawn_safety_violation(self.fn)
        if problem is not None:
            raise SpawnSafetyError(f"task {self.label or '?'}: {problem}")
        for position, value in enumerate(self.args):
            problem = spawn_safety_violation(value)
            if problem is not None:
                raise SpawnSafetyError(
                    f"task {self.label or '?'} argument {position}: "
                    f"{problem}")
        for name, value in self.kwargs.items():
            problem = spawn_safety_violation(value)
            if problem is not None:
                raise SpawnSafetyError(
                    f"task {self.label or '?'} argument {name!r}: "
                    f"{problem}")


def _execute(spec: TaskSpec) -> Any:
    """Run one task (module-level so the spec itself is the only pickle)."""
    return spec.fn(*spec.args, **spec.kwargs)


def _session_worker(conn: Connection) -> None:
    """Long-lived worker loop: hold session states, run steps against them.

    All state lives in locals (never at module scope — rule R7), so a
    spawned worker cannot silently diverge from its parent: everything
    it knows arrived through an explicit, validated :class:`TaskSpec`.

    Protocol (parent -> worker):

    * ``("init", sid, spec)``  — build session ``sid``'s state as
      ``spec.fn(*spec.args, **spec.kwargs)``;
    * ``("step", sid, spec)``  — run ``spec.fn(state, *spec.args,
      **spec.kwargs)`` against the held state;
    * ``("stop",)``            — drop every state and exit.

    Every init/step is answered with ``(sid, ok, payload)`` where
    ``payload`` is the result or, on failure, the exception.
    """
    states: dict[int, Any] = {}
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        _, sid, spec = message
        try:
            if kind == "init":
                states[sid] = _execute(spec)
                result: Any = None
            else:
                result = spec.fn(states[sid], *spec.args, **spec.kwargs)
            conn.send((sid, True, result))
        except Exception as exc:
            conn.send((sid, False, exc))


class SessionPool:
    """Persistent per-session state over long-lived spawn workers.

    ``sessions`` is one :class:`TaskSpec` per session; each is executed
    exactly once to *build* that session's state (e.g. a fully loaded
    shard server) inside whichever worker owns the session.  Sessions
    are assigned round-robin: session ``i`` lives in worker ``i % W``
    for the whole pool lifetime, so its state is built once and stepped
    in place — never re-pickled between steps.

    ``workers=1`` builds every state in-process and steps it directly:
    no processes, no pickling, and — because steps are applied to each
    session in the same order either way — results bit-identical to any
    other worker count.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    __slots__ = ("workers", "_specs", "_states", "_conns", "_procs",
                 "_owner", "_closed")

    def __init__(self, sessions: Sequence[TaskSpec],
                 workers: int = 1) -> None:
        specs = list(sessions)
        for spec in specs:
            if not isinstance(spec, TaskSpec):
                raise TypeError(
                    f"SessionPool takes TaskSpec sessions, got "
                    f"{type(spec).__name__}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not specs:
            raise ValueError("SessionPool needs at least one session")
        self.workers = min(workers, len(specs))
        self._specs = specs
        self._states: list[Any] = []
        self._conns: list[Connection] = []
        self._procs: list[Any] = []
        #: session index -> owning worker index (round-robin pinning).
        self._owner = [index % self.workers for index in range(len(specs))]
        self._closed = False
        if self.workers == 1:
            self._states = [_execute(spec) for spec in specs]
            return
        context = get_context("spawn")
        for _ in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(target=_session_worker,
                                      args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        # Ship every session's build spec to its owner, then collect the
        # acknowledgements — builds proceed concurrently across workers.
        for sid, spec in enumerate(specs):
            self._conns[self._owner[sid]].send(("init", sid, spec))
        self._collect(len(specs))

    def __len__(self) -> int:
        return len(self._specs)

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def step_all(self, fn: Callable[..., Any],
                 args: Optional[Sequence[tuple[Any, ...]]] = None,
                 label: str = "") -> list[Any]:
        """Run ``fn(state, *args[i])`` against every session's state.

        Returns results in session order.  ``fn`` must be a module-level
        function (spawn workers import it by qualified name); spawn
        safety of the function and of every argument is validated up
        front via :class:`TaskSpec`, identically for ``workers=1``.  All
        step messages are dispatched before any result is awaited, so
        sessions owned by different workers run concurrently.
        """
        if self._closed:
            raise RuntimeError("SessionPool is closed")
        count = len(self._specs)
        if args is None:
            args = [()] * count
        if len(args) != count:
            raise ValueError(
                f"step_all got {len(args)} argument tuples for "
                f"{count} sessions")
        specs = [TaskSpec(fn, args=tuple(step_args),
                          label=label or getattr(fn, "__name__", "step"))
                 for step_args in args]
        if self.workers == 1:
            return [spec.fn(state, *spec.args)
                    for state, spec in zip(self._states, specs)]
        for sid, spec in enumerate(specs):
            self._conns[self._owner[sid]].send(("step", sid, spec))
        return self._collect(count)

    def _collect(self, expected: int) -> list[Any]:
        """Gather ``expected`` replies, restored to session order.

        Each worker answers its own messages in the order they were
        sent, so draining per-worker queues round-robin is deadlock-free
        and deterministic.
        """
        results: list[Any] = [None] * len(self._specs)
        pending = expected
        per_worker = [0] * self.workers
        for sid in range(len(self._specs)):
            per_worker[self._owner[sid]] += 1
        for worker, conn in enumerate(self._conns):
            for _ in range(per_worker[worker]):
                if pending == 0:
                    break
                sid, ok, payload = conn.recv()
                if not ok:
                    self.close()
                    raise payload
                results[sid] = payload
                pending -= 1
        return results

    def close(self) -> None:
        """Stop every worker and drop the held states (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._states = []
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        for process in self._procs:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        self._conns = []
        self._procs = []


def _result(state: Any) -> Any:
    """The one step of a stateless session: hand its state back."""
    return state


def run_tasks(tasks: Iterable[TaskSpec], workers: int = 1) -> list[Any]:
    """Run every task; return the results in task order.

    Each task is a one-step :class:`SessionPool` session: its result is
    the session's state, built in the worker that owns it, and a single
    :meth:`~SessionPool.step_all` fetches every result back.  A task
    that raises closes the pool and re-raises in the caller.  An empty
    task list starts nothing.
    """
    specs = list(tasks)
    if not specs:
        return []
    with SessionPool(specs, workers=workers) as pool:
        return pool.step_all(_result)


def derive_seeds(root_seed: int, count: int) -> tuple[int, ...]:
    """``count`` independent shard seeds derived from one root seed.

    Built on ``numpy.random.SeedSequence.spawn``: child *i* is a pure
    function of ``(root_seed, i)``, statistically independent of its
    siblings, and stable across platforms and numpy versions — the same
    ensemble sharded differently still sees the same seeds.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = SeedSequence(root_seed).spawn(count)
    return tuple(int(child.generate_state(1, dtype="uint64")[0])
                 for child in children)


def shard_ranges(total: int, shards: int) -> tuple[tuple[int, int], ...]:
    """Split ``range(total)`` into up to ``shards`` contiguous spans.

    Spans are balanced (sizes differ by at most one) and returned in
    order, so concatenating per-span results reproduces the serial
    sequence exactly.  Empty spans are omitted.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, total) if total else 0
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = total // shards + (1 if index < total % shards else 0)
        spans.append((start, start + size))
        start += size
    return tuple(spans)
