"""Unit tests for stateless tasks run as one-step pool sessions."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import parallel
from repro.errors import SpawnSafetyError
from repro.parallel import TaskSpec, derive_seeds, run_tasks, shard_ranges

#: Larger than any pipe buffer, so a worker blocks mid-send while the
#: parent drains another worker's replies.
BIG_RESULT_BYTES = 4 * 1024 * 1024


class TaskFailed(RuntimeError):
    """Raised by :func:`fail_on`; module-level so it pickles back."""


def square(value: int) -> int:
    return value * value


def offset_square(value: int, offset: int = 0) -> int:
    return value * value + offset


def fail_on(value: int, bad: int) -> int:
    if value == bad:
        raise TaskFailed(f"task {value} failed")
    return value


def fail_first(value: int) -> int:
    """Task 0 fails at once; every other task sleeps a second first."""
    if value == 0:
        raise TaskFailed("task 0 failed")
    time.sleep(1.0)
    return value


def exit_on(value: int, bad: int) -> int:
    """Task ``bad`` kills its worker outright, with no reply."""
    if value == bad:
        os._exit(3)
    return value


def big_result(shift: int) -> bytes:
    pattern = bytes(range(251))
    pattern = pattern[shift:] + pattern[:shift]
    return (pattern * (BIG_RESULT_BYTES // len(pattern) + 1))[
        :BIG_RESULT_BYTES]


def test_serial_runner_preserves_task_order() -> None:
    tasks = [TaskSpec(square, args=(n,)) for n in range(8)]
    assert run_tasks(tasks) == [n * n for n in range(8)]


def test_pool_results_match_serial_in_order() -> None:
    tasks = [TaskSpec(offset_square, args=(n,), kwargs={"offset": 100},
                      label=f"sq-{n}") for n in range(10)]
    serial = run_tasks(tasks, workers=1)
    pooled = run_tasks(tasks, workers=2)
    assert pooled == serial == [n * n + 100 for n in range(10)]


def test_failed_task_closes_pool_and_reraises() -> None:
    tasks = [TaskSpec(fail_on, args=(n, 2)) for n in range(4)]
    with pytest.raises(TaskFailed, match="task 2 failed"):
        run_tasks(tasks, workers=2)
    assert multiprocessing.active_children() == []


def test_failed_task_terminates_queued_work_quietly(capfd) -> None:
    """The failure surfaces without waiting for the queued tasks, and no
    worker is left to trip over a closed pipe."""
    tasks = [TaskSpec(fail_first, args=(n,)) for n in range(6)]
    with pytest.raises(TaskFailed, match="task 0 failed"):
        run_tasks(tasks, workers=2)
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


def test_dead_worker_terminates_the_pool() -> None:
    tasks = [TaskSpec(exit_on, args=(n, 0)) for n in range(4)]
    with pytest.raises((EOFError, OSError)) as raised:
        run_tasks(tasks, workers=2)
    # The traceback still references the pool: the workers must be gone
    # because the pool stopped them, not because it was collected.
    assert raised.tb is not None
    assert multiprocessing.active_children() == []


def test_results_larger_than_a_pipe_buffer_come_back_intact() -> None:
    tasks = [TaskSpec(big_result, args=(shift,)) for shift in range(4)]
    results = run_tasks(tasks, workers=2)
    assert [len(r) for r in results] == [BIG_RESULT_BYTES] * 4
    assert results == [big_result(shift) for shift in range(4)]


def test_empty_task_list_starts_no_process(monkeypatch) -> None:
    def no_context(method: str) -> None:
        raise AssertionError("run_tasks([]) started a pool")

    monkeypatch.setattr(parallel, "get_context", no_context)
    assert run_tasks([], workers=4) == []


def test_lambda_payload_rejected_at_construction() -> None:
    with pytest.raises(SpawnSafetyError):
        TaskSpec(lambda: 1, label="bad")  # repro: allow(R7)


def test_nested_function_payload_rejected() -> None:
    def local_fn() -> int:
        return 1

    with pytest.raises(SpawnSafetyError):
        TaskSpec(local_fn, label="bad")  # repro: allow(R7)


def test_lambda_argument_rejected() -> None:
    with pytest.raises(SpawnSafetyError):
        TaskSpec(square, args=(lambda: 1,), label="bad")
    with pytest.raises(SpawnSafetyError):
        TaskSpec(square, kwargs={"fn": lambda: 1}, label="bad")


def test_derive_seeds_deterministic_and_distinct() -> None:
    first = derive_seeds(1234, 16)
    again = derive_seeds(1234, 16)
    other = derive_seeds(1235, 16)
    assert first == again
    assert len(first) == 16
    assert len(set(first)) == 16
    assert first != other


def test_shard_ranges_cover_everything_contiguously() -> None:
    for total, shards in [(10, 3), (7, 7), (5, 8), (100, 4), (1, 1)]:
        spans = shard_ranges(total, shards)
        covered = [i for start, stop in spans for i in range(start, stop)]
        assert covered == list(range(total))
        sizes = [stop - start for start, stop in spans if stop > start]
        assert max(sizes) - min(sizes) <= 1
