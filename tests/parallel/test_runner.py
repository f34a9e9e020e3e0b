"""Unit tests for the deterministic process-pool runner."""

from __future__ import annotations

import pytest

from repro.errors import SpawnSafetyError
from repro.parallel import (ParallelRunner, TaskSpec, derive_seeds,
                            shard_ranges)


def square(value: int) -> int:
    return value * value


def offset_square(value: int, offset: int = 0) -> int:
    return value * value + offset


def test_serial_runner_preserves_task_order() -> None:
    tasks = [TaskSpec(square, args=(n,)) for n in range(8)]
    assert ParallelRunner(1).run(tasks) == [n * n for n in range(8)]


def test_pool_results_match_serial_in_order() -> None:
    tasks = [TaskSpec(offset_square, args=(n,), kwargs={"offset": 100},
                      label=f"sq-{n}") for n in range(10)]
    serial = ParallelRunner(1).run(tasks)
    pooled = ParallelRunner(2).run(tasks)
    assert pooled == serial == [n * n + 100 for n in range(10)]


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
