"""The ordered map's worker count."""

import concurrent.futures

import pytest

from leaklab.pool import ordered_map


@pytest.fixture
def started(monkeypatch):
    """The ``max_workers`` of each pool ordered_map starts; no process starts."""
    started = []

    class Executor:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            (self.job,) = initargs

        def map(self, fn, *iterables, chunksize):
            return map(self.job, *iterables)

        def shutdown(self, wait, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    return started


@pytest.mark.parametrize("jobs, calls, workers", [
    (8, 4, [4]), (2, 4, [2]), (4, 4, [4]), (8, 1, []), (1, 4, []), (8, 0, []),
])
def test_a_pool_starts_at_most_one_worker_per_call(started, jobs, calls, workers):
    with ordered_map(str.upper, jobs, "abcd"[:calls]) as out:
        assert list(out) == list("ABCD"[:calls])
    assert started == workers
