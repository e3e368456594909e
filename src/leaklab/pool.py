"""One ordered map for serial and parallel runs.

Generation (``games._generate``) and the analysis walk
(``analysis._walk``) both map a picklable job over their inputs and
consume the results in input order, so their output does not depend on
the number of workers.
"""

from __future__ import annotations

import contextlib

__all__ = ["ordered_map"]

# A pool worker's job, set once by the pool initializer.
_worker_job = None


def _init_worker(job) -> None:
    global _worker_job
    _worker_job = job


def _run_in_worker(*args):
    return _worker_job(*args)


@contextlib.contextmanager
def ordered_map(job, jobs: int, *sequences, chunksize: int = 1):
    """``map(job, *sequences)``, in order, as a context manager.

    The calls run on at most ``jobs`` workers and never more workers than
    calls.  At one worker this is the builtin ``map`` in this process.
    Otherwise a pool of that many processes, each with its own copy of
    ``job`` (given once, through the pool initializer), computes the
    calls; the pool forks all its workers when it starts.  Every call
    is submitted before the block is entered, so the pool works while the
    caller does something else.  Leaving the block, normally or by an
    exception, cancels the calls not yet started and joins the workers.
    """
    jobs = min(jobs, *map(len, sequences))
    if jobs <= 1:
        yield map(job, *sequences)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                               initargs=(job,))
    try:
        yield pool.map(_run_in_worker, *sequences, chunksize=chunksize)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
