"""Ordered thread-pool map shared by the Monte Carlo blocks and the batch CDF."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def map_ordered(fn, arg_tuples: list, workers: int) -> list:
    """``[fn(*args) for args in arg_tuples]``, run on up to ``workers`` threads.

    Results come back in input order whatever order the calls finish in, so a
    reduction over them does not depend on ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if workers == 1 or len(arg_tuples) <= 1:
        return [fn(*args) for args in arg_tuples]
    with ThreadPoolExecutor(max_workers=min(workers, len(arg_tuples))) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [f.result() for f in futures]
