"""Order-preserving worker map; results never depend on scheduling."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> list[R]:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # it imports logging: only when used
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
