"""Small shared helpers."""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int) -> list[R]:
    """fn over items in input order, in the calling thread.

    `threads` is accepted and ignored: a thread pool over this GIL-bound work
    measured slower than the serial loop, so every count runs the same way.
    """
    return [fn(x) for x in items]
