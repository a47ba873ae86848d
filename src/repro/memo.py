"""Bounded per-process memos for the pure model builders.

Machine nodes, grid systems, multi-zone problems, route tables, path
statistics and b_eff barrier snapshots are pure functions of hashable
*content*: equal arguments always build equal (frozen) results.  Every
such builder is wrapped by :func:`memo`, a ``functools.lru_cache``
that must be bounded, so a long-lived process (a server, an explore
study) never grows without limit, and so :func:`clear_memos` can put
the whole process back to memo-cold in one call — the tests use that
to check that rows do not depend on what was computed before.

Memos are per process: a forked pool worker starts with its parent's
entries, and nothing is shared back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, TypeVar

__all__ = ["memo", "clear_memos"]

F = TypeVar("F", bound=Callable)

#: every wrapper :func:`memo` has built, in import order.
_MEMOS: list = []


def memo(maxsize: int) -> Callable[[F], F]:
    """Decorate a pure builder with an LRU memo of ``maxsize`` entries.

    The arguments are the key, so they must be hashable and must name
    everything the result depends on.  ``lru_cache`` is thread-safe: a
    concurrent miss may build the result twice, but each caller gets
    an equal value and the cache never raises.
    """
    if not isinstance(maxsize, int) or maxsize < 1:
        raise ValueError(f"a memo needs a positive bound, got {maxsize!r}")

    def wrap(fn: F) -> F:
        cached = lru_cache(maxsize=maxsize)(fn)
        _MEMOS.append(cached)
        return cached

    return wrap


def clear_memos() -> None:
    """Empty every memo built so far (the process becomes memo-cold)."""
    for cached in _MEMOS:
        cached.cache_clear()

