"""Zone-to-process load balancing.

The hybrid NPB-MZ codes assign whole zones to MPI processes.  The
reference strategy is greedy LPT bin-packing (sort zones by size,
always give the next zone to the least-loaded process) — the same
family as OVERFLOW-D's bin-packing grouping (paper §3.5).  Round-robin
and contiguous-block partitions are provided for ablation.

Every packer takes finite, non-negative weights and rejects anything
else with :class:`~repro.errors.ConfigurationError` (a NaN or infinite
zone size would otherwise come back as a NaN imbalance).  The packers
are not memoized: a key holding the weight tuple would copy every
weight; their callers memoize on the content the weights come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapreplace
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["Assignment", "bin_pack", "round_robin", "block_partition"]


@dataclass(frozen=True)
class Assignment:
    """A zone-to-bin assignment with its balance metrics."""

    #: ``bins[b]`` lists the zone indices owned by bin ``b``.
    bins: tuple[tuple[int, ...], ...]
    #: total weight per bin.
    loads: tuple[float, ...]

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def imbalance(self) -> float:
        """max-load / mean-load (1.0 = perfect balance)."""
        mean = sum(self.loads) / len(self.loads)
        if mean == 0:
            return 1.0
        return max(self.loads) / mean

    @property
    def max_load(self) -> float:
        return max(self.loads)

    def bin_of(self, zone: int) -> int:
        """Which bin owns ``zone``."""
        for b, members in enumerate(self.bins):
            if zone in members:
                return b
        raise ConfigurationError(f"zone {zone} not assigned")


def _finish(bins: list[list[int]], weights: Sequence[float]) -> Assignment:
    loads = tuple(sum(weights[z] for z in b) for b in bins)
    return Assignment(bins=tuple(tuple(b) for b in bins), loads=loads)


def bin_pack(weights: Sequence[float], n_bins: int) -> Assignment:
    """Greedy LPT bin-packing: heaviest zones first, each to the
    currently lightest bin.  O(Z log Z + Z log B)."""
    _validate(weights, n_bins)
    # A stable descending sort: equal weights keep index order.
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    heap: list[tuple[float, int]] = [(0.0, b) for b in range(n_bins)]
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for z in order:
        load, b = heap[0]
        bins[b].append(z)
        heapreplace(heap, (load + weights[z], b))
    return _finish(bins, weights)


def round_robin(weights: Sequence[float], n_bins: int) -> Assignment:
    """Deal zones out cyclically in index order (ablation baseline)."""
    _validate(weights, n_bins)
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for z in range(len(weights)):
        bins[z % n_bins].append(z)
    return _finish(bins, weights)


def block_partition(weights: Sequence[float], n_bins: int) -> Assignment:
    """Contiguous index blocks of (nearly) equal zone *count*
    (ablation baseline; ignores zone sizes entirely)."""
    _validate(weights, n_bins)
    z = len(weights)
    bins: list[list[int]] = []
    start = 0
    for b in range(n_bins):
        count = z // n_bins + (1 if b < z % n_bins else 0)
        bins.append(list(range(start, start + count)))
        start += count
    return _finish(bins, weights)


def _validate(weights: Sequence[float], n_bins: int) -> None:
    if n_bins < 1:
        raise ConfigurationError(f"need >= 1 bin, got {n_bins}")
    if len(weights) < n_bins:
        raise ConfigurationError(
            f"{len(weights)} zones cannot fill {n_bins} bins "
            "(every process needs at least one zone)"
        )
    if not all(map(math.isfinite, weights)):
        raise ConfigurationError("zone weights must be finite")
    # With no NaN left, min() sees every weight.
    if min(weights) < 0:
        raise ConfigurationError("zone weights must be non-negative")
