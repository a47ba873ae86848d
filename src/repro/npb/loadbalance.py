"""Zone-to-process load balancing.

The hybrid NPB-MZ codes assign whole zones to MPI processes.  The
reference strategy is greedy LPT bin-packing (sort zones by size,
always give the next zone to the least-loaded process) — the same
family as OVERFLOW-D's bin-packing grouping (paper §3.5).  Round-robin
and contiguous-block partitions are provided for ablation.

:func:`bin_pack` places zones in batched rounds rather than one heap
operation per zone, and returns exactly what the one-zone-at-a-time
greedy loop returns (the argument is in its docstring).

Every packer takes finite, non-negative weights and rejects anything
else with :class:`~repro.errors.ConfigurationError` (a NaN or infinite
zone size would otherwise come back as a NaN imbalance).  The packers
are not memoized: a key holding the weight tuple would copy every
weight; their callers memoize on the content the weights come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["Assignment", "bin_pack", "round_robin", "block_partition"]

#: Zones one step of :func:`bin_pack` may stack on the lightest bin
#: (bounds the cumulative sum it takes).
_STACK_WINDOW = 4096


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
    weight = weights.__getitem__
    loads = tuple(sum(map(weight, b)) for b in bins)
    return Assignment(bins=tuple(tuple(b) for b in bins), loads=loads)


def bin_pack(weights: Sequence[float], n_bins: int) -> Assignment:
    """Greedy LPT bin-packing: heaviest zones first, each to the
    currently lightest bin (ties to the lowest bin index).

    Zones are sorted stably by descending weight (equal weights keep
    index order) and placed in rounds.  A round orders the bins by
    ``(load, b)`` and tentatively gives its ``i``-th zone to the
    ``i``-th lightest bin; that is the greedy choice for as long as
    ``L(i) < min(L(j) + w_j for j < i)`` -- bin ``i`` is still lighter
    than every bin the round has already grown -- so that prefix is
    committed in one step (the first zone always is).  When only the
    first zone commits, the lightest bin keeps taking zones while its
    running load stays below the next bin's ``(load, b)``: one
    cumulative sum, which also places all trailing zero weights at
    once.  Loads are added in the greedy loop's order, so every
    comparison sees the loop's exact floats.  Weights compare as
    float64.  A round costs a few NumPy calls, so packing into very
    few bins, where a round places at most ``n_bins`` zones, pays that
    per round.
    """
    _validate(weights, n_bins)
    # Imported here: importing the packers must not pay for NumPy.
    import numpy as np

    w = np.array(weights, dtype=np.float64)
    order = np.argsort(-w, kind="stable")
    ws = w[order]
    n = len(ws)
    owner = np.empty(n, dtype=np.intp)  # bin of each zone, in sorted order
    load = np.zeros(n_bins)
    # Zeros sort last; they all go to the then-lightest bin.
    n_pos = int(np.count_nonzero(ws))
    p = 0
    while p < n_pos:
        ranked = load.argsort(kind="stable")  # (load, b) order
        m = min(n_bins, n_pos - p)
        lightest = ranked[:m]
        before = load[lightest]
        after = before + ws[p:p + m]
        k = m
        if m > 1:
            late = before[1:] >= np.minimum.accumulate(after[:-1])
            first = int(late.argmax())
            if late[first]:
                k = first + 1
        if k == 1:
            # run[t] is the lightest bin's load after t more zones.
            top = min(n_pos, p + _STACK_WINDOW)
            run = np.cumsum(np.concatenate((before[:1], ws[p:top])))
            b = int(lightest[0])
            if n_bins > 1:
                rival = int(ranked[1])
                # Zone p + t (t >= 1) still goes to b while
                # (run[t], b) < (load[rival], rival).
                side = "right" if b < rival else "left"
                k = 1 + int(run[1:-1].searchsorted(load[rival], side))
            else:
                k = top - p
            owner[p:p + k] = b
            load[b] = run[k]
            p += k
            continue
        owner[p:p + k] = lightest[:k]
        load[lightest[:k]] = after[:k]
        p += k
    if p < n:
        owner[p:] = int(load.argmin())  # first minimum: lowest bin on ties
    by_bin = order[owner.argsort(kind="stable")].tolist()
    bins = []
    start = 0
    for count in np.bincount(owner, minlength=n_bins).tolist():
        bins.append(by_bin[start:start + count])
        start += count
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
