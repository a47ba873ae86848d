"""OVERFLOW-D's bin-packing grouping (paper §3.5).

"A bin-packing algorithm clusters individual grids into groups, each
of which is then assigned to an MPI process.  The grouping strategy
uses a connectivity test that inspects for an overlap between a pair
of grids before assigning them to the same group, regardless of the
size of the boundary data."

We implement exactly that: LPT-style greedy packing that *prefers*
placing a block into the least-loaded group already containing one of
its overlap partners (keeping inter-grid updates intra-group), falling
back to the globally least-loaded group.  Round-robin grouping is
provided for the ablation benchmark.

A grouping is a pure function of ``(system, n_groups, strategy)``, so
:func:`group_blocks` is memoized on exactly those three arguments and
every model of a sweep shares one frozen :class:`Assignment` per
content; the blocks' neighbor lists are memoized per system, so the
groupings of one system at several sizes build them once.  The global
least-loaded fallback is a lazy heap of ``(load, group)`` entries,
O(log G) per block instead of a scan of all G groups: an entry whose
load no longer equals its group's load is stale and popped, and ties
go to the lowest group index, as a ``min(range(G))`` scan would.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.apps.overset.connectivity import find_overlaps
from repro.apps.overset.grids import OversetSystem
from repro.errors import ConfigurationError
from repro.memo import memo
from repro.npb.loadbalance import Assignment, bin_pack, round_robin

__all__ = ["group_blocks"]


def group_blocks(
    system: OversetSystem,
    n_groups: int,
    strategy: str = "binpack-connectivity",
) -> Assignment:
    """Cluster the system's blocks into ``n_groups`` process groups.

    Strategies:

    * ``binpack-connectivity`` — the paper's algorithm: largest block
      first, preferring a connected, not-overfull group;
    * ``binpack`` — pure LPT on block sizes (ignores connectivity);
    * ``round-robin`` — naive ablation baseline.
    """
    return _grouping(system, n_groups, strategy)


@memo(maxsize=128)
def _grouping(system: OversetSystem, n_groups: int, strategy: str) -> Assignment:
    weights = system.weights()
    if strategy == "binpack":
        return bin_pack(weights, n_groups)
    if strategy == "round-robin":
        return round_robin(weights, n_groups)
    if strategy != "binpack-connectivity":
        raise ConfigurationError(f"unknown grouping strategy {strategy!r}")
    if n_groups < 1 or len(weights) < n_groups:
        raise ConfigurationError(
            f"{len(weights)} blocks cannot fill {n_groups} groups"
        )
    neighbors = _neighbors(system)
    mean_load = sum(weights) / n_groups
    loads = [0.0] * n_groups
    # Lazy min-heap of (load, group): one live entry per group, the one
    # whose load equals loads[group]; older entries are stale.
    lightest = [(0.0, g) for g in range(n_groups)]
    bins: list[list[int]] = [[] for _ in range(n_groups)]
    group_of: dict[int, int] = {}
    order = sorted(range(len(weights)), key=lambda z: -weights[z])
    for z in order:
        # Candidate groups hosting an overlap partner, not overfull.
        connected = {
            group_of[nb]
            for nb in neighbors[z]
            if nb in group_of and loads[group_of[nb]] + weights[z] <= 1.25 * mean_load
        }
        if connected:
            g = min(connected, key=lambda gi: loads[gi])
        else:
            while lightest[0][0] != loads[lightest[0][1]]:
                heappop(lightest)
            g = lightest[0][1]
        bins[g].append(z)
        loads[g] += weights[z]
        heappush(lightest, (loads[g], g))
        group_of[z] = g
    # Guarantee no empty group: each empty group, in index order, takes
    # the lightest block of the group then holding the most blocks
    # (lowest index on ties), if that group can spare one.  Lazy heap
    # of (-count, group): counts only fall, except an empty group's
    # 0 -> 1, so an entry whose count is not its group's is stale.
    fullest = [(-len(b), g) for g, b in enumerate(bins)]
    heapify(fullest)
    for g in range(n_groups):
        if bins[g]:
            continue
        while -fullest[0][0] != len(bins[fullest[0][1]]):
            heappop(fullest)
        donor = fullest[0][1]
        if len(bins[donor]) > 1:
            moved = min(bins[donor], key=lambda z: weights[z])
            bins[donor].remove(moved)
            bins[g].append(moved)
            heappush(fullest, (-len(bins[donor]), donor))
            heappush(fullest, (-1, g))
    final_loads = tuple(sum(weights[z] for z in b) for b in bins)
    return Assignment(bins=tuple(tuple(b) for b in bins), loads=final_loads)


@memo(maxsize=8)
def _neighbors(system: OversetSystem) -> tuple[tuple[int, ...], ...]:
    """Each block's overlap partners, in the iteration order of the set
    the pairs build for it: the grouping's ``min`` over connected
    groups breaks ties by that order.  Built once per system and shared
    by all of its groupings."""
    neighbors: list[set[int]] = [set() for _ in system.blocks]
    for a, b in find_overlaps(system):
        neighbors[a].add(b)
        neighbors[b].add(a)
    return tuple(map(tuple, neighbors))
