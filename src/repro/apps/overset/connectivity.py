"""Overset connectivity: overlap detection and donor interpolation.

"Connectivity between neighboring grids is established by
interpolation at the grid outer boundaries.  Addition of new
components ... [is] achieved by establishing new connectivity without
disturbing the existing grids." (paper §3.4)

Two real pieces live here:

* :func:`find_overlaps` — the pairwise overlap test over a block
  system (spatial-hash accelerated, O(B) buckets instead of O(B^2)
  pair checks for big systems), memoized per system: the scan runs
  once per content and every grouping of that system shares its
  frozen result;
* :func:`trilinear_weights` / :func:`interpolate` — actual trilinear
  donor interpolation, verified exact for trilinear fields.
"""

from __future__ import annotations

import numpy as np

from repro.apps.overset.grids import GridBlock, OversetSystem
from repro.errors import ConfigurationError
from repro.memo import memo

__all__ = ["find_overlaps", "trilinear_weights", "interpolate"]


def find_overlaps(system: OversetSystem) -> frozenset[tuple[int, int]]:
    """All unordered block pairs ``(i, j)``, ``i < j``, whose bounding
    boxes intersect (block indices are their positions).

    Uses a uniform spatial hash over block centers so large systems
    (the 1679-block rotor case) stay fast; candidate pairs from shared
    or adjacent cells are then exactly tested.  The hash misses no
    pair: the cell is the largest box side, and two boxes that
    intersect have centers at most half the sum of their sides, so at
    most one cell side, apart on each axis -- their cells differ by at
    most one on each axis.  Memoized per system; the frozen result is
    shared by every caller.
    """
    return _overlaps(system)


#: Candidate pairs :func:`_overlaps` expands and tests per step; bounds
#: the scan's temporary arrays (a few MB) however many pairs a system
#: has.
_PAIR_CHUNK = 32768


@memo(maxsize=8)
def _overlaps(system: OversetSystem) -> frozenset[tuple[int, int]]:
    blocks = system.blocks
    if not blocks:
        return frozenset()
    box = np.array([b.lo + b.hi for b in blocks], dtype=np.float64)
    lo, hi = box[:, :3], box[:, 3:]
    # Cell size = the largest box side so neighbors share cells.
    max_extent = float((hi - lo).max())
    cell = max_extent if max_extent > 0 else 1.0
    cells = np.floor((lo + hi) / 2.0 / cell).astype(np.int64)
    # Per axis, the rank of coordinate c + d (d = -1, 0, 1) among the
    # occupied coordinates, or -1 where no block sits; ranks keep the
    # cell keys below n**3 however far apart the blocks are.
    ranks, sizes = [], []
    for axis in range(3):
        occupied = np.unique(cells[:, axis])
        want = cells[:, axis] + np.array([[-1], [0], [1]])
        rank = np.minimum(occupied.searchsorted(want), len(occupied) - 1)
        ranks.append(np.where(occupied[rank] == want, rank, -1))
        sizes.append(len(occupied))
    rx, ry, rz = ranks
    # keys[dx, dy, dz, i]: the cell key of block i's neighbor cell.
    keys = ((rx[:, None, None] * sizes[1] + ry[None, :, None]) * sizes[2]
            + rz[None, None, :])
    real = (rx >= 0)[:, None, None] & (ry >= 0)[None, :, None] & (rz >= 0)[None, None, :]
    # Blocks sorted by their own cell; each occupied cell is one run.
    own = keys[1, 1, 1]
    by_cell = own.argsort(kind="stable")
    cell_keys, first = np.unique(own[by_cell], return_index=True)
    run_end = np.append(first[1:], len(blocks))
    src = np.broadcast_to(np.arange(len(blocks)), keys.shape)[real]
    near = keys[real]
    slot = np.minimum(cell_keys.searchsorted(near), len(cell_keys) - 1)
    hit = cell_keys[slot] == near
    src, slot = src[hit], slot[hit]
    start, count = first[slot], run_end[slot] - first[slot]
    # Expand (block, neighbor cell) runs into candidate pairs a chunk
    # at a time and keep the pairs i < j whose boxes intersect.
    ends = np.cumsum(count)
    pairs: list[tuple[int, int]] = []
    done = 0
    while done < len(count):
        base = ends[done - 1] if done else 0
        stop = max(done + 1, int(ends.searchsorted(base + _PAIR_CHUNK, "right")))
        c = count[done:stop]
        i = np.repeat(src[done:stop], c)
        offset = np.arange(int(c.sum())) - np.repeat(np.cumsum(c) - c, c)
        j = by_cell[np.repeat(start[done:stop], c) + offset]
        keep = j > i
        i, j = i[keep], j[keep]
        hit = ((lo[i] < hi[j]) & (lo[j] < hi[i])).all(axis=1)
        pairs.extend(zip(i[hit].tolist(), j[hit].tolist()))
        done = stop
    return frozenset(pairs)


def trilinear_weights(frac: np.ndarray) -> np.ndarray:
    """Weights of the 8 donor-cell corners for a point at fractional
    offsets ``frac = (fx, fy, fz)`` within the cell (each in [0, 1]).

    Returned in corner order (0,0,0), (1,0,0), (0,1,0), (1,1,0),
    (0,0,1), (1,0,1), (0,1,1), (1,1,1); they always sum to 1.
    """
    frac = np.asarray(frac, dtype=float)
    if frac.shape != (3,) or np.any(frac < 0) or np.any(frac > 1):
        raise ConfigurationError(f"bad fractional offsets: {frac}")
    fx, fy, fz = frac
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    return np.array(
        [
            gx * gy * gz,
            fx * gy * gz,
            gx * fy * gz,
            fx * fy * gz,
            gx * gy * fz,
            fx * gy * fz,
            gx * fy * fz,
            fx * fy * fz,
        ]
    )


def interpolate(donor: np.ndarray, point: np.ndarray, spacing: float = 1.0) -> float:
    """Trilinearly interpolate scalar field ``donor`` (a 3D array on a
    uniform grid with ``spacing``) at physical ``point``.

    This is the fringe-point update of the overset boundary exchange;
    exact for trilinear fields (tested property).
    """
    point = np.asarray(point, dtype=float) / spacing
    idx = np.floor(point).astype(int)
    if np.any(idx < 0) or np.any(idx + 1 >= donor.shape):
        raise ConfigurationError(f"point {point} outside donor block")
    frac = point - idx
    w = trilinear_weights(frac)
    i, j, k = idx
    corners = np.array(
        [
            donor[i, j, k],
            donor[i + 1, j, k],
            donor[i, j + 1, k],
            donor[i + 1, j + 1, k],
            donor[i, j, k + 1],
            donor[i + 1, j, k + 1],
            donor[i, j + 1, k + 1],
            donor[i + 1, j + 1, k + 1],
        ]
    )
    return float(w @ corners)
