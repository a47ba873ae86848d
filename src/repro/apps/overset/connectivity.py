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

from collections import defaultdict

import numpy as np

from repro.apps.overset.grids import GridBlock, OversetSystem
from repro.errors import ConfigurationError
from repro.memo import memo

__all__ = ["find_overlaps", "trilinear_weights", "interpolate"]


def find_overlaps(system: OversetSystem) -> frozenset[tuple[int, int]]:
    """All unordered block pairs ``(i, j)``, ``i < j``, whose bounding
    boxes intersect.

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


@memo(maxsize=8)
def _overlaps(system: OversetSystem) -> frozenset[tuple[int, int]]:
    blocks = system.blocks
    if not blocks:
        return frozenset()
    # Cell size = the largest box side so neighbors share cells.
    max_extent = max(
        max(h - l for l, h in zip(b.lo, b.hi)) for b in blocks
    )
    cell = max_extent if max_extent > 0 else 1.0
    buckets: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    for b in blocks:
        cx = tuple(int(np.floor((lo + hi) / 2.0 / cell)) for lo, hi in zip(b.lo, b.hi))
        buckets[cx].append(b.index)
    overlaps: set[tuple[int, int]] = set()
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    for key, members in buckets.items():
        candidates = []
        for off in offsets:
            candidates.extend(buckets.get((key[0] + off[0], key[1] + off[1], key[2] + off[2]), []))
        for i in members:
            bi = blocks[i]
            for j in candidates:
                if j <= i:
                    continue
                if bi.overlaps(blocks[j]):
                    overlaps.add((i, j))
    return frozenset(overlaps)


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
