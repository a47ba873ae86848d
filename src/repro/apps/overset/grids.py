"""Overset grid systems.

The paper's two production grid systems:

* the **turbopump** (INS3D, §3.4): 66 million grid points in 267
  blocks/zones — inducer blades, bellows cavity, flowliner components;
* the **rotor wake** (OVERFLOW-D, §3.5): ~75 million points in 1679
  blocks of various sizes — body-fitted rotor/hub grids plus off-body
  Cartesian wake grids.

We cannot recover the proprietary geometries, so the generators build
*synthetic* systems with the documented block counts and total sizes
and a heavy-tailed block-size distribution (overset systems mix a few
huge background grids with many small connector grids; that skew is
exactly what makes load balancing hard at 508 processes — §4.1.4).
Blocks are laid out in space with controlled pairwise overlap so the
connectivity machinery has real geometry to chew on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.memo import memo
from repro.sim.rng import make_rng

__all__ = ["GridBlock", "OversetSystem", "turbopump_system", "rotor_system"]


@dataclass(frozen=True)
class GridBlock:
    """One curvilinear grid block (modeled by its bounding box)."""

    index: int
    shape: tuple[int, int, int]
    #: axis-aligned bounding box in physical space.
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self) -> None:
        # Spelled out for the three axes: a system builds 1679 blocks.
        if min(self.shape) < 2:
            raise ConfigurationError(f"block {self.index}: degenerate {self.shape}")
        lo, hi = self.lo, self.hi
        if lo[0] >= hi[0] or lo[1] >= hi[1] or lo[2] >= hi[2]:
            raise ConfigurationError(f"block {self.index}: empty bounding box")

    @property
    def points(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def surface_points(self) -> int:
        """Points on the six outer faces (interpolation fringe)."""
        nx, ny, nz = self.shape
        return 2 * (nx * ny + ny * nz + nx * nz)

    def overlaps(self, other: "GridBlock") -> bool:
        """Bounding boxes intersect (the grouping connectivity test)."""
        return all(
            self.lo[d] < other.hi[d] and other.lo[d] < self.hi[d]
            for d in range(3)
        )


@dataclass(frozen=True)
class OversetSystem:
    """A complete multi-block overset grid system.

    Its aggregate sums, its weights and its hash are cached on first
    use: systems are memoized, every timing-model call reads the sums,
    and every partition memo probe hashes the system (1679 blocks for
    the rotor).
    """

    name: str
    blocks: tuple[GridBlock, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.blocks))

    def __reduce__(self):
        # String hashes differ between processes: rehash on unpickle.
        return OversetSystem, (self.name, self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def total_points(self) -> int:
        return sum(b.points for b in self.blocks)

    @cached_property
    def total_surface_points(self) -> int:
        return sum(b.surface_points for b in self.blocks)

    def weights(self) -> tuple[float, ...]:
        """Block sizes, the bin-packing weights."""
        return self._weights

    @cached_property
    def _weights(self) -> tuple[float, ...]:
        return tuple(float(b.points) for b in self.blocks)

    @property
    def size_skew(self) -> float:
        """Largest block / mean block size."""
        pts = [b.points for b in self.blocks]
        return max(pts) / (sum(pts) / len(pts))


#: Largest point total a system may have: block sizes are rounded
#: through int64.
_MAX_POINTS = 2**62


@memo(maxsize=8)
def _synthetic_system(
    name: str,
    n_blocks: int,
    total_points: int,
    skew_sigma: float,
    seed: int,
    max_block_fraction: float,
) -> OversetSystem:
    """Generate a synthetic overset system.

    Block point counts follow a lognormal distribution (heavy tail)
    rescaled to the exact total; blocks are placed on a jittered 3D
    lattice sized so that spatial neighbors overlap.  Memoized: the
    result is frozen and a pure function of the arguments, and every
    OVERFLOW-D/INS3D cell of a sweep asks for the same system.

    Built in bulk, with the same values a block-at-a-time loop gets:
    block ``i`` drew three aspect ratios then three jitters, so row
    ``i`` of one ``(n_blocks, 6)`` draw holds them in that order,
    mapped as ``Generator.uniform`` maps a draw.  The two cube roots
    stay scalar Python ``**`` (C ``pow``): NumPy's vectorized power
    and ``cbrt`` can differ from it in the last bit.
    """
    if seed < 0:
        raise ConfigurationError(f"overset seed must be >= 0, got {seed}")
    rng = make_rng(seed)
    pts = _point_budget(rng, n_blocks, total_points, skew_sigma, max_block_fraction)
    u = rng.random((n_blocks, 6))
    ar = 0.7 + (1.4 - 0.7) * u[:, :3]
    jitter = -0.2 + (0.2 - -0.2) * u[:, 3:]
    # Shapes: roughly cubic with mild anisotropy.  Reconciling the
    # product to ~n is not needed: points bookkeeping uses the shape
    # product.
    base = np.array([n ** (1.0 / 3.0) for n in pts.tolist()])
    aniso = np.array([p ** (1.0 / 3.0) for p in (ar[:, 0] * ar[:, 1] * ar[:, 2]).tolist()])
    dims = np.maximum(2, np.round(base[:, None] * ar / aniso[:, None])).astype(int)
    side = int(np.ceil(n_blocks ** (1.0 / 3.0)))
    spacing = 1.0
    i = np.arange(n_blocks)
    gx = np.stack([i % side, (i // side) % side, i // (side * side)], axis=1)
    center = gx.astype(float) * spacing + jitter
    half = 0.5 * spacing * 1.3 * (dims / dims.max(axis=1, keepdims=True))  # overlap neighbors
    blocks = tuple(
        GridBlock(index=b, shape=tuple(shape), lo=tuple(lo), hi=tuple(hi))
        for b, (shape, lo, hi) in enumerate(
            zip(dims.tolist(), (center - half).tolist(), (center + half).tolist())
        )
    )
    return OversetSystem(name=name, blocks=blocks)


def _point_budget(
    rng: np.random.Generator,
    n_blocks: int,
    total_points: int,
    skew_sigma: float,
    max_block_fraction: float,
) -> np.ndarray:
    """Per-block point counts: lognormal sizes with the tail capped at
    ``max_block_fraction`` of the total, rounded to sum to exactly
    ``total_points`` with at least 8 points each.  Draws from ``rng``."""
    if n_blocks < 1 or not 8 * n_blocks <= total_points <= _MAX_POINTS:
        raise ConfigurationError(
            f"unbuildable overset system: {total_points} points in {n_blocks} blocks"
        )
    if not 0 <= skew_sigma < math.inf:
        raise ConfigurationError(f"skew_sigma must be finite and >= 0, got {skew_sigma}")
    if not 0 < max_block_fraction < 1:
        raise ConfigurationError(
            f"max_block_fraction must lie in (0, 1), got {max_block_fraction}"
        )
    # abs() turns -0.0, which passes the check above, into the 0.0 numpy accepts.
    raw = rng.lognormal(mean=0.0, sigma=abs(skew_sigma), size=n_blocks)
    # Cap the tail so no block exceeds the requested fraction of total.
    raw = np.minimum(raw, raw.sum() * max_block_fraction / (1.0 - max_block_fraction))
    capped = raw.sum()
    if not 0 < capped < math.inf:
        raise ConfigurationError(f"skew_sigma {skew_sigma} overflows the block sizes")
    pts = raw / capped * total_points
    pts = np.maximum(8, pts.astype(np.int64))
    # Fix rounding drift on the largest block.
    drift = total_points - int(pts.sum())
    largest = int(np.argmax(pts))
    pts[largest] += drift
    if pts[largest] < 8:
        raise ConfigurationError(
            f"{total_points} points leave a block below 8 at skew_sigma {skew_sigma}"
        )
    return pts


def _scaled(points: int, scale: float) -> int:
    if not 0 < scale < math.inf:
        raise ConfigurationError(f"scale must be positive and finite, got {scale}")
    return int(points * scale)


def turbopump_system(scale: float = 1.0, seed: int = 42) -> OversetSystem:
    """The INS3D low-pressure fuel pump grid system (§3.4).

    Paper: "66 million grid points and 267 blocks (or zones)".
    ``scale`` shrinks the point count (not the block count) for tests.
    """
    # Moderately skewed: Table 2's 36-group runs imply near-even group
    # loads (1223 s vs the ideal 1089.7 s is mostly MLP overhead), so
    # the largest zone must stay below ~1/36 of the total.
    return _synthetic_system(
        name="turbopump",
        n_blocks=267,
        total_points=_scaled(66_000_000, scale),
        skew_sigma=1.0,
        seed=seed,
        max_block_fraction=0.012,
    )


def rotor_system(scale: float = 1.0, seed: int = 43) -> OversetSystem:
    """The OVERFLOW-D hovering-rotor grid system (§3.5).

    Paper: "1679 blocks of various sizes, and approximately 75 million
    grid points" — about 150 thousand points per MPI task at 508
    processes (§4.1.4).  The heavy tail (a few large near-body and
    background wake grids) is what defeats load balancing at large
    process counts.
    """
    return _synthetic_system(
        name="rotor",
        n_blocks=1679,
        total_points=_scaled(75_000_000, scale),
        skew_sigma=1.3,
        seed=seed,
        max_block_fraction=0.013,
    )
