"""NPB multi-zone benchmarks: zone geometry (paper §3.2).

NPB-MZ partitions an aggregate 3D grid into a 2D array of zones:
SP-MZ into *equal* zones (trivial load balance as long as the zone
count divides the process count), BT-MZ into zones whose sizes grow
geometrically so the largest is ~20x the smallest (stressing load
balance — the two benchmarks "test both coarse- and fine-grain
parallelism and load balance").

Besides the standard classes, the paper introduces two new sizes for
Columbia (§3.2): Class E — 4096 zones, 4224 x 3456 x 92 aggregate —
and Class F — 16384 zones, 12032 x 8960 x 250.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.memo import memo

__all__ = ["Zone", "MZProblem", "MZ_CLASSES", "mz_problem", "zone_sizes_1d"]

#: Largest/smallest zone size ratio in BT-MZ (NPB-MZ specification).
BTMZ_SIZE_RATIO = 20.0


@dataclass(frozen=True)
class Zone:
    """One zone of a multi-zone problem."""

    index: int
    nx: int
    ny: int
    nz: int

    @property
    def points(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def boundary_points(self) -> int:
        """Points on the four in-plane faces exchanged with neighbor
        zones each step (the z faces are physical boundaries)."""
        return 2 * (self.nx + self.ny) * self.nz


@dataclass(frozen=True)
class MZClassSpec:
    """Aggregate geometry of one NPB-MZ class."""

    cls: str
    zones_x: int
    zones_y: int
    agg_x: int
    agg_y: int
    agg_z: int
    steps: int

    @property
    def n_zones(self) -> int:
        return self.zones_x * self.zones_y


#: NPB-MZ 3.1 classes, plus the paper's new E and F.
MZ_CLASSES: dict[str, MZClassSpec] = {
    s.cls: s
    for s in (
        MZClassSpec("S", 2, 2, 24, 24, 6, 60),
        MZClassSpec("W", 4, 4, 64, 64, 8, 200),
        MZClassSpec("A", 4, 4, 128, 128, 16, 200),
        MZClassSpec("B", 8, 8, 304, 208, 17, 200),
        MZClassSpec("C", 16, 16, 480, 320, 28, 200),
        MZClassSpec("D", 32, 32, 1632, 1216, 34, 250),
        # Paper §3.2: "Class E (4096 zones, 4224x3456x92 aggregated
        # grid size) and Class F (16384 zones, 12032x8960x250)".
        MZClassSpec("E", 64, 64, 4224, 3456, 92, 250),
        MZClassSpec("F", 128, 128, 12032, 8960, 250, 250),
    )
}


def zone_sizes_1d(total: int, n_zones: int, ratio: float) -> list[int]:
    """Partition ``total`` cells into ``n_zones`` sizes growing
    geometrically with max/min ~= ``ratio`` (1.0 = equal zones).

    Uses largest-remainder rounding so the sizes sum exactly to
    ``total`` and every zone keeps at least 3 cells.
    """
    if n_zones < 1 or total < 3 * n_zones:
        raise ConfigurationError(
            f"cannot cut {total} cells into {n_zones} zones"
        )
    if ratio < 1.0:
        raise ConfigurationError(f"ratio must be >= 1: {ratio}")
    if n_zones == 1:
        return [total]
    # Imported here: reading MZ_CLASSES must not pay for NumPy.
    import numpy as np

    r = ratio ** (1.0 / (n_zones - 1))
    weights = np.power(r, np.arange(n_zones))
    ideal = weights / weights.sum() * total
    sizes = np.maximum(3, np.floor(ideal).astype(int))
    # Largest-remainder correction to hit the exact total.
    deficit = total - int(sizes.sum())
    if deficit > 0:
        order = np.argsort(-(ideal - np.floor(ideal)))
        for i in range(deficit):
            sizes[order[i % n_zones]] += 1
    elif deficit < 0:
        order = np.argsort(ideal - np.floor(ideal))
        i = 0
        while deficit < 0 and i < 10 * n_zones:
            j = order[i % n_zones]
            if sizes[j] > 3:
                sizes[j] -= 1
                deficit += 1
            i += 1
    if int(sizes.sum()) != total:
        raise ConfigurationError("zone size rounding failed")
    return [int(s) for s in sizes]


@dataclass(frozen=True)
class MZProblem:
    """A fully instantiated multi-zone problem.

    The zone grid is the outer product of the 1D zone sizes ``xs``
    (along x) and ``ys`` (along y), every zone ``agg_z`` deep; zone
    ``j * zones_x + i`` is ``xs[i] x ys[j] x agg_z``.  The aggregate
    sums are exact integers in closed form, and the :class:`Zone`
    objects are built only when :attr:`zones` is first read.
    """

    benchmark: str  # "bt-mz" or "sp-mz"
    cls: str
    spec: MZClassSpec
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @cached_property
    def zones(self) -> tuple[Zone, ...]:
        nz = self.spec.agg_z
        return tuple(
            Zone(index=j * len(self.xs) + i, nx=nx, ny=ny, nz=nz)
            for j, ny in enumerate(self.ys)
            for i, nx in enumerate(self.xs)
        )

    @cached_property
    def total_points(self) -> int:
        return sum(self.xs) * sum(self.ys) * self.spec.agg_z

    @cached_property
    def total_boundary_points(self) -> int:
        """Sum of every zone's :attr:`Zone.boundary_points`."""
        return 2 * self.spec.agg_z * (
            len(self.ys) * sum(self.xs) + len(self.xs) * sum(self.ys)
        )

    @property
    def flops_per_step(self) -> float:
        """Approximate flop per time step over all zones."""
        per_point = 2500.0 if self.benchmark == "bt-mz" else 900.0
        return per_point * self.total_points

    @property
    def size_imbalance(self) -> float:
        """Largest zone / smallest zone (≈20 for BT-MZ, 1 for SP-MZ)."""
        return (max(self.xs) * max(self.ys)) / (min(self.xs) * min(self.ys))

    @property
    def memory_bytes(self) -> float:
        """Resident bytes: ~60 float64 words per point (solution,
        RHS, workspace) — what decides how many 1 TB nodes a class
        needs (Class F alone exceeds any single Altix node)."""
        return 8.0 * 60 * self.total_points


@memo(maxsize=32)
def mz_problem(benchmark: str, cls: str) -> MZProblem:
    """Instantiate ``bt-mz`` or ``sp-mz`` at problem class ``cls``.

    Memoized: the problem is frozen, and every cell of a multi-zone
    sweep instantiates the same few.
    """
    if benchmark not in ("bt-mz", "sp-mz"):
        raise ConfigurationError(
            f"unknown multi-zone benchmark {benchmark!r}"
        )
    spec = MZ_CLASSES.get(cls.upper())
    if spec is None:
        raise ConfigurationError(f"unknown NPB-MZ class {cls!r}")
    ratio = BTMZ_SIZE_RATIO**0.5 if benchmark == "bt-mz" else 1.0
    xs = zone_sizes_1d(spec.agg_x, spec.zones_x, ratio)
    ys = zone_sizes_1d(spec.agg_y, spec.zones_y, ratio)
    return MZProblem(benchmark=benchmark, cls=cls.upper(), spec=spec,
                     xs=tuple(xs), ys=tuple(ys))
