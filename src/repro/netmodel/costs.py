"""Point-to-point message cost model (LogGP style).

``T(message) = latency(path) + size / bandwidth(path)``

where the path parameters come from the machine model: NUMAlink hop
counts inside a node, the NUMAlink4 inter-node link, or the InfiniBand
switch, as appropriate for the two CPUs the communicating ranks are
pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.context import current_injector
from repro.faults.injector import adjust_path
from repro.machine.placement import Placement
from repro.memo import memo
from repro.sim.rng import make_rng

__all__ = ["PathSpec", "NetworkModel", "PathStats", "route_key"]


def route_key(placement: Placement) -> tuple:
    """``(placement.content_key, path faults or None)`` under the
    ambient fault context: everything a path between two ranks of
    ``placement`` depends on.

    Static path faults (degraded links, router failover, the
    released-MPT overhead) are part of the key, so fault-adjusted
    paths are never seen by a healthy or differently faulted model.
    DES faults act per message, not per path, and are not.
    """
    injector = current_injector()
    faults = injector.path_faults if injector is not None else ()
    return (placement.content_key, faults or None)


@dataclass(frozen=True, slots=True)
class PathSpec:
    """Latency/bandwidth of one rank-to-rank path.

    Slotted: the cost model builds one per distinct rank pair during
    cold sweeps, and the slot layout roughly halves both the
    construction cost and the per-instance footprint.
    """

    latency: float  # seconds
    bandwidth: float  # bytes / second

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ConfigurationError(
                f"bad path: latency={self.latency}, bandwidth={self.bandwidth}"
            )

    def time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` over this path."""
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class PathStats:
    """Aggregate path statistics for a placement (collective inputs)."""

    mean_latency: float
    max_latency: float
    mean_bandwidth: float
    min_bandwidth: float
    cross_node_fraction: float


class _RouteTable:
    """The paths of one :func:`route_key`, computed on first use.

    Every :class:`NetworkModel` whose placement has equal content,
    built under equal static path faults, shares one table — however
    and whenever its placement was built — so a path is computed once
    per content rather than once per model or placement instance.
    """

    __slots__ = ("cluster", "cpus", "faults", "paths", "flat")

    def __init__(self, key: tuple) -> None:
        content, self.faults = key
        self.cluster = content.cluster
        #: home (thread-0) CPU of each rank
        self.cpus = content.cpus
        #: (lo_rank, hi_rank) -> PathSpec; self-paths under (r, r)
        self.paths: dict[tuple[int, int], PathSpec] = {}
        #: (lo_rank, hi_rank) -> (latency, bandwidth) plain tuple —
        #: the :meth:`NetworkModel.message_time` fast table.  Written
        #: before ``paths``, so a key found in ``paths`` is here too.
        self.flat: dict[tuple[int, int], tuple[float, float]] = {}

    def path(self, rank_a: int, rank_b: int) -> PathSpec:
        """Compute, store and return the path between two ranks."""
        cpus = self.cpus
        for rank in (rank_a, rank_b):
            if not 0 <= rank < len(cpus):
                raise ConfigurationError(
                    f"rank {rank} outside 0..{len(cpus) - 1}"
                )
        cluster = self.cluster
        if rank_a == rank_b:
            # Self-messages move through shared memory: model as the
            # best same-brick path (link faults describe the fabric,
            # so they leave the in-memory copy alone).
            node = cluster.nodes[cluster.node_of(cpus[rank_a])]
            lat, bw = node.interconnect.point_to_point(0)
            lat, bw = lat * 0.5, bw * 2.0
        else:
            cpu_a, cpu_b = cpus[rank_a], cpus[rank_b]
            lat, bw = cluster.point_to_point(cpu_a, cpu_b)
            if self.faults is not None:
                lat, bw = adjust_path(
                    self.faults, cluster, cpu_a, cpu_b, lat, bw
                )
        spec = PathSpec(lat, bw)
        key = (rank_a, rank_b) if rank_a < rank_b else (rank_b, rank_a)
        self.flat[key] = (lat, bw)
        self.paths[key] = spec
        return spec


@memo(maxsize=32)
def _route_table(key: tuple) -> _RouteTable:
    return _RouteTable(key)


class NetworkModel:
    """Message costs between the ranks of a :class:`Placement`."""

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.cluster = placement.cluster
        # Static path faults are priced in the route table: both the
        # analytic collective models and the DES MPI layer buy their
        # paths from this model, so one hook covers both.  Captured
        # at build time from the ambient fault context.
        self._key = route_key(placement)
        #: shared with every other NetworkModel of equal route key
        self._table = _route_table(self._key)
        self._path_cache = self._table.paths
        self._flat_cache = self._table.flat

    def path(self, rank_a: int, rank_b: int) -> PathSpec:
        """Path between the home CPUs of two ranks (thread 0)."""
        key = (rank_a, rank_b) if rank_a < rank_b else (rank_b, rank_a)
        spec = self._path_cache.get(key)
        if spec is not None:
            return spec
        return self._table.path(rank_a, rank_b)

    def message_time(self, rank_a: int, rank_b: int, nbytes: float) -> float:
        """LogGP time for one message of ``nbytes``.

        The warm case — every pair after the first sweep touches it —
        reads the route table's flat ``(latency, bandwidth)`` tuple
        and does the arithmetic in place: one dict probe, no PathSpec
        hop, no nested calls.
        """
        key = (rank_a, rank_b) if rank_a < rank_b else (rank_b, rank_a)
        flat = self._flat_cache.get(key)
        if flat is None:
            spec = self._table.path(rank_a, rank_b)
            return spec.latency + nbytes / spec.bandwidth
        latency, bandwidth = flat
        return latency + nbytes / bandwidth

    def message_times(
        self, sources, dests, nbytes: float | np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`message_time` over arrays of rank pairs.

        ``sources``/``dests`` are equal-length integer array-likes;
        ``nbytes`` is a scalar or an array broadcastable against them.
        Path parameters are gathered through the shared route table
        (each distinct pair computed once), then the LogGP arithmetic
        runs as two numpy operations instead of a Python loop — the
        bulk-evaluation path for collective cost sweeps.
        """
        src = np.asarray(sources, dtype=np.intp).ravel()
        dst = np.asarray(dests, dtype=np.intp).ravel()
        if src.shape != dst.shape:
            raise ConfigurationError(
                f"sources/dests shape mismatch: {src.shape} vs {dst.shape}"
            )
        lat = np.empty(src.shape, dtype=float)
        bw = np.empty(src.shape, dtype=float)
        path = self.path
        for i in range(src.size):
            spec = path(int(src[i]), int(dst[i]))
            lat[i] = spec.latency
            bw[i] = spec.bandwidth
        return lat + np.asarray(nbytes, dtype=float) / bw

    def stats(self, max_samples: int = 2048, seed: int = 0) -> PathStats:
        """Path statistics over rank pairs.

        Exact for small rank counts; deterministic sampling beyond
        ``max_samples`` pairs (all-pairs at 2048 ranks would be ~2M
        path computations per call).  Memoized on ``(route key,
        max_samples, seed)``: every later call for equal content —
        through this model or any other — returns the same
        :class:`PathStats` object.
        """
        return _path_stats(self._key, max_samples, seed)

    def neighbor_path(self, rank: int) -> PathSpec:
        """Path to the next rank in MPI_COMM_WORLD order (ring step)."""
        return self.path(rank, (rank + 1) % self.placement.n_ranks)


@memo(maxsize=256)
def _path_stats(key: tuple, max_samples: int, seed: int) -> PathStats:
    return _compute_stats(_route_table(key), max_samples, seed)


def _compute_stats(table: _RouteTable, max_samples: int, seed: int) -> PathStats:
    n = len(table.cpus)
    paths, compute = table.paths, table.path
    if n == 1:
        p = paths.get((0, 0)) or compute(0, 0)
        return PathStats(p.latency, p.latency, p.bandwidth, p.bandwidth, 0.0)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_samples:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = make_rng(seed)
        ii = rng.integers(0, n, size=max_samples)
        jj = rng.integers(0, n - 1, size=max_samples)
        jj = np.where(jj >= ii, jj + 1, jj)
    ii = ii.tolist()
    jj = jj.tolist()
    lats = np.empty(len(ii), dtype=float)
    bws = np.empty(len(ii), dtype=float)
    for k, (i, j) in enumerate(zip(ii, jj)):
        p = paths.get((i, j) if i < j else (j, i)) or compute(i, j)
        lats[k] = p.latency
        bws[k] = p.bandwidth
    cpus = np.asarray(table.cpus, dtype=np.intp)
    nodes = cpus // table.cluster.cpus_per_node
    cross = int(np.count_nonzero(nodes[ii] != nodes[jj]))
    return PathStats(
        mean_latency=float(lats.mean()),
        max_latency=float(lats.max()),
        mean_bandwidth=float(bws.mean()),
        min_bandwidth=float(bws.min()),
        cross_node_fraction=cross / len(ii),
    )
