"""Point-to-point message cost model (LogGP style).

``T(message) = latency(path) + size / bandwidth(path)``

where the path parameters come from the machine model: NUMAlink hop
counts inside a node, the NUMAlink4 inter-node link, or the InfiniBand
switch, as appropriate for the two CPUs the communicating ranks are
pinned to, then adjusted by the static path faults in force.

Paths are priced by one vectorized kernel per content-keyed route
table (:meth:`_RouteTable.price`): rank arrays in, latency and
bandwidth arrays out, as numpy gathers over the machine's per-hop
tables.  Bulk consumers — the b_eff recurrences, :meth:`NetworkModel.
stats`, :meth:`NetworkModel.message_times` — call it through
:meth:`NetworkModel.path_arrays`.  The DES prices one message at a
time through :meth:`NetworkModel.path`/:meth:`~NetworkModel.
message_time`, which keep per-pair dicts and price a miss through the
same kernel, so there is one pricing implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.context import current_injector
from repro.faults.injector import adjust_paths
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

    Slotted: the cost model builds one per distinct path the DES asks
    for, and the slot layout roughly halves both the construction
    cost and the per-instance footprint.
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
    """The paths of one :func:`route_key`.

    Every :class:`NetworkModel` whose placement has equal content,
    built under equal static path faults, shares one table — however
    and whenever its placement was built.

    :meth:`price` is the one path-pricing kernel: rank arrays in,
    latency and bandwidth arrays out, computed from each rank's node
    and node-local CPU (located once, when the table is built) by the
    machine's table gathers, then the static path faults, then the
    self-path rule.  Bulk callers (the b_eff recurrences, path
    statistics, :meth:`NetworkModel.message_times`) use it directly
    and store nothing.  The per-message lookups of the DES keep the
    ``(lo_rank, hi_rank)`` dicts below; a miss prices one pair
    through the same kernel, so the dicts hold only the pairs the DES
    asked for.
    """

    __slots__ = ("cluster", "faults", "nodes", "local",
                 "self_lat", "self_bw", "interned", "paths", "flat")

    def __init__(self, key: tuple) -> None:
        content, self.faults = key
        self.cluster = cluster = content.cluster
        #: node and node-local CPU of each rank's home (thread-0) CPU
        self.nodes, self.local = cluster.locate(content.cpus)
        # Self-messages move through shared memory: model as the best
        # same-brick path of the rank's node (link faults describe
        # the fabric, so they leave the in-memory copy alone).
        zero_hop = [node.interconnect.point_to_point(0) for node in cluster.nodes]
        self.self_lat = np.array([lat * 0.5 for lat, _ in zero_hop])
        self.self_bw = np.array([bw * 2.0 for _, bw in zero_hop])
        for array in (self.nodes, self.local, self.self_lat, self.self_bw):
            array.flags.writeable = False
        #: (latency, bandwidth) -> that tuple and its PathSpec, one per
        #: distinct path value the DES asked for
        self.interned: dict[tuple[float, float], tuple] = {}
        #: (lo_rank, hi_rank) -> PathSpec; self-paths under (r, r)
        self.paths: dict[tuple[int, int], PathSpec] = {}
        #: (lo_rank, hi_rank) -> (latency, bandwidth) plain tuple —
        #: the :meth:`NetworkModel.message_time` fast table.  Written
        #: before ``paths``, so a key found in ``paths`` is here too.
        self.flat: dict[tuple[int, int], tuple[float, float]] = {}

    def _ranks(self, ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.intp).ravel()
        n = len(self.nodes)
        outside = (ranks < 0) | (ranks >= n)
        if outside.any():
            raise ConfigurationError(
                f"rank {int(ranks[outside][0])} outside 0..{n - 1}"
            )
        return ranks

    def price(self, sources, dests) -> tuple[np.ndarray, np.ndarray]:
        """Latency and bandwidth arrays of the paths ``sources[k] ->
        dests[k]`` (equal-length rank array-likes), checked as
        :class:`PathSpec` checks one path."""
        src, dst = self._ranks(sources), self._ranks(dests)
        if src.shape != dst.shape:
            raise ConfigurationError(
                f"sources/dests shape mismatch: {src.shape} vs {dst.shape}"
            )
        node_a, node_b = self.nodes[src], self.nodes[dst]
        local_a, local_b = self.local[src], self.local[dst]
        cluster = self.cluster
        lat, bw = cluster.path_arrays(node_a, local_a, node_b, local_b)
        if self.faults is not None:
            adjust_paths(
                self.faults, cluster, node_a, local_a, node_b, local_b, lat, bw
            )
        loop = src == dst
        if loop.any():
            lat[loop] = self.self_lat[node_a[loop]]
            bw[loop] = self.self_bw[node_a[loop]]
        bad = (lat < 0) | (bw <= 0)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ConfigurationError(
                f"bad path: latency={lat[k]}, bandwidth={bw[k]}"
            )
        return lat, bw

    def path(self, rank_a: int, rank_b: int) -> PathSpec:
        """Price, store and return the path between two ranks.

        Pairs with equal paths share one stored value and its floats,
        which keeps the DES's per-message lookups cache-friendly.
        """
        lat, bw = self.price((rank_a,), (rank_b,))
        value = (float(lat[0]), float(bw[0]))
        interned = self.interned.get(value)
        if interned is None:
            interned = self.interned[value] = (value, PathSpec(*value))
        value, spec = interned
        key = (rank_a, rank_b) if rank_a < rank_b else (rank_b, rank_a)
        self.flat[key] = value
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

    def path_arrays(self, sources, dests) -> tuple[np.ndarray, np.ndarray]:
        """Latency and bandwidth arrays of the paths ``sources[k] ->
        dests[k]`` (equal-length integer rank array-likes): the
        vectorized :meth:`path`, ``==`` to it element by element.
        Priced in bulk by the shared route table's kernel, without
        filling the per-pair tables the DES reads."""
        return self._table.price(sources, dests)

    def message_times(
        self, sources, dests, nbytes: float | np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`message_time` over arrays of rank pairs.

        ``nbytes`` is a scalar or an array broadcastable against the
        pairs; the paths come from :meth:`path_arrays`.
        """
        lat, bw = self.path_arrays(sources, dests)
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
    n = len(table.nodes)
    if n == 1:
        ii = jj = np.zeros(1, dtype=np.intp)  # the self-path
    elif n * (n - 1) // 2 <= max_samples:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = make_rng(seed)
        ii = rng.integers(0, n, size=max_samples)
        jj = rng.integers(0, n - 1, size=max_samples)
        jj = np.where(jj >= ii, jj + 1, jj)
    lats, bws = table.price(ii, jj)
    cross = int(np.count_nonzero(table.nodes[ii] != table.nodes[jj]))
    return PathStats(
        mean_latency=float(lats.mean()),
        max_latency=float(lats.max()),
        mean_bandwidth=float(bws.mean()),
        min_bandwidth=float(bws.min()),
        cross_node_fraction=cross / len(ii),
    )
