"""HPCC b_eff: MPI latency and bandwidth patterns (paper §3.1).

Three patterns, as the paper uses:

* **Ping-Pong** — average one-way latency (8-byte messages) and
  bandwidth (2,000,000-byte messages, per HPCC) over a deterministic
  sample of rank pairs;
* **Natural Ring** — every rank exchanges with its MPI_COMM_WORLD
  neighbors simultaneously; mostly-local communication;
* **Random Ring** — neighbors under a random permutation: mostly
  *remote* communication; reported as a geometric mean over several
  orderings (as the HPCC benchmark reports).

Under DES faults or tracing, every pattern is *executed*
message-by-message on the DES against the simulated machine; on a
healthy machine each runs as its exact recurrence (below).  Ring
bandwidths are additionally derated by the analytic cross-node
contention factor (the DES prices paths unloaded; a ring loads every
path at once — on InfiniBand that saturates the per-node card
capacity, which is the §4.6.1 "severe problems with scalability of
InfiniBand" mechanism).

No DES work whose result is thrown away, or that a recurrence gives
exactly, is simulated:

* on a healthy machine, and under static path faults, ping-pong is
  closed form in its pair's path: all sampled pairs are priced in one
  bulk call and each one-way time follows ``MPIComm.isend``'s float
  order, ``==`` to a two-rank world (``tests/test_hpcc.py`` keeps that
  reference).  Otherwise a ping-pong world runs only its two ranks
  (``run_mpi(ranks=...)``); the idle ranks get no process, mailbox or
  handle;
* every ring iteration opens with a dissemination barrier, computed
  once per pattern call as each rank's exit time and injection-free
  time; every ring starts each rank from that snapshot instead of
  re-running the barrier;
* on a healthy machine, and under static path faults, the barrier and
  the rings are pure functions of the network :func:`route key
  <repro.netmodel.costs.route_key>`: each rank's time depends only on
  its own injection slot and its neighbors' arrival times.  They run
  as numpy recurrences over all ranks at once, in the DES's float
  operation order, so the results are ``==`` to per-world DES runs
  (``tests/test_hpcc.py`` keeps that reference).  The barrier snapshot
  is memoized on the route key and shared by ``natural_ring``,
  ``random_ring`` and every later call with equal content;
* under DES faults (drop, jitter, flap, straggler), or while a tracer
  records (see :func:`repro.mpi.job.healthy`), ping-pong runs on the
  DES, and so do the barrier and the rings, one barrier per
  pattern call shared by that call's rings — deterministic per fault
  seed, but not the realization a per-world barrier would draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.placement import Placement
from repro.memo import memo
from repro.mpi import MPIComm, run_mpi
from repro.mpi.collectives import barrier
from repro.mpi.job import healthy
from repro.netmodel.contention import (
    cross_node_flow_factor,
    random_permutation_factor,
)
from repro.netmodel.costs import NetworkModel, route_key
from repro.sim.process import Timeout
from repro.sim.rng import make_rng

__all__ = ["PingPongResult", "RingResult", "pingpong", "natural_ring", "random_ring"]

#: HPCC message sizes: 8 bytes for latency, 2,000,000 for bandwidth.
LATENCY_BYTES = 8
BANDWIDTH_BYTES = 2_000_000
#: the two ring iterations of every ring pattern call.
RING_BYTES = (LATENCY_BYTES, BANDWIDTH_BYTES)

#: each rank's ``(exit times, injection-free times)`` out of a barrier.
_Snapshot = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PingPongResult:
    """Average ping-pong results over sampled pairs."""

    n_cpus: int
    avg_latency: float  # seconds, one-way
    avg_bandwidth: float  # bytes/s, one direction


@dataclass(frozen=True)
class RingResult:
    """Ring benchmark results (natural or random ordering)."""

    n_cpus: int
    latency: float  # seconds per ring iteration with 8-byte messages
    bandwidth_per_cpu: float  # bytes/s through each CPU (both directions)


def _pair_sample(p: int, max_pairs: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic sample of distinct rank pairs."""
    if p < 2:
        raise ConfigurationError("ping-pong needs at least 2 ranks")
    if max_pairs < 1:
        raise ConfigurationError(f"ping-pong needs max_pairs >= 1, got {max_pairs}")
    all_count = p * (p - 1) // 2
    if all_count <= max_pairs:
        return [(i, j) for i in range(p) for j in range(i + 1, p)]
    rng = make_rng(seed)
    pairs = set()
    while len(pairs) < max_pairs:
        i, j = rng.integers(0, p, size=2)
        if i != j:
            pairs.add((int(min(i, j)), int(max(i, j))))
    return sorted(pairs)


def pingpong(
    placement: Placement, max_pairs: int = 64, seed: int = 0
) -> PingPongResult:
    """HPCC ping-pong: averages over sampled communicating pairs.

    Each pair plays one 8-byte and one 2 MB ping-pong; the "average"
    results the paper quotes (§3.1) are arithmetic means.  On a
    :func:`healthy <repro.mpi.job.healthy>` machine the games are
    :func:`_pingpong_oneway` over all pairs at once; otherwise each
    runs in its own two-rank DES world.
    """
    pairs = _pair_sample(placement.n_ranks, max_pairs, seed)
    if healthy():
        lat, bw = NetworkModel(placement).path_arrays(*np.array(pairs).T)
        latencies = _pingpong_oneway(lat, bw, LATENCY_BYTES)
        bandwidths = BANDWIDTH_BYTES / _pingpong_oneway(lat, bw, BANDWIDTH_BYTES)
    else:
        latencies, bandwidths = _pingpong_worlds(placement, pairs)
    return PingPongResult(
        n_cpus=placement.total_cpus,
        avg_latency=float(np.mean(latencies)),
        avg_bandwidth=float(np.mean(bandwidths)),
    )


def _pingpong_oneway(lat: np.ndarray, bw: np.ndarray, nbytes: int) -> np.ndarray:
    """One-way times of a ping-pong of ``nbytes`` over each path,
    ``==`` to :func:`_pingpong_worlds`.  A route-table path is priced
    the same both ways; the ops are ``MPIComm.isend``'s (see the
    recurrence notes below), from t=0 with both injection slots free.
    """
    finish = 0.0 + nbytes / bw
    there = 0.0 + (finish - 0.0) + lat
    finish_back = np.maximum(0.0, there) + nbytes / bw
    back = there + (finish_back - there) + lat
    return (back - 0.0) / 2.0


def _pingpong_worlds(
    placement: Placement, pairs: list[tuple[int, int]]
) -> tuple[list[float], list[float]]:
    """Per-pair one-way latencies and bandwidths, one two-rank DES
    world per pair and message size."""

    def prog_for(pair: tuple[int, int], nbytes: int):
        a, b = pair

        def prog(comm: MPIComm):
            if comm.rank == a:
                t0 = comm.now
                yield from comm.send(b, nbytes)
                yield from comm.recv(b)
                return (comm.now - t0) / 2.0  # one-way
            elif comm.rank == b:
                yield from comm.recv(a)
                yield from comm.send(a, nbytes)
            return None

        return prog

    latencies, bandwidths = [], []
    for pair in pairs:
        lat = run_mpi(
            placement, prog_for(pair, LATENCY_BYTES), ranks=pair
        ).values[pair[0]]
        oneway = run_mpi(
            placement, prog_for(pair, BANDWIDTH_BYTES), ranks=pair
        ).values[pair[0]]
        latencies.append(lat)
        bandwidths.append(BANDWIDTH_BYTES / oneway)
    return latencies, bandwidths


def _barrier_exits(placement: Placement, healthy: bool) -> _Snapshot:
    """Each rank's exit time and injection-free time out of the ring's
    opening barrier: all the state a rank carries out of the barrier
    into its ring exchange.  Every barrier message is received before
    its receiver exits, so nothing else outlives it.

    Memoized on the route key when ``healthy`` (see
    :func:`repro.mpi.job.healthy`).
    """
    if healthy:
        return _shared_barrier_exits(route_key(placement))
    return _run_barrier(placement)


@memo(maxsize=128)
def _shared_barrier_exits(key: tuple) -> _Snapshot:
    # Runs under the caller's fault context, whose path faults are
    # the key's; the placement is rebuilt from the key's content.
    content, _ = key
    return _barrier_recurrence(NetworkModel(Placement(
        content.cluster, n_ranks=len(content.cpus), cpu_list=content.cpus
    )))


def _run_barrier(placement: Placement) -> _Snapshot:
    """Run the ring's opening barrier once on the DES."""

    def prog(comm: MPIComm):
        yield from barrier(comm)
        return comm.now, comm.inject_free_at

    exit_times, inject_free = np.array(run_mpi(placement, prog).values).T
    return exit_times, inject_free


# The recurrences mirror the DES float for float: a send at ``now``
# takes the injection slot at ``start = max(slot, now)``, frees it at
# ``finish = start + nbytes / bandwidth`` and lands at ``now + (finish
# - now) + latency`` (``MPIComm.isend``'s operation order, kept as is so
# that equality with the DES needs no rounding argument); a receive
# posted at ``now`` returns at ``max(now, arrival)``.


def _barrier_recurrence(net: NetworkModel) -> _Snapshot:
    """The dissemination barrier of :func:`repro.mpi.collectives.barrier`
    over all ranks at once: in the round of distance ``d`` every rank
    sends 1 byte to ``(i + d) % p`` and waits for ``(i - d) % p``."""
    p = net.placement.n_ranks
    ranks = np.arange(p)
    now = np.zeros(p)
    slot = np.zeros(p)
    distance = 1
    while distance < p:
        lat, bw = net.path_arrays(ranks, (ranks + distance) % p)
        slot = np.maximum(slot, now) + 1 / bw
        arrival = now + (slot - now) + lat
        now = np.maximum(now, np.roll(arrival, distance))
        distance *= 2
    now.flags.writeable = slot.flags.writeable = False
    return now, slot


def _ring_exchange(
    placement: Placement, order: list[int], exits: _Snapshot
) -> list[np.ndarray]:
    """:func:`_ring_world`'s per-rank times, computed without a DES.

    Arrays run over ring positions: position ``k`` is rank
    ``order[k]``, which sends to its right neighbor (tag 1), then to
    its left (tag 2), from the barrier snapshot, and waits for the
    left neighbor's tag-1 and the right neighbor's tag-2 message.
    """
    p = len(order)
    order = np.asarray(order)
    lat_r, bw_r = NetworkModel(placement).path_arrays(order, np.roll(order, -1))
    # A path is priced the same both ways, so position k's left path
    # is position k-1's right path.
    lat_l, bw_l = np.roll(lat_r, 1), np.roll(bw_r, 1)
    exit_times, inject_free = exits
    t0 = exit_times[order]
    slot = inject_free[order]
    times = []
    for nbytes in RING_BYTES:
        first = np.maximum(slot, t0) + nbytes / bw_r
        # The second send finds the slot busy until ``first`` >= t0.
        second = first + nbytes / bw_l
        to_right = t0 + (first - t0) + lat_r
        to_left = t0 + (second - t0) + lat_l
        done = np.maximum(np.maximum(t0, np.roll(to_right, 1)), np.roll(to_left, -1))
        by_rank = np.empty(p)
        by_rank[order] = done - t0
        times.append(by_rank)
    return times


def _ring_world(
    placement: Placement, order: list[int], exits: _Snapshot
) -> list[np.ndarray]:
    """Per-rank exchange times for one ring iteration under the DES,
    one world per size of :data:`RING_BYTES`.

    ``order`` is the ring permutation: rank ``order[k]`` exchanges with
    ``order[k-1]`` and ``order[(k+1) % p]`` simultaneously.  Each
    rank's time reflects its own two neighbor paths: over the many
    pipelined iterations b_eff runs, independent pairs stream at their
    own rate, so the benchmark's per-process results follow the
    per-pair path quality (HPCC averages over processes).

    ``exits`` is :func:`_barrier_exits` of the placement: each rank
    resumes from its barrier snapshot rather than re-running it.
    """
    p = placement.n_ranks
    pos = {rank: k for k, rank in enumerate(order)}
    exit_times, inject_free = (column.tolist() for column in exits)

    def prog_for(nbytes: int):
        def prog(comm: MPIComm):
            k = pos[comm.rank]
            right = order[(k + 1) % p]
            left = order[(k - 1) % p]
            comm.inject_free_at = inject_free[comm.rank]
            yield Timeout(comm.sim, exit_times[comm.rank])
            t0 = comm.now
            # Bidirectional exchange with both neighbors, as b_eff does.
            comm.isend(right, nbytes, tag=1)
            comm.isend(left, nbytes, tag=2)
            yield comm.irecv(left, tag=1)
            yield comm.irecv(right, tag=2)
            return comm.now - t0

        return prog

    return [np.asarray(run_mpi(placement, prog_for(nbytes)).values, dtype=float)
            for nbytes in RING_BYTES]


def _ring_iteration(placement: Placement):
    """``run(order)`` -> per-rank times of one ring iteration at each
    size of :data:`RING_BYTES`.  The opening barrier is computed here,
    once per pattern call, and shared by all of that call's rings."""
    is_healthy = healthy()
    exits = _barrier_exits(placement, is_healthy)
    ring = _ring_exchange if is_healthy else _ring_world
    return lambda order: ring(placement, order, exits)


def natural_ring(placement: Placement) -> RingResult:
    """Ring over adjacent MPI ranks ("natural" ordering).

    Latency is the worst per-process time, as the paper notes the
    benchmark "reports the worst-case process-to-process latency for
    the entire ring communication" (§4.6.1); bandwidth is the mean
    per-process sustained rate.
    """
    p = placement.n_ranks
    lat_times, bw_times = _ring_iteration(placement)(list(range(p)))
    lat = float(np.max(lat_times))
    # Few neighbor pairs cross nodes in natural order.
    cross = cross_node_flow_factor(placement, concurrent_fraction=2.0 / max(2, p))
    per_cpu = float(np.mean(2.0 * BANDWIDTH_BYTES / bw_times)) / cross
    return RingResult(placement.total_cpus, lat, per_cpu)


def random_ring(placement: Placement, trials: int = 3, seed: int = 1) -> RingResult:
    """Ring over randomly permuted ranks; geometric mean over trials
    (HPCC reports "a geometric mean of the results from a number of
    trials", §3.1).

    Latency is the mean per-process time (most pairs are remote, so
    the mean is what grows with CPU count as in Fig. 5); bandwidth is
    the mean sustained rate derated by the full cross-node contention
    factor (every rank has remote flows in flight at once).
    """
    p = placement.n_ranks
    rng = make_rng(seed)
    lats, bws = [], []
    cross = cross_node_flow_factor(placement, concurrent_fraction=1.0)
    cross *= random_permutation_factor(p / placement.n_nodes_used())
    ring = _ring_iteration(placement)
    for _ in range(max(1, trials)):
        lat_times, bw_times = ring([int(r) for r in rng.permutation(p)])
        lats.append(float(np.mean(lat_times)))
        bws.append(float(np.mean(2.0 * BANDWIDTH_BYTES / bw_times)) / cross)
    geo = lambda xs: float(math.exp(np.mean(np.log(xs))))
    return RingResult(placement.total_cpus, geo(lats), geo(bws))
