"""Collective operations executed message-by-message on the DES.

These mirror the algorithms priced analytically in
:mod:`repro.netmodel.collectives`; here they actually run as message
exchanges between simulated ranks, so skew, contention and partner
waiting emerge from the simulation.  All are generators to be driven
with ``yield from`` inside a rank program.
"""

from __future__ import annotations

import math
from typing import Any, Generator

import numpy as np

from repro.errors import CommunicationError
from repro.mpi.comm import MPIComm, Message
from repro.netmodel.costs import NetworkModel
from repro.sim.process import SimEvent

__all__ = [
    "barrier",
    "broadcast",
    "allreduce",
    "alltoall",
    "allgather",
    "reduce",
    "gather",
    "scatter",
    "scan",
    "expected_messages",
    "expected_volume",
    "allreduce_times",
]

def expected_messages(op: str, p: int) -> int:
    """Messages the DES generator for ``op`` sends at ``p`` ranks.

    Closed forms evaluated with numpy over rank/round arrays — the
    bulk counterpart to running the generator, used to cost collective
    phases (and cross-check DES message counters) without simulating
    them.  Matches ``MPIWorld.messages_sent`` after the corresponding
    collective exactly.
    """
    if p < 1:
        raise CommunicationError(f"need >= 1 rank, got {p}")
    if p == 1:
        return 0
    ranks = np.arange(p)
    rounds = max(1, math.ceil(math.log2(p)))
    if op == "barrier":
        # every rank sends one message per dissemination round
        return int(ranks.size) * rounds
    if op in ("broadcast", "reduce", "gather", "scatter"):
        # tree/star: every rank but the root sends (or is sent) once
        return int(np.count_nonzero(ranks > 0))
    if op == "allreduce":
        # reduce phase (each non-root folds in once) + tree broadcast
        return 2 * int(np.count_nonzero(ranks > 0))
    if op in ("alltoall", "allgather"):
        # every rank sends to / through every other rank
        return int(ranks.size) * (int(ranks.size) - 1)
    if op == "scan":
        # round at distance d: ranks with r + d < p send
        distances = 2 ** np.arange(rounds)
        return int(np.maximum(p - distances, 0).sum())
    raise CommunicationError(f"unknown collective op {op!r}")


def expected_volume(op: str, p: int, nbytes: float) -> float:
    """Total bytes ``op`` moves at ``p`` ranks (``nbytes`` per message)."""
    return expected_messages(op, p) * float(nbytes)


def allreduce_times(
    network: NetworkModel, ready, nbytes: float
) -> np.ndarray:
    """Each rank's finish time out of :func:`allreduce` entered at
    ``ready[r]`` on a healthy world over ``network``, ``==`` to the
    DES.

    The exact recurrence twin of ``_allreduce_impl``, one numpy step
    per tree level.  Reduce phase: at ``m = 1, 2, 4, ...`` the ranks
    whose lowest set bit is ``m`` send to ``s - m``.  Broadcast phase:
    at ``M`` from the largest power of two below ``p`` down to 1, each
    rank ``r`` with ``r % 2M == 0`` and ``r + M < p`` sends to
    ``r + M``.  A send at ``now`` takes the injection slot at ``start =
    max(slot, now)``, frees it at ``start + nbytes / bandwidth`` and
    lands at ``now + (finish - now) + latency`` (``MPIComm.isend``'s
    float order); a receive posted at ``now`` returns at ``max(now,
    arrival)``.  No rank sends or receives twice within a level, and
    a rank's receives precede its sends level by level, as in the DES.
    """
    now = np.array(ready, dtype=float)
    p = now.size
    slot = np.zeros(p)
    ranks = np.arange(p)

    def send(src: np.ndarray, dst: np.ndarray) -> None:
        lat, bw = network.path_arrays(src, dst)
        t = now[src]
        finish = np.maximum(slot[src], t) + nbytes / bw
        slot[src] = finish
        now[dst] = np.maximum(now[dst], t + (finish - t) + lat)

    mask = 1
    while mask < p:
        senders = ranks[mask::2 * mask]
        send(senders, senders - mask)
        mask *= 2
    mask //= 2
    while mask >= 1:
        senders = ranks[:p - mask:2 * mask]
        send(senders, senders + mask)
        mask //= 2
    return now


_BARRIER_TAG = 0x7FF0
_BCAST_TAG = 0x7FF1
_ALLREDUCE_TAG = 0x7FF2
_ALLTOALL_TAG = 0x7FF3
_ALLGATHER_TAG = 0x7FF4
_REDUCE_TAG = 0x7FF5
_GATHER_TAG = 0x7FF6
_SCATTER_TAG = 0x7FF7
_SCAN_TAG = 0x7FF8


def _barrier_impl(comm: MPIComm) -> Generator[SimEvent, Any, None]:
    """Dissemination barrier: log2(P) rounds of 1-byte exchanges."""
    p, r = comm.size, comm.rank
    if p == 1:
        return
    distance = 1
    round_no = 0
    while distance < p:
        dest = (r + distance) % p
        src = (r - distance) % p
        comm.isend(dest, 1, tag=_BARRIER_TAG + round_no * 16)
        yield comm.irecv(src, tag=_BARRIER_TAG + round_no * 16)
        distance *= 2
        round_no += 1


def _broadcast_impl(
    comm: MPIComm, nbytes: float, root: int = 0, payload: Any = None
) -> Generator[SimEvent, Any, Any]:
    """Binomial-tree broadcast; returns the payload on every rank."""
    p = comm.size
    if p == 1:
        return payload
    # Rank relative to root.
    vrank = (comm.rank - root) % p
    mask = 1
    # Receive phase: wait for the message from the parent.
    if vrank != 0:
        while mask < p:
            if vrank & mask:
                src = (vrank - mask + root) % p
                msg: Message = yield comm.irecv(src, tag=_BCAST_TAG)
                payload = msg.payload
                break
            mask *= 2
        mask //= 2  # children live below the received bit
    else:
        while mask < p:
            mask *= 2
        mask //= 2
    # Send phase: forward to children.
    while mask >= 1:
        if vrank + mask < p and not (vrank & (mask - 1)) and not (vrank & mask):
            dest = (vrank + mask + root) % p
            comm.isend(dest, nbytes, tag=_BCAST_TAG, payload=payload)
        mask //= 2
    return payload


def _allreduce_impl(
    comm: MPIComm, nbytes: float, value: float = 0.0
) -> Generator[SimEvent, Any, float]:
    """Allreduce (sum) of a scalar via binomial-tree reduce to rank 0
    followed by a binomial-tree broadcast; message size ``nbytes``
    models the real vector length being reduced.

    2*ceil(log2 P) rounds — the textbook cost the analytic model in
    :mod:`repro.netmodel.collectives` charges within a factor of two.
    """
    p, r = comm.size, comm.rank
    acc = float(value)
    if p == 1:
        return acc
    # Reduce phase: children fold into parents by clearing bits LSB-first.
    mask = 1
    while mask < p:
        if r & mask:
            comm.isend(r & ~mask, nbytes, tag=_ALLREDUCE_TAG, payload=acc)
            break
        partner = r | mask
        if partner < p:
            msg: Message = yield comm.irecv(partner, tag=_ALLREDUCE_TAG)
            acc += float(msg.payload)
        mask *= 2
    # Broadcast phase reuses the tree broadcast.
    result = yield from _broadcast_impl(comm, nbytes, root=0, payload=acc)
    return float(result)


def _alltoall_impl(
    comm: MPIComm, nbytes_per_pair: float
) -> Generator[SimEvent, Any, None]:
    """Pairwise-exchange all-to-all (timing only, no payloads)."""
    p, r = comm.size, comm.rank
    if p == 1:
        return
    for step in range(1, p):
        dest = (r + step) % p
        src = (r - step) % p
        comm.isend(dest, nbytes_per_pair, tag=_ALLTOALL_TAG + step)
        yield comm.irecv(src, tag=_ALLTOALL_TAG + step)


def _allgather_impl(
    comm: MPIComm, nbytes_per_rank: float, value: Any = None
) -> Generator[SimEvent, Any, list]:
    """Ring allgather; returns the list of every rank's value."""
    p, r = comm.size, comm.rank
    gathered: list = [None] * p
    gathered[r] = value
    if p == 1:
        return gathered
    right = (r + 1) % p
    left = (r - 1) % p
    carry_rank, carry_value = r, value
    for _ in range(p - 1):
        comm.isend(
            right, nbytes_per_rank, tag=_ALLGATHER_TAG,
            payload=(carry_rank, carry_value),
        )
        msg = yield comm.irecv(left, tag=_ALLGATHER_TAG)
        carry_rank, carry_value = msg.payload
        gathered[carry_rank] = carry_value
    return gathered


def _reduce_impl(
    comm: MPIComm, nbytes: float, value: float = 0.0, root: int = 0
) -> Generator[SimEvent, Any, float | None]:
    """Binomial-tree reduction (sum) to ``root``.

    Returns the total on the root, ``None`` elsewhere.
    """
    p = comm.size
    acc = float(value)
    if p == 1:
        return acc
    # Work in root-relative virtual ranks so any root works.
    vrank = (comm.rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = ((vrank & ~mask) + root) % p
            comm.isend(dest, nbytes, tag=_REDUCE_TAG, payload=acc)
            return None
        partner = vrank | mask
        if partner < p:
            msg: Message = yield comm.irecv(
                (partner + root) % p, tag=_REDUCE_TAG
            )
            acc += float(msg.payload)
        mask *= 2
    return acc


def _gather_impl(
    comm: MPIComm, nbytes_per_rank: float, value: Any = None, root: int = 0
) -> Generator[SimEvent, Any, list | None]:
    """Direct gather to ``root`` (each rank one message).

    Returns the rank-ordered list on the root, ``None`` elsewhere.
    """
    p, r = comm.size, comm.rank
    if p == 1:
        return [value]
    if r == root:
        out: list = [None] * p
        out[root] = value
        for _ in range(p - 1):
            msg: Message = yield comm.irecv(tag=_GATHER_TAG)
            out[msg.source] = msg.payload
        return out
    comm.isend(root, nbytes_per_rank, tag=_GATHER_TAG, payload=value)
    return None


def _scatter_impl(
    comm: MPIComm, nbytes_per_rank: float, values: list | None = None,
    root: int = 0,
) -> Generator[SimEvent, Any, Any]:
    """Direct scatter from ``root``; returns this rank's element."""
    p, r = comm.size, comm.rank
    if p == 1:
        if values is None or len(values) != 1:
            raise CommunicationError("scatter needs one value per rank")
        return values[0]
    if r == root:
        if values is None or len(values) != p:
            raise CommunicationError(
                f"scatter root needs {p} values, got "
                f"{0 if values is None else len(values)}"
            )
        for dest in range(p):
            if dest != root:
                comm.isend(dest, nbytes_per_rank, tag=_SCATTER_TAG,
                           payload=values[dest])
        return values[root]
    msg: Message = yield comm.irecv(root, tag=_SCATTER_TAG)
    return msg.payload


def _scan_impl(
    comm: MPIComm, nbytes: float, value: float = 0.0
) -> Generator[SimEvent, Any, float]:
    """Inclusive prefix sum over ranks (Hillis-Steele doubling)."""
    p, r = comm.size, comm.rank
    acc = float(value)
    if p == 1:
        return acc
    distance = 1
    round_no = 0
    while distance < p:
        tag = _SCAN_TAG + round_no
        if r + distance < p:
            comm.isend(r + distance, nbytes, tag=tag, payload=acc)
        if r - distance >= 0:
            msg: Message = yield comm.irecv(r - distance, tag=tag)
            acc += float(msg.payload)
        distance *= 2
        round_no += 1
    return acc

# -- tracing dispatch ---------------------------------------------------------
#
# The public collectives are plain functions returning the underlying
# generator: when tracing is off they add zero generator frames to the
# hot path (``yield from barrier(comm)`` drives ``_barrier_impl``
# directly); when the world holds a tracer, the generator is wrapped
# once so the whole operation appears as one ``collective`` span on
# the rank's main flow (nested collectives — allreduce's broadcast
# phase stays inside the impl, so one operation is one span).


def _traced(obs, op: str, comm: MPIComm, gen, args: dict | None = None):
    handle = obs.begin(comm.rank, "collective", op, comm._sim.now, args=args)
    try:
        result = yield from gen
    finally:
        obs.end(handle, comm._sim.now)
    return result


def barrier(comm: MPIComm) -> Generator[SimEvent, Any, None]:
    """Dissemination barrier: log2(P) rounds of 1-byte exchanges."""
    gen = _barrier_impl(comm)
    obs = comm.world._obs
    return gen if obs is None else _traced(obs, "barrier", comm, gen)


def broadcast(
    comm: MPIComm, nbytes: float, root: int = 0, payload: Any = None
) -> Generator[SimEvent, Any, Any]:
    """Binomial-tree broadcast; returns the payload on every rank."""
    gen = _broadcast_impl(comm, nbytes, root, payload)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "broadcast", comm, gen, {"bytes": nbytes, "root": root})


def allreduce(
    comm: MPIComm, nbytes: float, value: float = 0.0
) -> Generator[SimEvent, Any, float]:
    """Allreduce (sum): binomial-tree reduce + binomial-tree broadcast."""
    gen = _allreduce_impl(comm, nbytes, value)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "allreduce", comm, gen, {"bytes": nbytes})


def alltoall(
    comm: MPIComm, nbytes_per_pair: float
) -> Generator[SimEvent, Any, None]:
    """Pairwise-exchange all-to-all (timing only, no payloads)."""
    gen = _alltoall_impl(comm, nbytes_per_pair)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "alltoall", comm, gen, {"bytes": nbytes_per_pair})


def allgather(
    comm: MPIComm, nbytes_per_rank: float, value: Any = None
) -> Generator[SimEvent, Any, list]:
    """Ring allgather; returns the list of every rank's value."""
    gen = _allgather_impl(comm, nbytes_per_rank, value)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "allgather", comm, gen, {"bytes": nbytes_per_rank})


def reduce(
    comm: MPIComm, nbytes: float, value: float = 0.0, root: int = 0
) -> Generator[SimEvent, Any, float | None]:
    """Binomial-tree reduction (sum) to ``root``."""
    gen = _reduce_impl(comm, nbytes, value, root)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "reduce", comm, gen, {"bytes": nbytes, "root": root})


def gather(
    comm: MPIComm, nbytes_per_rank: float, value: Any = None, root: int = 0
) -> Generator[SimEvent, Any, list | None]:
    """Direct gather to ``root`` (each rank one message)."""
    gen = _gather_impl(comm, nbytes_per_rank, value, root)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "gather", comm, gen, {"bytes": nbytes_per_rank, "root": root})


def scatter(
    comm: MPIComm, nbytes_per_rank: float, values: list | None = None,
    root: int = 0,
) -> Generator[SimEvent, Any, Any]:
    """Direct scatter from ``root``; returns this rank's element."""
    gen = _scatter_impl(comm, nbytes_per_rank, values, root)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "scatter", comm, gen, {"bytes": nbytes_per_rank, "root": root})


def scan(
    comm: MPIComm, nbytes: float, value: float = 0.0
) -> Generator[SimEvent, Any, float]:
    """Inclusive prefix sum over ranks (Hillis-Steele doubling)."""
    gen = _scan_impl(comm, nbytes, value)
    obs = comm.world._obs
    return gen if obs is None else _traced(
        obs, "scan", comm, gen, {"bytes": nbytes})
