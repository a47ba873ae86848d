"""Process/thread placement: pinning, density and CPU stride.

Two of the paper's experiments are *purely* about placement:

* §4.2 "CPU Stride": running HPCC on every 2nd or 4th CPU recovers the
  single-CPU STREAM bandwidth (each FSB is shared by two CPUs) at the
  cost of slightly longer communication paths.
* §4.3 "Pinning": on a NUMA machine, unpinned threads migrate between
  CPUs, losing data locality; the penalty grows with the number of
  OpenMP threads per process and with the total CPU count (Fig. 7).
  Pure-process mode (1 thread/process) is much less affected.

A :class:`Placement` maps MPI ranks (and their OpenMP threads) to
global CPU ids on a :class:`~repro.machine.cluster.Cluster`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.context import current_injector
from repro.machine.cluster import Cluster

__all__ = ["ContentKey", "PinningMode", "Placement", "unpinned_penalty"]


class ContentKey:
    """What a placement's network costs depend on: the cluster value
    and the home (thread-0) CPU of every rank, in rank order.

    Paths, path statistics and the b_eff barrier read nothing else, so
    two placements with equal keys share one route table and one set
    of statistics however they were built (stride, ``cpu_list``,
    spreading, threads per rank).  The hash is computed once: the key
    is probed on every network-model build.
    """

    __slots__ = ("cluster", "cpus", "_hash")

    def __init__(self, cluster: Cluster, cpus: tuple[int, ...]) -> None:
        self.cluster = cluster
        self.cpus = cpus
        self._hash = hash((cluster, cpus))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ContentKey):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.cpus == other.cpus
            and self.cluster == other.cluster
        )

    def __reduce__(self):
        # String hashes differ between processes: rehash on unpickle.
        return ContentKey, (self.cluster, self.cpus)


class PinningMode(enum.Enum):
    """Whether threads are pinned to CPUs (dplace / MPI_DSM_CPULIST /
    system calls — paper §4.3 methods 1-3) or free to migrate."""

    PINNED = "pinned"
    UNPINNED = "unpinned"


@dataclass(frozen=True)
class Placement:
    """A layout of ``n_ranks`` MPI processes x ``threads_per_rank``
    OpenMP threads onto a cluster.

    ``stride`` spaces consecutive *CPU slots* (§4.2: stride 2 or 4
    dedicates a full FSB, or a full FSB pair, to each active CPU).
    Ranks fill nodes in order; a rank's threads occupy consecutive
    slots after the rank's first CPU, so hybrid layouts keep each
    process's threads close together (as dplace does).
    """

    cluster: Cluster
    n_ranks: int
    threads_per_rank: int = 1
    stride: int = 1
    pinning: PinningMode = PinningMode.PINNED
    #: Distribute ranks round-robin across the cluster's nodes instead
    #: of filling node 0 first — how multi-box jobs are actually laid
    #: out in the paper's §4.6 experiments (every node carries an
    #: equal share even when the job is smaller than the machine).
    spread_nodes: bool = False
    #: Explicit CPU list (the §4.3 ``MPI_DSM_CPULIST`` / dplace
    #: mechanism): slot ``rank * threads + thread`` pins to
    #: ``cpu_list[slot]``.  Overrides stride and spreading.
    cpu_list: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ConfigurationError(f"need >= 1 rank, got {self.n_ranks}")
        if self.threads_per_rank < 1:
            raise ConfigurationError(
                f"need >= 1 thread per rank, got {self.threads_per_rank}"
            )
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")
        if self.cpu_list is not None:
            if len(self.cpu_list) != self.total_cpus:
                raise ConfigurationError(
                    f"cpu_list of {len(self.cpu_list)} entries for "
                    f"{self.total_cpus} slots"
                )
            if len(set(self.cpu_list)) != len(self.cpu_list):
                raise ConfigurationError("cpu_list pins two slots to one CPU")
            bad = [c for c in self.cpu_list if not 0 <= c < self.cluster.total_cpus]
            if bad:
                raise ConfigurationError(f"cpu_list entries out of range: {bad}")
            return
        needed = self.total_cpus_used
        if needed > self.cluster.total_cpus:
            raise ConfigurationError(
                f"{self.n_ranks} ranks x {self.threads_per_rank} threads "
                f"x stride {self.stride} needs {needed} CPU slots but the "
                f"cluster has {self.cluster.total_cpus}"
            )

    # -- content ----------------------------------------------------------------

    @property
    def content_key(self) -> ContentKey:
        """The :class:`ContentKey` the cost-model memos share on.

        Built once per instance and memoized on it (a frozen
        dataclass, hence ``object.__setattr__`` — the same idiom as
        ``Cluster._geometry``).
        """
        try:
            return self.__dict__["_content_key"]
        except KeyError:
            key = ContentKey(self.cluster, self._home_cpus())
            object.__setattr__(self, "_content_key", key)
            return key

    def _home_cpus(self) -> tuple[int, ...]:
        """``cpu_of(rank)`` for every rank, in rank order, in closed
        form (one slot per rank every ``threads_per_rank * stride``
        CPUs; spread ranks deal out over the nodes)."""
        t = self.threads_per_rank
        if self.cpu_list is not None:
            return self.cpu_list[::t]
        step = t * self.stride
        n_nodes = len(self.cluster.nodes)
        if not (self.spread_nodes and n_nodes > 1):
            return tuple(range(0, self.n_ranks * step, step))
        per_node = self.cluster.cpus_per_node
        if (self.n_ranks - 1) // n_nodes * step >= per_node:
            # The first rank that does not fit (it lands on node 0), as
            # cpu_of reports it.
            rank = -(-per_node // step) * n_nodes
            raise ConfigurationError(
                f"rank {rank} thread 0 does not fit on node 0"
            )
        return tuple(
            (r % n_nodes) * per_node + (r // n_nodes) * step
            for r in range(self.n_ranks)
        )

    # -- geometry -------------------------------------------------------------

    @property
    def total_cpus(self) -> int:
        """CPUs actually executing (ranks x threads)."""
        return self.n_ranks * self.threads_per_rank

    @property
    def total_cpus_used(self) -> int:
        """CPU slots consumed including stride gaps."""
        return (self.total_cpus - 1) * self.stride + 1

    def cpu_of(self, rank: int, thread: int = 0) -> int:
        """Global CPU id of ``thread`` of ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ConfigurationError(f"rank {rank} outside 0..{self.n_ranks - 1}")
        if not 0 <= thread < self.threads_per_rank:
            raise ConfigurationError(
                f"thread {thread} outside 0..{self.threads_per_rank - 1}"
            )
        if self.cpu_list is not None:
            return self.cpu_list[rank * self.threads_per_rank + thread]
        if self.spread_nodes and len(self.cluster.nodes) > 1:
            # Whole ranks round-robin over nodes; a rank's threads stay
            # together on its node.
            n_nodes = len(self.cluster.nodes)
            node = rank % n_nodes
            rank_on_node = rank // n_nodes
            slot_on_node = rank_on_node * self.threads_per_rank + thread
            cpu = node * self.cluster.cpus_per_node + slot_on_node * self.stride
            if slot_on_node * self.stride >= self.cluster.cpus_per_node:
                raise ConfigurationError(
                    f"rank {rank} thread {thread} does not fit on node {node}"
                )
            return cpu
        slot = rank * self.threads_per_rank + thread
        return slot * self.stride

    def cpus(self) -> list[int]:
        """All active global CPU ids, rank-major."""
        return [
            self.cpu_of(r, t)
            for r in range(self.n_ranks)
            for t in range(self.threads_per_rank)
        ]

    # -- derived performance inputs --------------------------------------------

    def active_per_fsb(self) -> int:
        """How many active CPUs share each in-use FSB (worst case).

        Determines per-CPU STREAM bandwidth: stride >= cpus_per_fsb
        gives each active CPU a private bus (§4.2).
        """
        per_fsb = self.cluster.nodes[0].fsb.cpus_per_fsb
        if self.cpu_list is not None:
            from collections import Counter

            counts = Counter(
                (self.cluster.node_of(c), self.cluster.local_cpu(c) // per_fsb)
                for c in self.cpu_list
            )
            return max(counts.values())
        if self.stride >= per_fsb:
            return 1
        return min(per_fsb, max(1, per_fsb // self.stride))

    def ranks_per_node(self) -> int:
        """MPI ranks resident on the fullest node."""
        cpus_per_node = self.cluster.cpus_per_node
        slots_per_rank = self.threads_per_rank * self.stride
        return max(1, min(self.n_ranks, cpus_per_node // slots_per_rank))

    def n_nodes_used(self) -> int:
        """Number of distinct nodes hosting at least one active CPU."""
        if self.cpu_list is not None:
            return len({self.cluster.node_of(c) for c in self.cpu_list})
        if self.spread_nodes:
            return min(len(self.cluster.nodes), self.n_ranks)
        last_cpu = self.cpu_of(self.n_ranks - 1, self.threads_per_rank - 1)
        return self.cluster.node_of(last_cpu) + 1

    def uses_boot_cpuset(self) -> bool:
        """Does this layout occupy *every* CPU of some node — i.e.
        also the CPUs reserved for system software (the boot cpuset)?

        §4.6.2: "the performance of 512-processor runs in a single
        node dropped by 10-15%, primarily because these runs also used
        the CPUs that were allocated for systems software (called boot
        cpuset) ... Reducing the number of CPUs to 508 improves the
        BT-MZ performance."
        """
        per_node = self.cluster.cpus_per_node
        if self.spread_nodes and len(self.cluster.nodes) > 1:
            n_nodes = len(self.cluster.nodes)
            ranks_on_node0 = (self.n_ranks + n_nodes - 1) // n_nodes
            used = ((ranks_on_node0 * self.threads_per_rank - 1) * self.stride + 1
                    if ranks_on_node0 else 0)
        else:
            used = min(self.total_cpus_used, per_node)
        return used >= per_node

    def boot_cpuset_penalty(self) -> float:
        """Interference multiplier for occupying the boot cpuset.

        The *condition* (full-node occupancy, :meth:`uses_boot_cpuset`)
        is this placement's geometry; the *penalty* is a property of
        the degraded machine the paper measured, so it comes from the
        ambient fault context (:class:`repro.faults.BootCpuset`) —
        a healthy machine pays nothing.
        """
        if not self.uses_boot_cpuset():
            return 1.0
        injector = current_injector()
        if injector is None:
            return 1.0
        return injector.boot_cpuset_penalty()

    def locality_penalty(self) -> float:
        """Multiplier (>= 1) on computation time from thread migration.

        Pinned layouts pay nothing.  Unpinned layouts lose data
        locality: a migrated thread's memory stays on its original
        FSB, so accesses become remote.  The probability a thread has
        migrated away from its data grows with the pool it can wander
        over (the CPUs of its node) and with threads per process
        (more threads -> more forced context switches -> more
        migration).  Calibrated to Fig. 7: at 64 CPUs the no-pinning
        penalty is mild for 1 thread/process and roughly 2-4x for
        many threads; at 256 CPUs it is more profound.
        """
        if self.pinning is PinningMode.PINNED:
            return 1.0
        threads = self.threads_per_rank
        total = self.total_cpus
        # Fraction of accesses that have become remote.
        migration = 1.0 - 1.0 / (1.0 + 0.35 * math.log2(max(2, threads)))
        spread = 1.0 + 0.18 * math.log2(max(2, total))
        remote_access_cost = 2.2  # remote:local memory latency ratio
        return 1.0 + migration * spread * (remote_access_cost - 1.0)


def unpinned_penalty(threads_per_rank: int, total_cpus: int) -> float:
    """Convenience wrapper: the §4.3 no-pinning slowdown factor."""
    # Mirrors Placement.locality_penalty without needing a cluster.
    migration = 1.0 - 1.0 / (1.0 + 0.35 * math.log2(max(2, threads_per_rank)))
    spread = 1.0 + 0.18 * math.log2(max(2, total_cpus))
    return 1.0 + migration * spread * 1.2
