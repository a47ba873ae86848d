"""OVERFLOW-D rotor-wake performance model (paper §3.5, §4.1.4, §4.6.4).

The hybrid MPI+OpenMP OVERFLOW-D groups the 1679 rotor-system blocks
with the bin-packing grouping, assigns one group per MPI process, and
exchanges inter-group boundary data with asynchronous MPI every step
("an all-to-all communication pattern every time step").

Model components (constants calibrated to §4.1.4's efficiency
sentences — see ``repro.core.calibration``):

* **compute** — per-point flop cost plus a block-sweep memory term:
  the mean block's working set (~7 MB) sits *between* the 6 MB and
  9 MB L3 sizes, which is precisely why "the reduction in the BX2b
  computation time can be attributed to its larger L3 cache";
* **imbalance** — max/mean group load from actually grouping the
  synthetic rotor system; with 508 processes and only 1679 blocks the
  heavy size tail defeats any grouping (§4.1.4);
* **threads** — the grid-loop OpenMP threading is bandwidth-hungry, so
  thread efficiency is fabric-dependent: useful on NUMAlink4, nearly
  useless on the 3700.  Table 3's "best combination of processes and
  threads" therefore lands on hybrid layouts on the BX2b and pure MPI
  on the 3700;
* **communication** — fringe gather/scatter transfers over the loaded
  fabric plus a per-partner progress/poll term that grows with the
  process count (the §4.1.4 "insufficient computational work per
  processor ... compared to the communication overhead").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.apps.overset.grids import OversetSystem, rotor_system
from repro.apps.overset.grouping import group_blocks
from repro.errors import ConfigurationError
from repro.machine.cache import miss_fraction
from repro.machine.cluster import Cluster, single_node
from repro.machine.compilers import Compiler, compiler_factor
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.netmodel.contention import cross_node_flow_factor

__all__ = ["OverflowModel", "StepTime", "overflow_thread_efficiency"]

#: Flop per grid point per time step (implicit RHS + LU-SGS sweeps).
FLOPS_PER_POINT = 5000.0
#: Sustained fraction of peak for the flop part.
COMPUTE_EFF = 0.10
#: DRAM bytes per point per step charged at the block-sweep miss rate.
TRAFFIC_PER_POINT = 30_000.0
#: Working-set bytes per point of a block sweep (q, rhs, metrics,
#: solver workspace) — puts the mean block's window at ~7 MB.
WS_PER_POINT = 160.0
#: Fringe data per surface point per exchange (5 variables, 2 layers).
BOUNDARY_BYTES_PER_POINT = 5 * 8 * 2
#: Fringe exchanges per physical step (dual-time sub-iterations x
#: both transfer directions).
EXCHANGES_PER_STEP = 60
#: Efficiency of fringe gather/scatter relative to streaming fabric
#: bandwidth (irregular per-point interpolation traffic).
FRINGE_EFF = 0.13
#: Per-partner progress/polling cost, expressed as equivalent bytes
#: through the loaded fabric (MPI_Waitall over p async requests).
POLL_BYTES_PER_PARTNER = 4.0e6
#: Fraction of compute behind which InfiniBand's offloaded RDMA
#: transfers can hide (OVERFLOW-D posts asynchronous sends, §3.5).
IB_OVERLAP_FRACTION = 0.1
#: Fraction of the offloaded transfer the IB comm *timer* still sees.
IB_TIMER_FRACTION = 0.3
#: CPU cycles the InfiniBand MPI progress engine steals from
#: computation on multi-node runs — the source of Table 6's ~10%
#: NUMAlink4 advantage in *total* execution time.
IB_PROGRESS_OVERHEAD = 0.12


def overflow_thread_efficiency(node, threads: int) -> float:
    """Grid-loop OpenMP efficiency, fabric dependent.

    The multi-threaded grid loop streams whole blocks through the
    NUMAlink; on NUMAlink4 two threads run at ~80% efficiency, on the
    3700's NUMAlink3 threads are hardly worth their CPUs — which is
    why the 3700's best Table 3 combinations are pure MPI.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1: {threads}")
    if threads == 1:
        return 1.0
    base = 0.80 if node.interconnect.plane_factor >= 1.0 else 0.45
    return base ** math.log2(threads)


@dataclass(frozen=True)
class StepTime:
    """Per-step timing, Table 3/6 style."""

    comm: float
    exec: float  # total execution time per step (includes comm)
    ranks: int
    threads: int

    @property
    def compute(self) -> float:
        return self.exec - self.comm


@dataclass
class OverflowModel:
    """Per-time-step timing of the OVERFLOW-D rotor case."""

    cluster: Cluster = field(default_factory=lambda: single_node(NodeType.BX2B))
    compiler: Compiler = Compiler.V8_1  # Tables 3/6 use the 8.1 compiler
    system: OversetSystem = field(default_factory=rotor_system)
    #: Compute the remote boundary fraction from the actual overlap
    #: graph (exact halo accounting) instead of the calibrated closed
    #: form.  Slower and, on the synthetic geometry, more pessimistic
    #: (see ``repro.apps.overset.halo``).
    exact_halos: bool = False

    def __post_init__(self) -> None:
        self._halo_cache: dict[int, float] = {}

    def _remote_fraction(self, ranks: int) -> float:
        if not self.exact_halos:
            blocks_per_group = self.system.n_blocks / ranks
            return min(1.0, 1.35 / blocks_per_group)
        if ranks not in self._halo_cache:
            from repro.apps.overset.halo import halo_volumes

            volumes = halo_volumes(self.system, self._grouping(ranks))
            self._halo_cache[ranks] = volumes.remote_fraction
        return self._halo_cache[ranks]

    # -- pieces -----------------------------------------------------------------

    def _grouping(self, n_groups: int):
        return group_blocks(self.system, n_groups, strategy="binpack")

    def per_point_time(self, node) -> float:
        """Seconds per grid point per step on one CPU."""
        cf = compiler_factor(self.compiler, "overflow", self.cluster.total_cpus)
        flop_term = FLOPS_PER_POINT / (node.processor.peak_flops * COMPUTE_EFF * cf)
        mean_block = self.system.total_points / self.system.n_blocks
        ws = WS_PER_POINT * mean_block
        miss = miss_fraction(ws, node.processor.l3_bytes)
        mem_term = TRAFFIC_PER_POINT * miss / node.fsb.per_cpu_bandwidth(2)
        return flop_term + mem_term

    def serial_step_time(self) -> float:
        """Single-CPU per-step baseline (for efficiency accounting)."""
        return self.system.total_points * self.per_point_time(self.cluster.nodes[0])

    def step_time(self, ranks: int, threads: int = 1,
                  spread_nodes: bool | None = None) -> StepTime:
        """Per-step comm and total execution time for one layout."""
        if ranks < 1 or threads < 1:
            raise ConfigurationError(f"bad layout {ranks}x{threads}")
        if ranks > self.system.n_blocks:
            raise ConfigurationError(
                f"{ranks} MPI processes exceed {self.system.n_blocks} blocks"
            )
        if spread_nodes is None:
            spread_nodes = len(self.cluster.nodes) > 1
        placement = Placement(
            self.cluster, n_ranks=ranks, threads_per_rank=threads,
            spread_nodes=spread_nodes,
        )
        node = self.cluster.nodes[0]
        grouping = self._grouping(ranks)
        compute = (
            grouping.max_load
            * self.per_point_time(node)
            / (threads * overflow_thread_efficiency(node, threads))
            * placement.boot_cpuset_penalty()
            * placement.locality_penalty()
        )
        if self.cluster.fabric == "infiniband" and placement.n_nodes_used() > 1:
            compute *= 1.0 + IB_PROGRESS_OVERHEAD
        comm, exec_extra = self._comm_time(placement, compute)
        return StepTime(
            comm=comm, exec=compute + exec_extra, ranks=ranks, threads=threads
        )

    def _comm_time(self, placement: Placement, compute: float) -> tuple[float, float]:
        """(reported comm time, comm time added to execution).

        On NUMAlink, MPT sends are inline shared-memory copies: the
        comm timer sees the full transfer and all of it lands on the
        critical path.  On InfiniBand, sends are offloaded RDMA: most
        of the cross-node transfer overlaps with computation (§3.5's
        asynchronous calls) and the timer only sees the posting plus
        any exposed remainder — which is how Table 6 can show *lower*
        communication times but ~10% *higher* execution times on IB.
        """
        p = placement.n_ranks
        if p == 1:
            return 0.0, 0.0
        node = self.cluster.nodes[0]
        loaded_local = node.interconnect.loaded_bandwidth_per_cpu(node.brick.cpus)
        # Progress/polling over p async partners: local SHUB work.
        poll = p * POLL_BYTES_PER_PARTNER / loaded_local
        # Fringe transfers: the connectivity-aware grouping keeps most
        # donor pairs in-group at small counts.
        remote_fraction = self._remote_fraction(p)
        volume_per_rank = (
            self.system.total_surface_points
            * BOUNDARY_BYTES_PER_POINT
            * EXCHANGES_PER_STEP
            * remote_fraction
            / p
        )
        n_nodes = placement.n_nodes_used()
        inter_share = 1.0 - 1.0 / n_nodes if n_nodes > 1 else 0.0
        transfer_local = (
            volume_per_rank * (1.0 - inter_share) / (loaded_local * FRINGE_EFF)
        )
        if inter_share == 0.0:
            return poll + transfer_local, poll + transfer_local
        cross = cross_node_flow_factor(placement, concurrent_fraction=0.5)
        if self.cluster.fabric == "infiniband":
            ib = self.cluster.infiniband
            _, bw_inter = ib.point_to_point(len(self.cluster.nodes))
            bw_inter /= cross
            transfer_inter = volume_per_rank * inter_share / (bw_inter * FRINGE_EFF)
            exposed = max(0.0, transfer_inter - IB_OVERLAP_FRACTION * compute)
            reported = poll + transfer_local + IB_TIMER_FRACTION * transfer_inter
            return reported, poll + transfer_local + exposed
        bw_inter = loaded_local / cross
        transfer_inter = volume_per_rank * inter_share / (bw_inter * FRINGE_EFF)
        comm = poll + transfer_local + transfer_inter
        return comm, comm

    # -- tables -------------------------------------------------------------------

    def best_step_time(self, cpus: int, thread_options=(1, 2, 4)) -> StepTime:
        """Best process/thread combination at ``cpus`` total CPUs
        (what Table 3 and Table 6 report)."""
        best: StepTime | None = None
        for t in thread_options:
            if cpus % t != 0:
                continue
            ranks = cpus // t
            if ranks < 1 or ranks > self.system.n_blocks:
                continue
            if ranks * t > self.cluster.total_cpus:
                continue
            st = self.step_time(ranks, t)
            if best is None or st.exec < best.exec:
                best = st
        if best is None:
            raise ConfigurationError(f"no feasible layout for {cpus} CPUs")
        return best

    def reported(self, cpus: int) -> StepTime:
        """Alias of :meth:`best_step_time` (the fabric-specific timer
        accounting now lives inside the step model)."""
        return self.best_step_time(cpus)

    def efficiency(self, cpus: int) -> float:
        """Parallel efficiency vs the single-CPU baseline (§4.1.4)."""
        return self.serial_step_time() / (cpus * self.best_step_time(cpus).exec)
