"""Hybrid MPI+OpenMP execution model for the multi-zone benchmarks.

Per time step, each MPI process:

1. computes its bin of zones, its OpenMP threads splitting the work
   with a thread-efficiency curve that is strong at two threads and
   decays beyond (Fig. 9's right panel: "except for two threads,
   OpenMP performance drops quickly as the number of threads
   increases");
2. exchanges zone boundary data with the processes owning neighbor
   zones (volume from the zone geometry, priced by the machine path
   model, with cross-node contention on multi-box runs);
3. synchronizes (a barrier-equivalent per step).

Load imbalance comes straight from the bin-packing assignment: BT-MZ's
~20x zone-size spread makes threads *necessary* at high CPU counts
("as the number of CPUs increases, OpenMP threads may be required to
get better load balance", §4.6.2); SP-MZ is balanced exactly when the
zone count divides the process count (the 768/1536-CPU dips in
Fig. 11).

The §4.6.2 SP-MZ InfiniBand anomaly (released MPT runtime 40% slower
at 256 CPUs, recovering at larger counts, absent with the beta
library) is carried as an explicit empirical overhead factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.context import current_injector
from repro.machine.compilers import Compiler, compiler_factor
from repro.machine.infiniband import MPTVersion
from repro.machine.placement import Placement
from repro.memo import memo
from repro.netmodel.collectives import CollectiveModel
from repro.npb.loadbalance import Assignment, bin_pack
from repro.npb.multizone import MZProblem, mz_problem
from repro.units import to_gflops

__all__ = ["MZTimingModel", "thread_efficiency", "mz_gflops_per_cpu"]

#: Sustained fraction of peak for the zone solvers on cache-resident
#: working sets (BT-MZ's dense block solves run hotter than SP-MZ's).
_BASE_EFF = {"bt-mz": 0.16, "sp-mz": 0.13}

#: Bytes exchanged per boundary point per step: 5 variables, float64,
#: two ghost layers.
_BOUNDARY_BYTES_PER_POINT = 5 * 8 * 2


def thread_efficiency(threads: int) -> float:
    """Parallel efficiency of the zone-level OpenMP loops.

    Calibrated to Fig. 9: near-perfect at 2 threads, decaying beyond
    (loop-level parallelism hits NUMA traffic and serial sections).
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1: {threads}")
    if threads == 1:
        return 1.0
    return 1.0 / (1.0 + 0.11 * (threads - 1) ** 1.25)


@memo(maxsize=128)
def _lpt_assignment(benchmark: str, cls: str, n_ranks: int) -> Assignment:
    """The LPT zone-to-process assignment of one problem (memoized:
    every placement of a sweep with this rank count shares it).

    The weights are ``float(zone.points)`` in zone order, taken from
    one outer product of the 1D zone sizes (exact integer products)
    instead of from the :class:`~repro.npb.multizone.Zone` objects.
    """
    # Imported here: importing the timing model must not pay for NumPy.
    import numpy as np

    problem = mz_problem(benchmark, cls)
    points = np.outer(problem.ys, problem.xs) * problem.spec.agg_z
    return bin_pack(points.ravel().astype(np.float64).tolist(), n_ranks)


@dataclass
class MZTimingModel:
    """Predicted per-step timing of BT-MZ/SP-MZ on a placement."""

    benchmark: str
    cls: str
    placement: Placement
    compiler: Compiler = Compiler.V7_1

    def __post_init__(self) -> None:
        self.problem: MZProblem = mz_problem(self.benchmark, self.cls)
        if self.placement.n_ranks > self.problem.spec.n_zones:
            raise ConfigurationError(
                f"{self.placement.n_ranks} MPI processes exceed the "
                f"{self.problem.spec.n_zones} zones of class {self.cls} "
                "(each process needs at least one zone)"
            )
        # Physical capacity: the problem must fit the participating
        # nodes' memory (Table 1: ~1 TB per node).
        nodes_used = self.placement.n_nodes_used()
        available = sum(
            self.placement.cluster.nodes[i].memory_bytes
            for i in range(nodes_used)
        )
        if self.problem.memory_bytes > available:
            raise ConfigurationError(
                f"class {self.cls} needs "
                f"{self.problem.memory_bytes / 1e12:.1f} TB but the "
                f"{nodes_used} participating node(s) hold "
                f"{available / 1e12:.1f} TB; spread over more nodes"
            )
        self.assignment: Assignment = _lpt_assignment(
            self.benchmark, self.cls, self.placement.n_ranks
        )
        self._collectives = CollectiveModel(self.placement)

    # -- components -----------------------------------------------------------

    def _node(self):
        return self.placement.cluster.nodes[0]

    def compute_time_per_step(self) -> float:
        """Zone computation of the most loaded process, threads split
        the zone loop."""
        node = self._node()
        threads = self.placement.threads_per_rank
        per_point = 2500.0 if self.benchmark == "bt-mz" else 900.0
        code = "bt" if self.benchmark == "bt-mz" else "sp"
        cf = compiler_factor(self.compiler, code, self.placement.total_cpus)
        eff = _BASE_EFF[self.benchmark] * cf
        rate = node.processor.peak_flops * eff
        flops_max_bin = per_point * self.assignment.max_load
        host_rate = rate * threads * thread_efficiency(threads)
        if node.accelerator is None:
            t = flops_max_bin / host_rate
        else:
            # Machine-zoo accelerator offload (Amdahl split): the
            # offloadable fraction of the solver runs at each rank's
            # share of the node's sustained device rate, the remainder
            # stays on the host threads.  Columbia nodes carry no
            # accelerator and keep the exact expression above.
            accel = node.accelerator
            ranks_per_node = math.ceil(
                self.placement.n_ranks / self.placement.n_nodes_used()
            )
            accel_rate = accel.sustained_flops / ranks_per_node
            f = accel.offload_fraction
            t = flops_max_bin * ((1.0 - f) / host_rate + f / accel_rate)
        penalty = (
            self.placement.locality_penalty()
            * self.placement.boot_cpuset_penalty()
        )
        return t * penalty

    def comm_time_per_step(self) -> float:
        """Boundary exchange + per-step synchronization (+ anomaly)."""
        p = self.placement.n_ranks
        if p == 1:
            return 0.0
        # Boundary volume of the average process; the fraction leaving
        # the process shrinks as each process owns more zones
        # (neighbors increasingly in-bin).
        zones_per_rank = self.problem.spec.n_zones / p
        remote_fraction = min(1.0, 1.2 / math.sqrt(zones_per_rank))
        boundary_points = self.problem.total_boundary_points / p
        volume = boundary_points * _BOUNDARY_BYTES_PER_POINT * remote_fraction
        coll = self._collectives
        comm = coll.halo_exchange(volume / 4.0, 4) + coll.allreduce(8)
        return comm + self._mpt_anomaly_time()

    def _mpt_anomaly_time(self) -> float:
        """§4.6.2: SP-MZ over InfiniBand with the released MPT library
        (mpt1.11r) ran 40% slower at 256 CPUs, improving as CPU count
        grows; absent with the beta (mpt1.11b) and for BT-MZ.  The
        overhead itself is a fault (:class:`repro.faults.MptAnomaly`,
        injected by the §4.6.2 experiments), since the paper itself had
        not found the root cause ("We are actively working with SGI
        engineers to find the true cause of the anomaly"); the gating
        below says *where* the released runtime's bug bites."""
        injector = current_injector()
        anomaly = None if injector is None else injector.mpt_anomaly()
        if anomaly is None:
            return 0.0
        cluster = self.placement.cluster
        if (
            self.benchmark == "sp-mz"
            and self.placement.n_nodes_used() > 1
            and cluster.fabric == "infiniband"
            and cluster.mpt is MPTVersion.MPT_1_11R
        ):
            excess = anomaly.step_excess(self.placement.total_cpus)
            return excess * self.compute_time_per_step()
        return 0.0

    # -- results ----------------------------------------------------------------

    def total_time_per_step(self) -> float:
        return self.compute_time_per_step() + self.comm_time_per_step()

    def gflops_per_cpu(self) -> float:
        """Per-CPU rate (top row of Fig. 11, Fig. 9)."""
        per_step = self.problem.flops_per_step
        return to_gflops(
            per_step / self.placement.total_cpus / self.total_time_per_step()
        )

    def total_gflops(self) -> float:
        """Aggregate rate (bottom row of Fig. 11)."""
        return self.gflops_per_cpu() * self.placement.total_cpus

    def imbalance(self) -> float:
        """max/mean process load from the bin-packing."""
        return self.assignment.imbalance


def mz_gflops_per_cpu(
    benchmark: str,
    cls: str,
    placement: Placement,
    compiler: Compiler = Compiler.V7_1,
) -> float:
    """Convenience wrapper around :class:`MZTimingModel`."""
    return MZTimingModel(benchmark, cls, placement, compiler).gflops_per_cpu()
