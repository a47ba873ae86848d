"""Ablation experiments — isolating the design choices the paper's
hardware comparisons entangle.

The BX2b differs from the BX2a in *both* clock (1.6 vs 1.5 GHz) and L3
(9 vs 6 MB); the paper infers which effect dominates per benchmark
from indirect evidence.  The simulator can simply build the two
hypothetical intermediate machines (1.5 GHz/9 MB and 1.6 GHz/6 MB) and
measure — via :func:`repro.machine.cluster.custom_bx2`, the same
builder the Scenario layer's ``MachineSpec`` overrides use.  Further
ablations cover the OVERFLOW-D grouping strategy, the InfiniBand
per-node card count, and the §5 future-work SHMEM port.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = [
    "cache_scenarios",
    "clock_scenarios",
    "grouping_scenarios",
    "ibcards_scenarios",
    "shmem_scenarios",
]


@workload("ablation.variant_pair", fast="exact")
def _variant_pair_cell(benchmark: str, cpus: int, clock_a: float, l3_a: int,
                       clock_b: float, l3_b: int,
                       gain_digits: int = 2) -> list[tuple]:
    """NPB rate on two hypothetical BX2 variants, plus the gain."""
    from repro.machine.cluster import custom_bx2
    from repro.machine.placement import Placement
    from repro.npb.timing import npb_gflops_per_cpu

    a = custom_bx2(clock_a, l3_a)
    b = custom_bx2(clock_b, l3_b)
    ra = npb_gflops_per_cpu(benchmark, "B", Placement(a, n_ranks=cpus))
    rb = npb_gflops_per_cpu(benchmark, "B", Placement(b, n_ranks=cpus))
    return [(benchmark, cpus, round(ra, 3), round(rb, 3),
             round(rb / ra, gain_digits))]


def cache_scenarios(fast: bool = False):
    return sweep(
        "ablation.variant_pair",
        {
            "benchmark": ("mg", "bt", "ft", "cg"),
            "cpus": (64,) if fast else (16, 64, 256),
        },
        base={"clock_a": 1.5, "l3_a": 6, "clock_b": 1.5, "l3_b": 9},
    )


# L3 6 MB -> 9 MB at fixed 1.5 GHz: the pure cache effect.
experiment(
    "ablation_cache",
    anchor="ablation",
    title="L3 size at fixed clock",
    heading="Ablation: L3 size at fixed 1.5 GHz clock (NPB MPI, class B)",
    columns=("benchmark", "cpus", "l3_6mb", "l3_9mb", "cache_gain"),
    scenarios=cache_scenarios,
)


def clock_scenarios(fast: bool = False):
    return sweep(
        "ablation.variant_pair",
        {
            "benchmark": ("mg", "bt", "ft", "cg"),
            "cpus": (64,) if fast else (16, 64, 256),
        },
        base={"clock_a": 1.5, "l3_a": 6, "clock_b": 1.6, "l3_b": 6,
              "gain_digits": 3},
    )


# 1.5 -> 1.6 GHz at fixed 6 MB L3: the pure clock effect.
experiment(
    "ablation_clock",
    anchor="ablation",
    title="Clock at fixed L3 size",
    heading="Ablation: clock speed at fixed 6 MB L3 (NPB MPI, class B)",
    columns=("benchmark", "cpus", "ghz_15", "ghz_16", "clock_gain"),
    scenarios=clock_scenarios,
)


@workload("ablation.grouping", fast="exact")
def _grouping_cell(groups: int, scale: float) -> list[tuple]:
    from repro.apps.overset.grids import rotor_system
    from repro.apps.overset.grouping import group_blocks

    system = rotor_system(scale=scale)
    conn = group_blocks(system, groups, "binpack-connectivity")
    lpt = group_blocks(system, groups, "binpack")
    rr = group_blocks(system, groups, "round-robin")
    return [(groups, round(conn.imbalance, 2), round(lpt.imbalance, 2),
             round(rr.imbalance, 2))]


def grouping_scenarios(fast: bool = False):
    return sweep(
        "ablation.grouping",
        {"groups": (64, 256) if fast else (36, 64, 128, 256, 508)},
        base={"scale": 0.05 if fast else 1.0},
    )


# OVERFLOW-D grouping strategies: the paper's bin-packing with
# connectivity test vs pure LPT vs round-robin (§3.5 / ref [5]).
experiment(
    "ablation_grouping",
    anchor="ablation",
    title="Grouping strategies vs imbalance",
    heading="Ablation: OVERFLOW-D grouping strategy vs load imbalance",
    columns=("groups", "binpack_conn", "binpack", "round_robin"),
    scenarios=grouping_scenarios,
    notes="Values are max/mean group load (1.0 = perfect).",
)


@workload("ablation.ibcards", fast="exact")
def _ibcards_cell(nodes: int) -> list[tuple]:
    from repro.machine.infiniband import max_mpi_procs_per_node

    caps = {c: max_mpi_procs_per_node(nodes, cards_per_node=c)
            for c in (4, 8, 16)}
    return [(nodes, caps[4], caps[8], caps[16], caps[8] >= 512)]


def ibcards_scenarios(fast: bool = False):
    return sweep("ablation.ibcards", {"nodes": (2, 3, 4, 6, 8, 12, 20)})


# The §2 InfiniBand connection limit vs per-node card count.
experiment(
    "ablation_ibcards",
    anchor="ablation",
    title="IB card count vs MPI process cap",
    heading="Ablation: InfiniBand cards per node vs pure-MPI process cap",
    columns=("nodes", "cards_4", "cards_8", "cards_16", "full_node_ok_with_8"),
    scenarios=ibcards_scenarios,
    notes="Cap = sqrt(cards x 64K / (nodes-1)) processes per node "
          "(§2); 'ok' = a full 512-CPU node can run pure MPI.",
)


@workload("ablation.shmem", fast="exact")
def _shmem_cell(message_bytes: int) -> list[tuple]:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.netmodel.costs import NetworkModel
    from repro.shmem import ShmemModel
    from repro.units import to_usec

    pl = Placement(single_node(NodeType.BX2B), n_ranks=64)
    net = NetworkModel(pl)
    shmem = ShmemModel(pl)
    t_mpi = net.message_time(0, 37, message_bytes)
    t_shm = shmem.put_time(0, 37, message_bytes)
    return [(message_bytes, round(to_usec(t_mpi), 2),
             round(to_usec(t_shm), 2), round(t_mpi / t_shm, 2))]


def shmem_scenarios(fast: bool = False):
    sizes = (1024, 65536) if fast else (64, 1024, 8192, 65536, 1048576)
    return sweep("ablation.shmem", {"message_bytes": sizes})


# §5 future work: port INS3D's exchanges to SHMEM. Compares MPI vs
# SHMEM one-sided transfer time for the typical overset boundary
# message sizes, on a BX2b node.
experiment(
    "ablation_shmem",
    anchor="§5",
    title="§5 future work: SHMEM vs MPI",
    heading="Ablation (paper §5 future work): MPI vs SHMEM transfer times (BX2b)",
    columns=("message_bytes", "mpi_us", "shmem_put_us", "shmem_gain"),
    scenarios=shmem_scenarios,
)
