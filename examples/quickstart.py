#!/usr/bin/env python
"""Quickstart: build the simulated Columbia and reproduce a result.

Run:  python examples/quickstart.py

Walks through the three layers of the library:

1. the machine model (nodes, fabrics, placements);
2. a workload executed against it (simulated MPI ping-pong, a real
   NPB kernel run);
3. the characterization harness (a full paper table by id).
"""

from repro.api import (
    NodeType,
    Placement,
    list_experiments,
    multinode,
    run_experiment,
    single_node,
)
from repro.hpcc import pingpong
from repro.machine.specs import format_table1
from repro.npb.mg import run_mg
from repro.units import to_gb_per_s, to_usec


def main() -> None:
    # -- 1. The machine ------------------------------------------------------
    print("=" * 72)
    print("The simulated Columbia supercluster")
    print("=" * 72)
    print(format_table1())
    print()

    # -- 2. A workload against the machine ------------------------------------
    print("MPI ping-pong between two CPUs of each node type:")
    for node_type in NodeType:
        cluster = single_node(node_type)
        placement = Placement(cluster, n_ranks=64)
        result = pingpong(placement, max_pairs=8)
        print(
            f"  {node_type.value:>5}: latency {to_usec(result.avg_latency):5.2f} us, "
            f"bandwidth {to_gb_per_s(result.avg_bandwidth):4.2f} GB/s"
        )
    print()

    print("...and across the InfiniBand switch (2 nodes):")
    cluster = multinode(2, fabric="infiniband")
    placement = Placement(cluster, n_ranks=64, spread_nodes=True)
    result = pingpong(placement, max_pairs=8)
    print(
        f"   IB  : latency {to_usec(result.avg_latency):5.2f} us, "
        f"bandwidth {to_gb_per_s(result.avg_bandwidth):4.2f} GB/s"
    )
    print()

    print("A real NPB kernel (MG class S, actual multigrid solve):")
    mg = run_mg("S")
    print(
        f"  residual {mg.initial_residual:.2e} -> {mg.final_residual:.2e} "
        f"({mg.iterations} V-cycles, contraction {mg.contraction:.2f}/cycle)"
    )
    print()

    # -- 3. The characterization harness ---------------------------------------
    print("=" * 72)
    print("Reproducing a paper table: Table 2 (INS3D)")
    print("=" * 72)
    print(run_experiment("table2").format())
    print()
    print("All available experiments:")
    for eid, desc in list_experiments():
        print(f"  {eid:<20} {desc}")


if __name__ == "__main__":
    main()
