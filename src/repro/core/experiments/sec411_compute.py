"""§4.1.1 DGEMM and STREAM on the three node types (+ §4.6.1 internode).

Reproduces the prose findings: DGEMM correlates with processor
speed/cache (5.75 Gflop/s on BX2b, +6%), not interconnect; STREAM
Triad is ~1% better on the 3700; the internode network plays <0.5% of
a role in DGEMM and none in STREAM.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import scenario, sweep, workload

__all__ = ["scenarios"]


@workload("sec411.cell", fast="exact")
def _cell(node_type: str, setting: str) -> list[tuple]:
    from repro.hpcc import predict_dgemm, predict_stream
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType, build_node
    from repro.machine.placement import Placement

    nt = NodeType(node_type)
    node = build_node(nt)
    dense = Placement(single_node(nt), n_ranks=8)
    d = predict_dgemm(node, dense, internode=(setting == "internode"))
    s = predict_stream(node, dense)
    return [(node_type, setting, round(d.gflops_per_cpu, 2),
             round(s.copy, 2), round(s.scale, 2), round(s.add, 2),
             round(s.triad, 2))]


def scenarios(fast: bool = False):
    # Dense runs on every node type, then the §4.6.1 internode check
    # (interconnect <0.5% for DGEMM, nothing for STREAM) on the BX2b.
    return sweep(
        "sec411.cell",
        {"node_type": ("3700", "BX2a", "BX2b")},
        base={"setting": "dense"},
    ) + (scenario("sec411.cell", node_type="BX2b", setting="internode"),)


experiment(
    "sec411_compute",
    anchor="§4.1.1",
    title="§4.1.1 DGEMM + STREAM per node type",
    heading="§4.1.1: DGEMM and STREAM per CPU on 3700 / BX2a / BX2b",
    columns=(
        "node_type", "setting", "dgemm_gflops",
        "stream_copy", "stream_scale", "stream_add", "stream_triad",
    ),
    scenarios=scenarios,
    notes="STREAM columns in GB/s per CPU; 'dense' = both CPUs of "
          "each FSB active, 'internode' = across NUMAlink4-coupled "
          "nodes (§4.6.1).",
)
