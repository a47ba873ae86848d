"""§4.2 "CPU Stride": HPCC in a spread-out fashion.

Reproduces: DGEMM differences under 0.5%; STREAM per-CPU numbers at
stride 2 or 4 equal to the 1-CPU case (Triad 1.9x over dense);
ping-pong and random-ring slightly worse when spread out; natural ring
inconclusive (small latency improvement, none for bandwidth).
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import MachineSpec, PlacementSpec, sweep, workload

__all__ = ["scenarios"]


@workload("sec42.cell", fast="exact")
def _cell(placement, stride: int, n_ranks: int, max_pairs: int,
          trials: int) -> list[tuple]:
    from repro.hpcc import (
        natural_ring, pingpong, predict_dgemm, predict_stream, random_ring,
    )
    from repro.machine.node import NodeType, build_node
    from repro.units import to_gb_per_s, to_usec

    node = build_node(NodeType.BX2B)
    d = predict_dgemm(node, placement)
    s = predict_stream(node, placement)
    pp = pingpong(placement, max_pairs=max_pairs)
    nr = natural_ring(placement)
    rr = random_ring(placement, trials=trials)
    return [(
        stride,
        round(d.gflops_per_cpu, 3),
        round(s.triad, 2),
        round(to_usec(pp.avg_latency), 2),
        round(to_gb_per_s(pp.avg_bandwidth), 2),
        round(to_usec(nr.latency), 2),
        round(to_gb_per_s(nr.bandwidth_per_cpu), 2),
        round(to_usec(rr.latency), 2),
        round(to_gb_per_s(rr.bandwidth_per_cpu), 2),
    )]


def scenarios(fast: bool = False):
    return sweep(
        "sec42.cell",
        {"stride": (1, 2, 4)},
        base={
            "n_ranks": 16 if fast else 64,
            "max_pairs": 8 if fast else 24,
            "trials": 1 if fast else 3,
        },
        machine=MachineSpec.legacy(node_type="BX2b"),
        placement=lambda p: PlacementSpec(
            n_ranks=p["n_ranks"], stride=p["stride"]
        ),
    )


experiment(
    "sec42_stride",
    anchor="§4.2",
    title="§4.2 CPU stride effects on HPCC",
    heading="§4.2: HPCC at CPU stride 1 / 2 / 4 (BX2b)",
    columns=(
        "stride", "dgemm_gflops", "triad_gb_s",
        "pingpong_lat_us", "pingpong_bw_gb_s",
        "natring_lat_us", "natring_bw_gb_s",
        "rndring_lat_us", "rndring_bw_gb_s",
    ),
    scenarios=scenarios,
)
