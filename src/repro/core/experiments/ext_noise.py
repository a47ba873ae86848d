"""Extension experiment: OS noise amplification at scale.

§4.6.2's boot-cpuset finding (full-node runs dropped 10-15% from
system-software interference) is one instance of a general phenomenon:
synchronized parallel programs wait for whichever rank the OS delayed,
so fixed per-rank noise costs more the wider the job.  This experiment
measures it with the DES: a compute+allreduce step at growing rank
counts, quiet vs noisy, averaged over seeds.
"""

from __future__ import annotations

from repro.core.registry import experiment
from repro.run import sweep, workload

__all__ = ["scenarios"]

RANK_COUNTS = (8, 32, 128, 512)
FAST_RANK_COUNTS = (8, 64)
NOISE = 0.25
SEEDS = 5


def _step_time(p: int, noise: float, seed: int) -> float:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.mpi import run_mpi
    from repro.mpi.collectives import allreduce

    def prog(comm):
        yield comm.compute(1e-3)
        yield from allreduce(comm, 8, 1.0)
        return None

    placement = Placement(single_node(NodeType.BX2B), n_ranks=p)
    return run_mpi(placement, prog, os_noise=noise, noise_seed=seed).elapsed


@workload("ext_noise.cell")
def _cell(ranks: int, noise: float, n_seeds: int) -> list[tuple]:
    seeds = range(n_seeds)
    quiet = sum(_step_time(ranks, 0.0, s) for s in seeds) / n_seeds
    noisy = sum(_step_time(ranks, noise, s) for s in seeds) / n_seeds
    return [(
        ranks, round(quiet * 1e3, 4), round(noisy * 1e3, 4),
        round(noisy / quiet, 2),
    )]


def scenarios(fast: bool = False):
    return sweep(
        "ext_noise.cell",
        {"ranks": FAST_RANK_COUNTS if fast else RANK_COUNTS},
        base={"noise": NOISE, "n_seeds": 2 if fast else SEEDS},
    )


experiment(
    "ext_noise",
    anchor="extension",
    title="Extension: OS-noise amplification at scale",
    heading="Extension: OS-noise amplification of a synchronized step",
    columns=("ranks", "quiet_ms", "noisy_ms", "slowdown"),
    scenarios=scenarios,
    notes=f"Noise: compute segments stretched by 1 + Exp({NOISE}); "
          f"averaged over {SEEDS} seeds.  The relative cost of the "
          "same per-rank interference grows with the job width — "
          "the general mechanism behind the §4.6.2 boot-cpuset "
          "observation.",
)
