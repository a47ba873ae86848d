"""Extension experiment: OS noise amplification at scale.

§4.6.2's boot-cpuset finding (full-node runs dropped 10-15% from
system-software interference) is one instance of a general phenomenon:
synchronized parallel programs wait for whichever rank the OS delayed,
so fixed per-rank noise costs more the wider the job.  This experiment
measures it with a compute+allreduce step at growing rank counts,
quiet vs noisy, averaged over seeds.

On a healthy machine (:func:`repro.mpi.job.healthy`) the step starts
no DES world: each rank's ready time is the DES's own noise draw
(:func:`~repro.mpi.job.compute_ready_times`) and the allreduce runs as
its exact recurrence (:func:`~repro.mpi.collectives.allreduce_times`),
so the rows are ``==`` to the DES's.  Under DES faults or an enabled
tracer the step runs on the DES.

The cell is the one workload with a *modeled* fast form
(:func:`_model`): closed forms for the ``analytic`` and ``hybrid``
tiers whose error against this DES-exact path ``repro calibrate
--fidelity`` measures and bounds.
"""

from __future__ import annotations

import math

from repro.core.registry import experiment
from repro.errors import ConfigurationError
from repro.memo import memo
from repro.run import sweep, workload

__all__ = ["scenarios"]

RANK_COUNTS = (8, 32, 128, 512)
FAST_RANK_COUNTS = (8, 64)
NOISE = 0.25
SEEDS = 5
#: compute seconds per step, and the allreduce's message size.
WORK = 1e-3
ALLREDUCE_BYTES = 8


def check_cell(noise: float, n_seeds: int) -> None:
    """Reject a cell neither tier can average: no seeds, or a noise
    amplitude that is negative or not finite."""
    if n_seeds < 1:
        raise ConfigurationError(f"ext_noise needs n_seeds >= 1, got {n_seeds}")
    if not 0.0 <= noise < math.inf:
        raise ConfigurationError(
            f"ext_noise needs a finite noise >= 0, got {noise}")


def _step_time(p: int, noise: float, seed: int) -> float:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.mpi import run_mpi
    from repro.mpi.collectives import allreduce, allreduce_times
    from repro.mpi.job import compute_ready_times, healthy
    from repro.netmodel.costs import NetworkModel

    placement = Placement(single_node(NodeType.BX2B), n_ranks=p)
    if healthy():
        ready = compute_ready_times(p, WORK, noise, seed)
        net = NetworkModel(placement)
        return float(allreduce_times(net, ready, ALLREDUCE_BYTES).max())

    def prog(comm):
        yield comm.compute(WORK)
        yield from allreduce(comm, ALLREDUCE_BYTES, 1.0)
        return None

    return run_mpi(placement, prog, os_noise=noise, noise_seed=seed).elapsed


@memo(maxsize=64)
def _noise_placement(ranks: int):
    """One placement instance per rank count.  The network model's
    memos key on placement content, so a fresh instance would hit them
    too; reusing one also skips rebuilding the cluster value and the
    placement's content key on every inline evaluation."""
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement

    return Placement(single_node(NodeType.BX2B), n_ranks=ranks)


def _model(mode: str, ranks: int, noise: float, n_seeds: int) -> list[tuple]:
    """The fast form of :func:`_cell`, same rows and same rejections.

    The full cell runs ``compute(1e-3)`` + an 8-byte allreduce per
    rank count, quiet vs noisy, averaged over seeds.  Here:

    * network: :func:`~repro.surrogate.models.reduce_broadcast_time` —
      the analytic critical path of the binomial reduce+broadcast the
      DES executes;
    * compute, ``analytic``: expected max-of-exponentials stretch
      ``1 + noise * H_p`` (no sampling at all);
    * compute, ``hybrid``: the stretch factors are *executed* — the
      same seeded draws the DES would make — while the network term
      stays analytic.
    """
    from repro.surrogate.models import (
        noise_amplification,
        noisy_max_factor,
        reduce_broadcast_time,
    )

    check_cell(noise, n_seeds)
    net = reduce_broadcast_time(_noise_placement(ranks), ALLREDUCE_BYTES)
    quiet = WORK + net
    if mode == "analytic":
        noisy = WORK * noise_amplification(ranks, noise) + net
    else:
        stretches = (
            noisy_max_factor(ranks, noise, s) for s in range(n_seeds)
        )
        noisy = sum(WORK * f + net for f in stretches) / n_seeds
    return [(
        ranks, round(quiet * 1e3, 4), round(noisy * 1e3, 4),
        round(noisy / quiet, 2),
    )]


@workload("ext_noise.cell", fast=_model)
def _cell(ranks: int, noise: float, n_seeds: int) -> list[tuple]:
    check_cell(noise, n_seeds)
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
