"""Run a simulated MPI job.

``run_mpi`` spawns one simulated process per rank (or per rank of a
chosen subset), each executing the user's rank program (a generator
taking an :class:`MPIComm`), runs the simulator to completion and
reports per-rank finish times, return values and aggregate message
statistics.

On a :func:`healthy` machine some whole programs are closed-form
functions of route-table prices, and their callers compute them as
numpy recurrences in the DES's float order instead of starting a world
(the b_eff patterns, the ext_noise step); :func:`compute_ready_times`
is the recurrence twin of a world whose every rank computes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable

import numpy as np

from repro.errors import CommunicationError
from repro.faults.context import current_injector
from repro.machine.placement import Placement
from repro.mpi.comm import MPIComm, MPIWorld, check_os_noise
from repro.netmodel.costs import NetworkModel
from repro.obs.spans import current_tracer
from repro.sim.engine import Simulator
from repro.sim.process import SimEvent, SimProcess
from repro.sim.rng import make_rng

__all__ = ["MPIJobResult", "compute_ready_times", "healthy", "run_mpi"]

RankProgram = Callable[[MPIComm], Generator[SimEvent, Any, Any]]


@dataclass(frozen=True)
class MPIJobResult:
    """Outcome of one simulated MPI job."""

    #: Simulated wall-clock: when the slowest rank finished.
    elapsed: float
    #: Per-rank completion times.
    finish_times: tuple[float, ...]
    #: Per-rank return values of the rank programs.
    values: tuple[Any, ...]
    #: Total messages and bytes injected by all ranks.
    messages_sent: int
    bytes_sent: float

    @property
    def max_skew(self) -> float:
        """Completion-time spread between fastest and slowest rank."""
        return max(self.finish_times) - min(self.finish_times)


def run_mpi(
    placement: Placement,
    rank_program: RankProgram,
    network: NetworkModel | None = None,
    brick_contention: bool = False,
    os_noise: float = 0.0,
    noise_seed: int = 0,
    tracer: "object | None" = None,
    ranks: Iterable[int] | None = None,
) -> MPIJobResult:
    """Execute ``rank_program`` on every rank of ``placement``.

    The program is a generator function ``def prog(comm): ...`` using
    ``yield from comm.send/recv/compute`` and the collectives in
    :mod:`repro.mpi.collectives`.  Its return value is collected per
    rank.  ``brick_contention=True`` makes all CPUs of a C-Brick
    share one injection link; ``os_noise > 0`` stretches compute
    segments by random system interference.

    ``tracer`` — an :class:`repro.obs.spans.Tracer` recording full
    spans/counters; defaults to the ambient tracer installed by
    :func:`repro.obs.spans.use_tracer` (``None`` = tracing off).

    ``ranks`` — the ranks that run the program (default: all).  The
    others stay idle: they report ``None`` and finish at 0.0, exactly
    what a program that returns at once reports, without paying for
    a process, mailbox or handle each.  An unknown or repeated rank
    raises :class:`~repro.errors.CommunicationError`.
    """
    sim = Simulator()
    net = network if network is not None else NetworkModel(placement)
    world = MPIWorld(
        sim, net, brick_contention=brick_contention,
        os_noise=os_noise, noise_seed=noise_seed,
    )
    if tracer is not None:
        world._obs = tracer if tracer.enabled else None
    obs = world._obs  # explicit arg or the ambient tracer from __init__
    if obs is not None:
        obs.attach_engine(sim)

    size = world.size
    if ranks is None:
        active = range(size)
    else:
        requested = tuple(ranks)
        active = sorted(set(requested))
        if len(active) != len(requested):
            raise CommunicationError(f"duplicate rank in {requested}")
        if active and not (0 <= active[0] and active[-1] < size):
            raise CommunicationError(
                f"ranks {requested} outside world of {size}")

    finish_times = [0.0] * size
    values: list[Any] = [None] * size

    def wrap(rank: int) -> Generator[SimEvent, Any, Any]:
        value = yield from rank_program(world.comm(rank))
        finish_times[rank] = sim.now
        values[rank] = value

    for rank in active:
        SimProcess(sim, wrap(rank), name=f"rank{rank}")
    sim.run()
    return MPIJobResult(
        elapsed=max(finish_times),
        finish_times=tuple(finish_times),
        values=tuple(values),
        messages_sent=world.messages_sent,
        bytes_sent=world.bytes_sent,
    )


def healthy() -> bool:
    """True when no DES fault acts and no tracer records.

    A program whose timing is a pure function of the network
    :func:`route key <repro.netmodel.costs.route_key>` may then run as
    an exact recurrence; otherwise it must run on the DES (fault draws
    make each run a new realization, and a cell's trace must show its
    own messages).  Static path faults keep a machine healthy: they
    are priced into the route table.
    """
    injector = current_injector()
    tracer = current_tracer()
    return (injector is None or not injector.has_des_faults) and (
        tracer is None or not tracer.enabled
    )


def compute_ready_times(
    n_ranks: int, seconds: float, os_noise: float = 0.0, noise_seed: int = 0
) -> np.ndarray:
    """Each rank's time after a ``comm.compute(seconds)`` that opens its
    program on a healthy ``run_mpi`` world of ``os_noise``, ``==`` to
    the DES.

    Processes start in rank order at t=0, so rank ``r`` takes the
    ``r``-th draw of the world's noise generator.  A bad ``os_noise``
    raises what the world raises.
    """
    check_os_noise(os_noise)
    if os_noise > 0 and seconds > 0:
        draws = make_rng(noise_seed).exponential(os_noise, size=n_ranks)
        return seconds * (1.0 + draws)
    return np.full(n_ranks, 0.0 + seconds)
