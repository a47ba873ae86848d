"""Surrogate declarations for every registered workload.

This is the one auditable list answering "what happens when I ask
for ``fidelity="analytic"``?" per workload:

* Every workload below except ``ext_noise.cell`` is an **exact
  passthrough**: the analytic tier runs the very same cell function
  in-process, so the rows are byte-identical to the full path.  That
  is why they are exact, not that they are closed form: most are
  (MZ timing model, bandwidth/latency arithmetic, capacity planning),
  but ``fig5.cell``, ``fig10.cell`` and ``sec42.cell`` run the b_eff
  patterns (exact numpy recurrences on a healthy machine, the DES
  under DES faults or tracing), and an analytic request for them runs
  them inline.
  The calibration job *verifies* the exactness (rel. error must be
  0.0) rather than trusting this comment.
* ``ext_noise.cell`` is the only workload with a real modeled
  surrogate (below) whose error the calibration job measures and
  bounds.

A workload id absent from this module has no fast path: the Runner
escalates (or refuses) non-``full`` requests for it.
"""

from __future__ import annotations

from repro.memo import memo
from repro.surrogate.models import (
    noise_amplification,
    noisy_max_factor,
    reduce_broadcast_time,
)
from repro.surrogate.registry import register_exact, surrogate

__all__ = ["EXACT_WORKLOADS"]

#: Workload ids whose analytic tier is the full cell function itself.
EXACT_WORKLOADS = (
    "table1.rows",
    "sec411.cell",
    "fig5.cell",
    "fig6.cell",
    "table2.cell",
    "table3.cell",
    "sec42.cell",
    "fig7.cell",
    "fig8.cell",
    "table4.ins3d",
    "table4.overflow",
    "fig9.cell",
    "fig10.cell",
    "fig11.cell",
    "table5.cell",
    "table6.cell",
    "ablation.variant_pair",
    "ablation.grouping",
    "ablation.ibcards",
    "ablation.shmem",
    "ext_class_f.capacity",
    "ext_class_f.run",
    "ext_ins3d.single",
    "ext_ins3d.multi",
)

for _wid in EXACT_WORKLOADS:
    register_exact(_wid)


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


@surrogate("ext_noise.cell", modes=("analytic", "hybrid"))
def _ext_noise_surrogate(
    mode: str, ranks: int, noise: float, n_seeds: int
) -> list[tuple]:
    """Surrogate for the OS-noise amplification cell.

    The DES version runs ``compute(1e-3)`` + an 8-byte allreduce per
    rank count, quiet vs noisy, averaged over seeds.  Here:

    * network: :func:`reduce_broadcast_time` — the analytic critical
      path of the binomial reduce+broadcast the DES executes;
    * compute, ``analytic``: expected max-of-exponentials stretch
      ``1 + noise * H_p`` (no sampling at all);
    * compute, ``hybrid``: the stretch factors are *executed* — the
      same seeded draws the DES would make — while the network term
      stays analytic.

    Row schema matches the workload: one row of
    ``(ranks, quiet_ms, noisy_ms, slowdown)``, and so does what it
    rejects.
    """
    from repro.core.experiments.ext_noise import check_cell

    check_cell(noise, n_seeds)
    base = 1e-3
    net = reduce_broadcast_time(_noise_placement(ranks), 8)
    quiet = base + net
    if mode == "analytic":
        noisy = base * noise_amplification(ranks, noise) + net
    else:
        stretches = (
            noisy_max_factor(ranks, noise, s) for s in range(n_seeds)
        )
        noisy = sum(base * f + net for f in stretches) / n_seeds
    return [(
        ranks, round(quiet * 1e3, 4), round(noisy * 1e3, 4),
        round(noisy / quiet, 2),
    )]
