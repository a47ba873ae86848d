"""The three worked exploration studies.

Each is a full, runnable demonstration of the explore tier —
``repro explore --study cheapest-bx2`` / ``worst-faults`` /
``cheapest-machine`` — and a template to copy for new studies.

**cheapest-bx2** — "find the cheapest BX2 variant that keeps
OVERFLOW-D within 5% of stock."  The paper's ablation experiments
already separate the BX2b's clock (1.6 vs 1.5 GHz) and L3 (9 vs 6 MB)
contributions; this study inverts them into a procurement question.
The search space crosses clock and L3 bins through the same
:func:`~repro.machine.cluster.custom_bx2` builder the ablations use;
each candidate prices OVERFLOW-D's best per-step time against the
stock 1.6 GHz / 9 MB part and a part-cost proxy.  The objective
minimizes cost subject to ``rel_stock <= 1.05``.

**worst-faults** — "worst-case fault spec under a budget."  The
space enumerates fault alternatives (link degradation severities,
the §4.6.2 boot-cpuset contention, and combinations) crossed with
BT-MZ process counts; the objective *minimizes* delivered Gflop/s —
i.e. finds the spec that hurts most — under a candidate budget.
Path faults and the boot-cpuset/MPT anomalies reach the closed-form
timing models through the injector, so the whole study runs at
analytic-tier throughput.

**cheapest-machine** — "cheapest zoo machine that keeps BT-MZ within
5% of Columbia."  The machine-zoo redesign makes the *machine itself*
a searchable axis: the space's only dimension is ``machine.config``
over every registered preset, so each candidate cell builds a whole
different cluster through the registry.  The cell prices BT-MZ
throughput against the Columbia preset and a name-free
:func:`~repro.machine.zoo.cluster_cost` proxy; the objective
minimizes cost subject to ``rel_columbia >= 0.95``.
"""

from __future__ import annotations

from repro.explore.driver import ExploreDriver, ExploreResult
from repro.explore.objective import Objective
from repro.explore.space import SearchSpace, search_space
from repro.memo import memo
from repro.run.workloads import workload

__all__ = [
    "STUDIES",
    "part_cost",
    "run_study",
    "study_driver",
]

#: The stock BX2b part the cheapest-bx2 study is anchored to.
STOCK_CLOCK_GHZ = 1.6
STOCK_L3_MB = 9

#: Within-5%-of-stock feasibility bound (the ROADMAP's phrasing).
REL_STOCK_BOUND = 1.05


def part_cost(clock_ghz: float, l3_mb: float) -> float:
    """Relative part-cost proxy (stock = 1.0).

    Faster clock bins price superlinearly (binning yield) and L3
    SRAM prices roughly linearly in megabytes; normalized so the
    stock 1.6 GHz / 9 MB part costs exactly 1.  A procurement study
    would substitute real price points — the *objective plumbing* is
    what this study demonstrates.
    """
    raw = (clock_ghz / STOCK_CLOCK_GHZ) ** 2 + 0.15 * l3_mb
    stock = 1.0 + 0.15 * STOCK_L3_MB
    return round(raw / stock, 6)


@memo(maxsize=256)
def _overflow_step(clock_ghz: float, l3_mb: int, cpus: int) -> float:
    """Best OVERFLOW-D per-step time on one custom BX2 variant.

    Memoized: the stock reference recomputes per candidate otherwise,
    and the rotor-system grouping inside the model is the expensive
    part of a cell.
    """
    from repro.apps.overflow import OverflowModel
    from repro.machine.cluster import custom_bx2

    model = OverflowModel(cluster=custom_bx2(clock_ghz, l3_mb))
    return model.best_step_time(cpus).exec


@workload("explore.overflow_variant", fast="exact")
def _overflow_variant_cell(
    clock_ghz: float, l3_mb: int, cpus: int = 256
) -> list[tuple]:
    """One BX2-variant candidate: step time, ratio to stock, cost.

    Columns: ``(clock_ghz, l3_mb, cpus, step_s, rel_stock, cost)``.
    Closed-form end to end (the OVERFLOW model never touches the
    DES), so the analytic tier serves it inline.
    """
    step = _overflow_step(clock_ghz, l3_mb, cpus)
    stock = _overflow_step(STOCK_CLOCK_GHZ, STOCK_L3_MB, cpus)
    return [(
        clock_ghz, l3_mb, cpus,
        round(step, 4), round(step / stock, 4),
        part_cost(clock_ghz, l3_mb),
    )]


def cheapest_bx2_space(cpus: int = 256) -> SearchSpace:
    """Clock bins x L3 bins around (and below) the stock BX2b."""
    return search_space(
        "explore.overflow_variant",
        {
            "clock_ghz": (1.3, 1.4, 1.5, 1.6, 1.7),
            "l3_mb": (3, 6, 9, 12),
        },
        base={"cpus": cpus},
    )


def cheapest_bx2_objective() -> Objective:
    """Minimize part cost subject to rel_stock <= 1.05 (columns of
    :func:`_overflow_variant_cell`: 4 = rel_stock, 5 = cost)."""
    return Objective(
        metric=5, mode="min",
        constraint=4, constraint_max=REL_STOCK_BOUND,
    )


def worst_faults_space() -> SearchSpace:
    """Fault alternatives x BT-MZ process counts (fig9's cell).

    Every alternative is analytic-visible: link degradations reprice
    the network paths, the boot-cpuset/MPT anomalies stretch compute
    in the MZ timing model.  ``threads=2`` keeps full-node layouts in
    range so the boot-cpuset contention can actually bite.
    """
    return search_space(
        "fig9.cell",
        {
            "faults": (
                "none",
                "boot_cpuset",
                "degrade:link_class=any,latency_factor=4",
                "degrade:link_class=any,latency_factor=8,bandwidth_factor=0.25",
                "degrade:link_class=intra_node,latency_factor=16"
                ";boot_cpuset",
                "degrade:link_class=any,latency_factor=8,"
                "bandwidth_factor=0.125;boot_cpuset",
            ),
            "processes": (16, 64, 256),
        },
        base={"threads": 2},
    )


def worst_faults_objective(repeats: int = 5, seed: int = 0) -> Objective:
    """Minimize delivered Gflop/s (fig9 column 3) at the p95 of
    seeded replicates — "worst case" on both axes: the nastiest spec,
    judged by its bad tail rather than its mean.  On the analytic
    tier the closed-form model is noise-free, so the replicates
    degenerate to identical values (every quantile equals them); the
    same study at ``--fidelity full`` spreads the tail out — the
    quantile plumbing is identical either way."""
    return Objective(
        metric=3, mode="min", quantile=0.95,
        repeats=repeats, seed=seed,
    )


#: Within-5%-of-Columbia feasibility bound for cheapest-machine
#: (rel_columbia is a higher-is-better throughput ratio).
REL_COLUMBIA_BOUND = 0.95


@memo(maxsize=256)
def _btmz_gflops(config: str, cpus: int) -> float:
    """BT-MZ class C delivered Gflop/s on one zoo preset (memoized —
    the Columbia reference reprices per candidate otherwise)."""
    from repro.compare import mz_gflops
    from repro.machine.zoo import build_machine

    return mz_gflops(build_machine(config), "bt-mz", cpus)


@workload("explore.machine_candidate", fast="exact")
def _machine_candidate_cell(cluster, cpus: int = 256) -> list[tuple]:
    """One zoo-machine candidate: BT-MZ rate, ratio to Columbia, cost.

    Columns: ``(cpus, gflops, rel_columbia, cost)``.  The machine
    arrives as the built cluster (the ``machine.config`` dimension
    routed through the registry), so the cell itself is name-free —
    the cost proxy reads the hardware, not the label.
    """
    from repro.compare import mz_gflops
    from repro.machine.zoo import cluster_cost

    gflops = mz_gflops(cluster, "bt-mz", cpus)
    reference = _btmz_gflops("columbia", cpus)
    return [(
        cpus, round(gflops, 4), round(gflops / reference, 4),
        round(cluster_cost(cluster), 4),
    )]


def cheapest_machine_space(cpus: int = 256) -> SearchSpace:
    """Every registered zoo preset as one categorical dimension."""
    from repro.machine.zoo import list_machines

    return search_space(
        "explore.machine_candidate",
        {"machine.config": tuple(list_machines())},
        base={"cpus": cpus},
    )


def cheapest_machine_objective() -> Objective:
    """Minimize machine cost subject to rel_columbia >= 0.95 (columns
    of :func:`_machine_candidate_cell`: 2 = rel_columbia, 3 = cost)."""
    return Objective(
        metric=3, mode="min",
        constraint=2, constraint_min=REL_COLUMBIA_BOUND,
    )


#: study name -> (space factory, objective factory, default optimizer).
STUDIES = {
    "cheapest-bx2": (cheapest_bx2_space, cheapest_bx2_objective, "grid"),
    "worst-faults": (worst_faults_space, worst_faults_objective, "evolve"),
    "cheapest-machine": (
        cheapest_machine_space, cheapest_machine_objective, "grid",
    ),
}


def study_driver(
    name: str, optimizer: str | None = None, **kwargs
) -> ExploreDriver:
    """An :class:`ExploreDriver` for one named study; ``optimizer``
    defaults to the study's own, and every other keyword argument
    (``seed``, ``runner``, ``journal``, ``batch_size``, the budgets)
    goes to the driver."""
    from repro.errors import ConfigurationError

    entry = STUDIES.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown study {name!r}; expected one of {sorted(STUDIES)}"
        )
    space_fn, objective_fn, default_opt = entry
    return ExploreDriver(
        space_fn(), objective_fn(),
        optimizer=optimizer or default_opt, **kwargs
    )


def run_study(name: str, **kwargs) -> ExploreResult:
    """Run one named study end to end."""
    return study_driver(name, **kwargs).run()
