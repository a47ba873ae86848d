"""Cross-machine characterization: the ``repro compare`` verb.

The paper's core move is running one application suite across
contrasting architectures and reading off who wins where (Altix 3700
vs BX2a vs BX2b, NUMAlink4 vs InfiniBand) — the RZBENCH/OMI4papps
methodology.  With the machine zoo, any registered
:class:`~repro.machine.zoo.MachineConfig` can join that analysis:
``repro compare --machines columbia,fat_numa,thin_ib,gpu_node`` runs a
closed-form application suite at several CPU counts per machine
through the ordinary Scenario → Runner → fidelity pipeline and emits

* a per-(app, size) **who-wins** table,
* the **crossover** points where the winning machine changes as the
  job grows (the paper's "3700 wins small, BX2b wins large" shape),
* a perf-per-cost ranking via the name-free
  :func:`~repro.machine.zoo.cluster_cost` proxy.

Every application here is closed-form (``compare.cell`` is declared
an exact passthrough), so the default analytic tier serves a full
4-machine comparison in milliseconds, cache- and serve-compatible
like any other workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.run.scenario import MachineSpec, Scenario, scenario
from repro.run.workloads import workload

__all__ = [
    "COMPARE_APPS",
    "DEFAULT_SIZES",
    "CompareResult",
    "compare_scenarios",
    "run_compare",
]

#: CPU counts compared by default — small/medium/large, feasible on
#: every shipped preset (the smallest, ``gpu_node``, holds 256 CPUs).
DEFAULT_SIZES = (16, 64, 256)

#: The application suite: name -> (metric label, unit).  All metrics
#: are higher-is-better rates, so winner logic needs no per-app mode.
COMPARE_APPS = {
    "bt-mz": ("rate", "Gflop/s"),
    "sp-mz": ("rate", "Gflop/s"),
    "overflow": ("steps", "steps/s"),
    "stream": ("triad", "GB/s"),
    "dgemm": ("rate", "Gflop/s"),
}


def _mz_layout(cpus: int, n_zones: int) -> tuple[int, int]:
    """(ranks, threads) for a multi-zone run: pure MPI until the zone
    count caps ranks, then OpenMP threads take over (§4.6.2)."""
    for threads in (1, 2, 4, 8, 16):
        if cpus % threads == 0 and cpus // threads <= n_zones:
            return cpus // threads, threads
    raise ConfigurationError(
        f"no feasible MPI+OpenMP layout for {cpus} CPUs over "
        f"{n_zones} zones"
    )


def mz_gflops(cluster, app: str, cpus: int) -> float:
    """Class C delivered Gflop/s of one multi-zone benchmark
    (``"bt-mz"`` or ``"sp-mz"``) on ``cluster`` at ``cpus`` CPUs, laid
    out by :func:`_mz_layout` — the one rate the compare grid and the
    cheapest-machine study both price."""
    from repro.machine.placement import Placement
    from repro.npb.hybrid import MZTimingModel
    from repro.npb.multizone import mz_problem

    ranks, threads = _mz_layout(cpus, mz_problem(app, "C").spec.n_zones)
    placement = Placement(cluster, n_ranks=ranks, threads_per_rank=threads)
    return MZTimingModel(app, "C", placement).total_gflops()


def _placement(cluster, cpus: int):
    from repro.machine.placement import Placement

    return Placement(cluster, n_ranks=cpus)


@workload("compare.cell", fast="exact")
def _cell(cluster, app: str, cpus: int) -> list[tuple]:
    """One (machine, app, size) cell; the machine arrives as the
    built cluster, so the cell itself is machine-name-free."""
    if app not in COMPARE_APPS:
        raise ConfigurationError(
            f"unknown compare app {app!r}; known: {sorted(COMPARE_APPS)}"
        )
    metric, unit = COMPARE_APPS[app]
    if cpus < 1 or cpus > cluster.total_cpus:
        raise ConfigurationError(
            f"{cpus} CPUs outside cluster of {cluster.total_cpus}"
        )
    if app in ("bt-mz", "sp-mz"):
        value = mz_gflops(cluster, app, cpus)
    elif app == "overflow":
        from repro.apps.overflow import OverflowModel

        step = OverflowModel(cluster=cluster).best_step_time(cpus)
        value = 1.0 / step.exec
    elif app == "stream":
        from repro.hpcc.stream import predict_stream

        result = predict_stream(cluster.nodes[0], _placement(cluster, cpus))
        value = result.total_triad
    else:  # dgemm
        from repro.hpcc.dgemm import predict_dgemm

        result = predict_dgemm(
            cluster.nodes[0], _placement(cluster, cpus),
            internode=cpus > cluster.cpus_per_node,
        )
        value = result.total_gflops
    return [(app, cpus, metric, unit, round(value, 4))]


# -- the comparison ----------------------------------------------------------


def compare_scenarios(
    machines: Sequence[str],
    apps: Sequence[str] | None = None,
    sizes: Sequence[int] | None = None,
    fidelity: str = "analytic",
) -> tuple[Scenario, ...]:
    """The cell grid: machines x apps x sizes, skipping sizes a
    machine cannot hold (logged in the result as absent rows)."""
    from repro.machine.zoo import machine_config

    apps = tuple(apps) if apps else tuple(COMPARE_APPS)
    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    for app in apps:
        if app not in COMPARE_APPS:
            raise ConfigurationError(
                f"unknown compare app {app!r}; known: {sorted(COMPARE_APPS)}"
            )
    cells = []
    for name in machines:
        capacity = machine_config(name).total_cpus  # raises on unknown
        for app in apps:
            for cpus in sizes:
                if cpus > capacity:
                    continue
                cells.append(scenario(
                    "compare.cell",
                    machine=MachineSpec(config=name),
                    fidelity=fidelity,
                    app=app, cpus=cpus,
                ))
    return tuple(cells)


@dataclass(frozen=True)
class CompareResult:
    """The cross-machine table plus its derived analysis."""

    machines: tuple[str, ...]
    apps: tuple[str, ...]
    sizes: tuple[int, ...]
    #: (machine, app, cpus, value) — higher is better, app's unit.
    rows: tuple[tuple[str, str, int, float], ...]
    #: machine cost proxies, by name.
    costs: tuple[tuple[str, float], ...]

    def value(self, machine: str, app: str, cpus: int) -> float | None:
        for m, a, c, v in self.rows:
            if (m, a, c) == (machine, app, cpus):
                return v
        return None

    def winners(self) -> tuple[tuple[str, int, str], ...]:
        """(app, cpus, winning machine) for every populated cell."""
        out = []
        for app in self.apps:
            for cpus in self.sizes:
                best = None
                for m in self.machines:
                    v = self.value(m, app, cpus)
                    if v is not None and (best is None or v > best[1]):
                        best = (m, v)
                if best is not None:
                    out.append((app, cpus, best[0]))
        return tuple(out)

    def crossovers(self) -> tuple[tuple[str, int, int, str, str], ...]:
        """(app, cpus_before, cpus_after, old winner, new winner) at
        every size step where an app's winning machine changes."""
        out = []
        for app in self.apps:
            seq = [(c, w) for (a, c, w) in self.winners() if a == app]
            for (c0, w0), (c1, w1) in zip(seq, seq[1:]):
                if w0 != w1:
                    out.append((app, c0, c1, w0, w1))
        return tuple(out)

    def perf_per_cost(self) -> tuple[tuple[str, float], ...]:
        """Machines ranked by geometric-mean win share per unit cost:
        the fraction of populated cells a machine wins, divided by its
        cost proxy (scaled x1000 for readability)."""
        costs = dict(self.costs)
        wins = {m: 0 for m in self.machines}
        total = 0
        for _, _, winner in self.winners():
            wins[winner] += 1
            total += 1
        ranked = sorted(
            (
                (m, 1000.0 * wins[m] / total / costs[m] if total else 0.0)
                for m in self.machines
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return tuple(ranked)

    # -- rendering -----------------------------------------------------------

    def format(self) -> str:
        """The deterministic who-wins/crossover report."""
        lines = []
        width = max(len(m) for m in self.machines)
        for app in self.apps:
            _, unit = COMPARE_APPS[app]
            lines.append(f"{app} ({unit}, higher is better)")
            header = "  cpus"
            for m in self.machines:
                header += f"  {m:>{max(width, 10)}}"
            lines.append(header + "  winner")
            for cpus in self.sizes:
                row = f"  {cpus:>4}"
                best = None
                for m in self.machines:
                    v = self.value(m, app, cpus)
                    if v is not None and (best is None or v > best[1]):
                        best = (m, v)
                    cellw = max(width, 10)
                    row += f"  {'-' if v is None else format(v, '.4g'):>{cellw}}"
                row += f"  {best[0] if best else '-'}"
                lines.append(row)
            lines.append("")
        xs = self.crossovers()
        if xs:
            lines.append("crossovers:")
            for app, c0, c1, w0, w1 in xs:
                lines.append(
                    f"  {app}: {w0} wins at {c0} CPUs -> {w1} wins at {c1}"
                )
        else:
            lines.append("crossovers: none (one machine wins every size)")
        lines.append("")
        lines.append("perf per unit cost (win share x1000 / cost proxy):")
        for m, score in self.perf_per_cost():
            cost = dict(self.costs)[m]
            lines.append(f"  {m:<{width}}  cost {cost:>8.0f}  score {score:.4f}")
        return "\n".join(lines) + "\n"


def run_compare(
    machines: Sequence[str],
    apps: Sequence[str] | None = None,
    sizes: Sequence[int] | None = None,
    runner=None,
    fidelity: str = "analytic",
) -> CompareResult:
    """Run the comparison grid and fold it into a
    :class:`CompareResult`.

    ``runner`` defaults to a fresh analytic-tier
    :class:`~repro.run.runner.Runner`; pass one to share a cache,
    fault overlay or trace directory with other work.  Cells that a
    machine cannot hold are skipped; cells that fail (e.g. no
    feasible layout) surface as errors through the runner's ordinary
    keep-going accounting.
    """
    from repro.machine.zoo import cluster_cost, machine_config
    from repro.run.runner import Runner

    machines = tuple(machines)
    if len(set(machines)) != len(machines):
        raise ConfigurationError(f"duplicate machines in {machines}")
    if len(machines) < 2:
        raise ConfigurationError("compare needs at least two machines")
    apps = tuple(apps) if apps else tuple(COMPARE_APPS)
    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    cells = compare_scenarios(machines, apps, sizes, fidelity=fidelity)
    if runner is None:
        runner = Runner(jobs=1, fidelity=fidelity)
    records = runner.run(list(cells))
    rows = []
    for rec in records:
        if rec.error is not None:
            continue
        machine = rec.scenario.machine.config
        for app, cpus, _metric, _unit, value in rec.rows:
            rows.append((machine, str(app), int(cpus), float(value)))
    costs = tuple(
        (name, round(cluster_cost(machine_config(name).build()), 4))
        for name in machines
    )
    return CompareResult(
        machines=machines, apps=apps, sizes=sizes,
        rows=tuple(rows), costs=costs,
    )
