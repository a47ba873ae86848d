"""Benchmark-regression harness for the repo's hot paths.

Tracks the kernels the simulated-experiment throughput actually
depends on (the BENCH trajectory): the DES event engine, the
per-message network cost model, and the MD force loop.  Results are
written to ``BENCH_kernels.json`` at the repo root; ``--check``
compares a fresh measurement against the committed numbers and fails
if any tracked kernel regressed more than the tolerance (default
20%), so perf wins cannot silently rot.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.bench_regression            # measure + print
    PYTHONPATH=src python -m benchmarks.bench_regression --check    # fail on >20% regression
    PYTHONPATH=src python -m benchmarks.bench_regression --write    # refresh the "current" section
    PYTHONPATH=src python -m benchmarks.bench_regression --capture-baseline

Kernels whose name ends in ``_per_sec`` are throughputs (higher is
better); everything else is a time per operation (lower is better).
"""

from __future__ import annotations

import argparse
import json
import platform
import math
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_kernels.json"

#: Fractional slowdown vs the committed numbers that fails --check.
DEFAULT_TOLERANCE = 0.20

#: Per-kernel *loosenings* of the --check tolerance (applied as a max
#: over the effective tolerance).
#:
#: The committed numbers follow a best-over-interleaved-rounds
#: protocol, and the benchmark box swings between multi-minute
#: throughput phases of up to ~1.75x (the identical ping-pong binary
#: measures 0.76M-1.33M events/s across one session).  Best-of-N
#: repetition inside a round absorbs micro-noise but cannot ride out a
#: phase, so a single --check run in an ordinary phase lands 10-25%
#: below the committed peaks on the wall-clock-bound kernels.  Relative
#: tolerances tighter than the phase swing would flake on machine
#: weather rather than catch code rot; the *tight* invariants are the
#: absolute seed caps in :data:`SEED_GATES` and the phase-invariant
#: faulted/healthy ratio floor below, which machine-speed swings cannot
#: fake.
#:
#: ``collective_model_warm_ms`` is a special case: a ~2 µs cache-hit
#: probe where timer and allocator noise is a large multiple of the
#: signal.  Its only job is to catch the warm path going cold — a
#: ~1000x jump that a 3x budget still catches with orders of magnitude
#: to spare.
LOOSE_TOLERANCES = {
    "collective_model_warm_ms": 2.0,
    "collective_model_cold_ms": 0.35,
    "des_pingpong_events_per_sec": 0.30,
    "des_pingpong_faulted_events_per_sec": 0.35,
    "des_alltoall_msgs_per_sec": 0.35,
    "serve_submit_cells_per_sec": 0.35,
    "analytic_serve_cells_per_sec": 0.35,
    "explore_candidates_per_sec": 0.35,
    "compare_cells_per_sec": 0.35,
    "surrogate_eval_us": 0.45,
    "md_forces_864_ms": 0.45,
    "md_step_864_ms": 0.45,
}

#: Absolute caps (lower-is-better kernels) reclaimed by the perf PRs:
#: the seed-era values these kernels must never regress past, no
#: matter what the committed "current" numbers drift to.  Relative
#: tolerances compound across refreshes; these do not.
SEED_GATES = {
    "path_lookup_ns": 348.04,
    "collective_model_cold_ms": 9.06,
}

#: Absolute floors (higher-is-better kernels).  The analytic serve
#: path's contract is ~1e5 cells/s in an ordinary machine phase; the
#: floor sits under the slowest observed phase (the ~1.75x swing
#: documented above) so it trips on structural rot — a worker pool
#: spinning up, per-request asyncio scheduling, a pickle hop — all of
#: which cost multiples, never on machine weather.
ABS_FLOORS = {
    "analytic_serve_cells_per_sec": 40_000.0,
    #: the explore loop's interactivity contract: a full optimizer
    #: round-trip per candidate (ask, materialize, run inline,
    #: score, tell) must stay north of 10k cells/s, or
    #: thousand-candidate studies stop being interactive.
    "explore_candidates_per_sec": 10_000.0,
    #: a compare cell runs real application models (MZ timing,
    #: OVERFLOW grouping, STREAM/DGEMM), so its steady state is ~80
    #: cells/s, not thousands.  The floor sits ~3x under that: it
    #: trips on structural rot — the registry losing its build cache,
    #: the rotor-system grouping recomputing per cell — never on
    #: machine weather.
    "compare_cells_per_sec": 25.0,
}

#: Floor on faulted/healthy DES ping-pong throughput.  MessageDrop
#: retries desynchronize the rank pairs, so nearly every faulted event
#: lands in its own singleton timestamp bucket — the structural reason
#: the faulted path cannot match healthy batch-draining (see
#: docs/architecture.md).  The achieved ratio is ~0.6; the floor
#: leaves noise headroom while catching any real faulted-path rot.
FAULTED_RATIO_FLOOR = 0.5

PINGPONG_RANKS = 16
PINGPONG_ROUNDS = 150
PINGPONG_BYTES = 1024.0
ALLTOALL_RANKS = 64
ALLTOALL_BYTES = 1024.0
MD_CELLS = 6  # 4 * 6^3 = 864 atoms, the paper's §3.3 system size
MD_STEPS = 30
PATH_LOOKUP_CALLS = 50_000
COLLECTIVE_RANKS = 256
SERVE_CELLS = 256
EXPLORE_CELLS = 256


#: Set by ``--quick``: caps every ``_best_time`` at 3 repeats.
_quick_mode = False


def _best_time(fn: Callable[[], object], repeats: int = 7) -> float:
    """Best (minimum) wall-clock seconds of ``fn()`` over ``repeats`` runs.

    The minimum is the standard estimator for microbenchmarks (it is
    what ``timeit`` reports): external interference — other processes,
    frequency scaling, GC pauses — only ever adds time, so the fastest
    observed run is the closest to the code's true cost.  This machine
    shows run-to-run swings of 15-25%, which the median does not
    suppress.
    """
    if _quick_mode:
        repeats = min(repeats, 3)
    fn()  # warm-up (imports, caches that persist across runs by design)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


# -- DES workloads -----------------------------------------------------------


def _build_pingpong(sim):
    """Ping-pong-heavy MPI workload: 8 rank pairs exchanging messages.

    This is the MPI-rendezvous-chain shape (send, matched recv, repeat)
    whose event stream is dominated by zero-delay callbacks — the DES
    fast-lane target.
    """
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.mpi.comm import MPIWorld
    from repro.netmodel.costs import NetworkModel
    from repro.sim.process import SimProcess

    placement = Placement(single_node(NodeType.BX2B), n_ranks=PINGPONG_RANKS)
    world = MPIWorld(sim, NetworkModel(placement))

    def prog(comm):
        partner = comm.rank ^ 1
        for _ in range(PINGPONG_ROUNDS):
            if comm.rank < partner:
                yield comm.isend(partner, PINGPONG_BYTES)
                yield comm.irecv(partner)
            else:
                yield comm.irecv(partner)
                yield comm.isend(partner, PINGPONG_BYTES)
        return None

    for rank in range(world.size):
        SimProcess(sim, prog(world.comm(rank)), name=f"rank{rank}")
    return world


class _CountingSim:
    """Event counter for engines without an ``events_executed`` field."""

    def __new__(cls):
        from repro.sim.engine import Simulator

        if hasattr(Simulator(), "events_executed"):
            return Simulator()

        class _Counting(Simulator):  # pragma: no cover - seed engine only
            def __init__(self):
                super().__init__()
                self.events_executed = 0

            def step(self):
                advanced = super().step()
                if advanced:
                    self.events_executed += 1
                return advanced

        return _Counting()


def _count_pingpong_events() -> int:
    """Total callbacks the ping-pong workload executes (deterministic)."""
    sim = _CountingSim()
    _build_pingpong(sim)
    sim.run()
    return sim.events_executed


def bench_des_pingpong() -> dict[str, float]:
    from repro.sim.engine import Simulator

    n_events = _count_pingpong_events()

    def run_once():
        sim = Simulator()
        _build_pingpong(sim)
        sim.run()

    wall = _best_time(run_once)
    return {"des_pingpong_events_per_sec": n_events / wall}


def bench_des_pingpong_faulted() -> dict[str, float]:
    """The same ping-pong workload under an injected fault spec.

    Tracks the cost of the faulted send path (drop draws, retry spans,
    jitter) so fault-injection overhead cannot silently grow; the
    faults-off number above guards the healthy path staying free.
    """
    from repro.faults import FaultSpec, MessageDrop, OsJitter, use_faults
    from repro.sim.engine import Simulator

    spec = FaultSpec(
        (MessageDrop(probability=0.02), OsJitter(amplitude=0.001)), seed=7
    )

    def run_once():
        sim = Simulator()
        with use_faults(spec, salt="bench"):
            _build_pingpong(sim)
        sim.run()

    # Event count varies slightly with retry draws; use the healthy
    # count as the (deterministic) normalizer so runs are comparable.
    n_events = _count_pingpong_events()
    wall = _best_time(run_once)
    return {"des_pingpong_faulted_events_per_sec": n_events / wall}


def bench_des_alltoall() -> dict[str, float]:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.mpi import run_mpi
    from repro.mpi.collectives import alltoall

    placement = Placement(single_node(NodeType.BX2B), n_ranks=ALLTOALL_RANKS)

    def prog(comm):
        yield from alltoall(comm, ALLTOALL_BYTES)
        return None

    n_msgs = ALLTOALL_RANKS * (ALLTOALL_RANKS - 1)

    def run_once():
        result = run_mpi(placement, prog)
        assert result.messages_sent == n_msgs

    wall = _best_time(run_once)
    return {"des_alltoall_msgs_per_sec": n_msgs / wall}


# -- MD workloads ------------------------------------------------------------


def bench_md() -> dict[str, float]:
    from repro.apps.md import MDSimulation, lj_forces
    from repro.apps.md.lattice import fcc_lattice

    sim = MDSimulation(cells=MD_CELLS, seed=42)
    assert sim.state.n_atoms == 864

    # Each sample advances the same trajectory by MD_STEPS more steps;
    # the workload per batch is identical, so best-of applies.
    step_ms = _best_time(lambda: sim.step(MD_STEPS), repeats=3) / MD_STEPS * 1e3

    positions, box = fcc_lattice(MD_CELLS)
    forces_ms = _best_time(lambda: lj_forces(positions, box, 2.5)) * 1e3
    return {"md_step_864_ms": step_ms, "md_forces_864_ms": forces_ms}


# -- network cost model ------------------------------------------------------


def bench_cost_model() -> dict[str, float]:
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.memo import clear_memos
    from repro.netmodel.collectives import CollectiveModel
    from repro.netmodel.costs import NetworkModel

    cluster = single_node(NodeType.BX2B)

    # Cold: memo-cold process, fresh Placement.  The route table and
    # path statistics are keyed on placement content, so without the
    # clear every build after the first would reuse them.  This is the
    # kernel behind ``paper_full_cold``'s ``netmodel.path_stats_s``
    # (ROADMAP item 3): one bulk path-pricing call over the sampled
    # pairs of a 256-rank placement.
    def cold():
        clear_memos()
        CollectiveModel(Placement(cluster, n_ranks=COLLECTIVE_RANKS))

    cold_ms = _best_time(cold, repeats=3) * 1e3

    # Warm: rebuild the model for one placement (sweep-loop shape).
    placement = Placement(cluster, n_ranks=COLLECTIVE_RANKS)
    CollectiveModel(placement)
    warm_ms = _best_time(lambda: CollectiveModel(placement), repeats=3) * 1e3

    net = NetworkModel(placement)
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, COLLECTIVE_RANKS, size=(PATH_LOOKUP_CALLS, 2))
    pairs = [(int(a), int(b)) for a, b in pairs]

    def lookup_all():
        message_time = net.message_time
        for a, b in pairs:
            message_time(a, b, 4096.0)

    lookup_ns = _best_time(lookup_all, repeats=3) / PATH_LOOKUP_CALLS * 1e9
    return {
        "collective_model_cold_ms": cold_ms,
        "collective_model_warm_ms": warm_ms,
        "path_lookup_ns": lookup_ns,
    }


# -- scenario service --------------------------------------------------------


def _serve_noop_cell(i: int = 0) -> list:
    """Near-zero-work cell: the measurement is scheduler overhead."""
    return [(i,)]


def _explore_noop_cell(i: int = 0, j: int = 0) -> list:
    """Two-dimension noop cell: the explore grid's unit of work."""
    return [(float(i + j),)]


def bench_serve() -> dict[str, float]:
    """Queue throughput of the serve scheduler, gathered submits.

    Explains the burst half of the ``serve_mixed`` end-to-end workload
    (``wall_s``, ``serve.burst_p50_ms``): a burst lands on
    :meth:`~repro.serve.ScenarioService.submit` as concurrent awaits.
    SERVE_CELLS distinct full-fidelity no-op cells are submitted at
    once and gathered (admission, queue, coalescing index, batch
    formation, ``Runner.run`` hand-off on the batch thread), so the
    cells/sec number is the scheduler's own overhead ceiling — not
    simulation time.
    """
    import asyncio

    from repro.run import Runner, scenario, workload
    from repro.serve import ScenarioService

    # Idempotent: re-registering the same function is a no-op.
    workload("bench.serve_noop")(_serve_noop_cell)
    cells = [scenario("bench.serve_noop", i=i) for i in range(SERVE_CELLS)]

    async def session():
        async with ScenarioService(Runner(jobs=1, cache=None)) as service:
            return await asyncio.gather(*(service.submit(sc) for sc in cells))

    def run_once():
        results = asyncio.run(session())
        assert all(r.ok for r in results)

    wall = _best_time(run_once, repeats=5)
    return {"serve_submit_cells_per_sec": SERVE_CELLS / wall}


# -- surrogate fast path -----------------------------------------------------


def bench_analytic_serve() -> dict[str, float]:
    """Analytic request throughput of the serve tier, closed loop.

    Explains the analytic share of ``serve_mixed``'s interactive
    connection (``wall_s``, ``serve.latency_p50_ms``): one request at
    a time, each awaited through
    :meth:`~repro.serve.ScenarioService.submit` before the next is
    sent.  The SERVE_CELLS analytic cells resolve on the inline fast
    path — no queue slot, no batch, no worker process — so cells/sec
    here is the Scenario -> service admission -> Runner per-request
    overhead, nothing else.  Guarded by an absolute floor
    (:data:`ABS_FLOORS`): escalation, pool spin-up or a queue hop per
    analytic request all cost multiples of the budget.
    """
    import asyncio

    from repro.run import Runner, scenario, workload
    from repro.serve import ScenarioService

    # Idempotent, like the serve_noop registration above; the exact
    # fast-form declaration is what routes the cells inline.
    workload("bench.analytic_noop", fast="exact")(_serve_noop_cell)
    cells = [
        scenario("bench.analytic_noop", fidelity="analytic", i=i)
        for i in range(SERVE_CELLS)
    ]
    runner = Runner(jobs=1, cache=None)

    async def session():
        async with ScenarioService(runner) as service:
            return [await service.submit(sc) for sc in cells]

    try:
        def run_once():
            results = asyncio.run(session())
            assert all(r.ok and not r.escalated for r in results)

        wall = _best_time(run_once, repeats=9)
    finally:
        runner.close()
    return {"analytic_serve_cells_per_sec": SERVE_CELLS / wall}


def bench_explore() -> dict[str, float]:
    """Candidate throughput of the exploration driver.

    A full grid exploration over EXPLORE_CELLS analytic noop
    candidates: optimizer ask/tell, scenario materialization,
    replicate fan-out and the runner's fast-path resolution (one
    ``Runner.run`` call per round), per candidate cell.  Cells/sec
    here is the explore loop's own overhead ceiling — the number that
    makes thousand-candidate studies interactive — so it carries an
    absolute floor (:data:`ABS_FLOORS`): a worker pool spin-up or
    per-candidate journal/asyncio overhead costs multiples, never
    percents.
    """
    from repro.explore import Objective, explore, search_space
    from repro.run import Runner, workload

    # Idempotent, like the serve_noop registration above.
    workload("bench.explore_noop", fast="exact")(_explore_noop_cell)
    side = int(EXPLORE_CELLS ** 0.5)
    space = search_space(
        "bench.explore_noop",
        {"i": tuple(range(side)), "j": tuple(range(side))},
    )
    runner = Runner(jobs=1, cache=None)
    try:
        def run_once():
            result = explore(
                space, Objective(metric=0), optimizer="grid",
                runner=runner,
            )
            assert result.stats.candidates == side * side
            assert result.stats.errors == 0

        wall = _best_time(run_once, repeats=5)
    finally:
        runner.close()
    return {"explore_candidates_per_sec": side * side / wall}


def bench_compare() -> dict[str, float]:
    """Cell throughput of a cross-machine comparison.

    A full two-machine ``repro compare`` grid (every app x size) with
    a shared uncached runner: registry build of both clusters, the
    closed-form application models, and the who-wins fold, per cell.
    The zoo's interactivity contract — a four-machine comparison must
    feel instant — hangs off this number, so it carries an absolute
    floor (:data:`ABS_FLOORS`): losing the registry's build cache or
    the models' memoization costs multiples, never percents.
    """
    from repro.compare import compare_scenarios, run_compare
    from repro.run import Runner

    machines = ("fat_numa", "gpu_node")
    n_cells = len(compare_scenarios(machines))
    runner = Runner(jobs=1, cache=None)
    try:
        def run_once():
            result = run_compare(machines, runner=runner)
            assert len(result.rows) == n_cells

        wall = _best_time(run_once, repeats=5)
    finally:
        runner.close()
    return {"compare_cells_per_sec": n_cells / wall}


def bench_surrogate_eval() -> dict[str, float]:
    """Single-cell latency of a modeled fast form.

    ``ext_noise.cell`` is the one *modeled* family (everything else is
    an exact passthrough), so this is the closed-form path through
    :func:`execute_scenario`: resolve the workload's fast form, enter
    the fault context, price the analytic network model.  Microseconds
    per cell is the design budget the fidelity tier's escalation
    threshold assumes.
    """
    from repro.run import execute_scenario, scenario

    cell = scenario(
        "ext_noise.cell", fidelity="analytic",
        ranks=8, noise=0.25, n_seeds=2,
    )
    inner = 200

    def run_once():
        for _ in range(inner):
            execute_scenario(cell)

    us = _best_time(run_once, repeats=5) / inner * 1e6
    return {"surrogate_eval_us": us}


# -- harness -----------------------------------------------------------------

BENCHES = [
    bench_des_pingpong,
    bench_des_pingpong_faulted,
    bench_des_alltoall,
    bench_md,
    bench_cost_model,
    bench_serve,
    bench_analytic_serve,
    bench_explore,
    bench_compare,
    bench_surrogate_eval,
]

#: The ``--quick`` subset: the kernels the perf gates hang off
#: (healthy + faulted DES, the cost model's cold/lookup numbers, and
#: the analytic serve floor — the last costs milliseconds to measure).
QUICK_BENCHES = [
    bench_des_pingpong,
    bench_des_pingpong_faulted,
    bench_cost_model,
    bench_analytic_serve,
]


def measure(quick: bool = False) -> dict[str, float]:
    kernels: dict[str, float] = {}
    for bench in QUICK_BENCHES if quick else BENCHES:
        kernels.update(bench())
    return kernels


def higher_is_better(name: str) -> bool:
    return name.endswith("_per_sec")


def regressions(
    committed: dict[str, float],
    fresh: dict[str, float],
    tolerance: float,
) -> list[str]:
    """Human-readable descriptions of every kernel past tolerance."""
    problems = []
    for name, old in committed.items():
        new = fresh.get(name)
        if new is None:
            problems.append(f"{name}: kernel disappeared from the harness")
            continue
        if higher_is_better(name):
            change = (old - new) / old
        else:
            change = (new - old) / old
        tol = max(tolerance, LOOSE_TOLERANCES.get(name, 0.0))
        if change > tol:
            problems.append(
                f"{name}: {old:.6g} -> {new:.6g} "
                f"({change * 100.0:.1f}% worse, tolerance {tol * 100.0:.0f}%)"
            )
    return problems


def gate_violations(fresh: dict[str, float]) -> list[str]:
    """Absolute-gate failures: seed-value caps and the faulted floor.

    Unlike :func:`regressions` these do not compare against the
    committed numbers — a kernel that creeps back past its reclaimed
    seed value fails even if each individual refresh stayed within
    relative tolerance.
    """
    problems = []
    for name, cap in SEED_GATES.items():
        value = fresh.get(name)
        if value is not None and value > cap:
            problems.append(
                f"{name}: {value:.6g} above the absolute seed gate {cap:.6g}"
            )
    for name, floor in ABS_FLOORS.items():
        value = fresh.get(name)
        if value is not None and value < floor:
            problems.append(
                f"{name}: {value:,.0f} below the absolute floor {floor:,.0f}"
            )
    healthy = fresh.get("des_pingpong_events_per_sec")
    faulted = fresh.get("des_pingpong_faulted_events_per_sec")
    if healthy and faulted:
        ratio = faulted / healthy
        if ratio < FAULTED_RATIO_FLOOR:
            problems.append(
                f"faulted/healthy DES ratio {ratio:.2f} below the "
                f"{FAULTED_RATIO_FLOOR} floor "
                f"({faulted:,.0f} / {healthy:,.0f} events/s)"
            )
    return problems


def _meta() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
    }


def load_results() -> dict:
    if RESULTS_PATH.exists():
        return json.loads(RESULTS_PATH.read_text())
    return {"schema": 1, "baseline": None, "current": None, "speedup": {}}


def save_results(doc: dict) -> None:
    baseline = doc.get("baseline") or {}
    current = doc.get("current") or {}
    doc["speedup"] = {}
    for name, old in (baseline.get("kernels") or {}).items():
        new = (current.get("kernels") or {}).get(name)
        if new is None or not old or not new:
            continue
        factor = new / old if higher_is_better(name) else old / new
        doc["speedup"][name] = round(factor, 3)
    RESULTS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) if any kernel regressed past tolerance "
             "vs the committed BENCH_kernels.json",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="refresh the 'current' section of BENCH_kernels.json",
    )
    parser.add_argument(
        "--capture-baseline", action="store_true",
        help="record this measurement as the 'baseline' (before) section",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="fractional regression that fails --check (default 0.20)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fast gate: only the DES ping-pong (healthy + faulted) and "
             "cost-model kernels, 3 repeats each; incompatible with "
             "--write/--capture-baseline (partial kernel sets must not "
             "overwrite the committed record)",
    )
    args = parser.parse_args(argv)

    if args.quick and (args.write or args.capture_baseline):
        print("--quick measures a kernel subset; refusing to write it",
              file=sys.stderr)
        return 2

    global _quick_mode
    _quick_mode = args.quick
    fresh = measure(quick=args.quick)
    width = max(len(name) for name in fresh)
    for name, value in sorted(fresh.items()):
        print(f"{name:<{width}}  {value:,.3f}")

    doc = load_results()
    if args.capture_baseline:
        doc["baseline"] = {"kernels": fresh, "meta": _meta()}
    if args.write:
        doc["current"] = {"kernels": fresh, "meta": _meta()}
    if args.capture_baseline or args.write:
        save_results(doc)
        print(f"wrote {RESULTS_PATH}")

    if args.check:
        committed = (doc.get("current") or {}).get("kernels")
        if not committed:
            print("no committed 'current' kernels to check against", file=sys.stderr)
            return 2
        if args.quick:
            # Only the measured subset can be compared; the full gate
            # (and the disappeared-kernel audit) is bench-check's job.
            committed = {k: v for k, v in committed.items() if k in fresh}
        problems = regressions(committed, fresh, args.tolerance)
        problems += gate_violations(fresh)
        if problems:
            print("\nBENCH REGRESSION:", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nall {len(committed)} kernels within "
              f"{args.tolerance * 100.0:.0f}% of committed numbers "
              f"(+ absolute gates)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
