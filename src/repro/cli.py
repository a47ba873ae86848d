"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    All registered experiments with descriptions.
``run <id> [--fast] [--format text|csv|markdown|json]``
    Regenerate one table/figure and print it.
``all [--fast]``
    Regenerate every experiment (the full characterization).
``machine``
    Print the Columbia configuration (Table 1).
``calibration``
    Print the calibration provenance index.
``trace <id> [--trace DIR]``
    Run the experiment's representative DES cell under the tracer and
    write a Perfetto-loadable Chrome trace + spans CSV, printing the
    compute/comm/wait decomposition and the critical path.
``serve [--host H] [--port P] [--max-queue N] [--max-batch N]
[--quota-rate R [--quota-burst B]]``
    Long-lived scenario service (JSON lines over TCP): queues,
    coalesces and micro-batches scenario cells against the shared
    cache; analytic-fidelity requests resolve inline through the
    surrogate.  ``--quota-rate``/``--quota-burst`` add per-client
    token-bucket admission.  See docs/api.md for the protocol and
    :class:`repro.serve.ServeClient`.
``calibrate --fidelity [--full] [--bound ERR] [--check]``
    Measure surrogate-vs-DES relative error per workload family
    across every registered experiment and persist the error table
    the fidelity dispatch consults (``--check`` verifies the
    committed table instead of rewriting it).
``explore [--study NAME | --workload ID --space SPEC --objective SPEC]``
    Design-space search over the simulated machine: a declarative
    space (machine/placement/parameter/fault dimensions), a quantile
    objective, and a seeded optimizer (``grid``/``random``/
    ``evolve``) submitting candidate batches through the serve tier
    — analytic-fidelity candidates resolve inline at ~1e5 cells/s.
    ``--journal FILE`` writes a resumable JSONL trajectory; budgets
    via ``--max-cells``/``--max-seconds``.  See docs/explore.md.

``run``, ``all`` and ``report`` share the run-pipeline options:
``--jobs N|auto`` executes cells on a process pool (output is
row-for-row identical to sequential), ``--cache-dir DIR`` points the
content-addressed cell cache somewhere specific (default
``.repro-cache``, or ``$REPRO_CACHE_DIR``), and ``--no-cache``
disables reuse entirely.  A warm cache makes ``repro all`` nearly
instant: only cells whose scenario, calibration fingerprint, or
package version changed are re-simulated.  ``--fidelity
analytic|hybrid`` routes cells through the calibrated surrogate tier
instead of the DES (transparently escalating cells it cannot vouch
for; ``--refuse-escalation`` fails them instead).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import experiment_specs, run_experiment
from repro.core.calibration import calibration_report
from repro.core.export import to_csv, to_json, to_markdown
from repro.errors import ReproError
from repro.machine.specs import format_table1

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Application-Based Performance "
            "Characterization of the Columbia Supercluster' (SC 2005)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", default="1", metavar="N",
            help="cells to run in parallel (a number, or 'auto' for "
                 "one per CPU); default 1 (sequential)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="ignore and don't update the cell result cache",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cell cache directory (default .repro-cache or "
                 "$REPRO_CACHE_DIR); a re-run on the same directory "
                 "resumes an interrupted sweep",
        )
        p.add_argument(
            "--trace", default=None, metavar="DIR", dest="trace_dir",
            help="write a per-cell Chrome/Perfetto trace JSON into DIR "
                 "(forces cell execution; cached results are bypassed)",
        )
        p.add_argument(
            "--keep-going", action="store_true",
            help="exit 0 even when cells failed (failures still print)",
        )
        p.add_argument(
            "--faults", default=None, metavar="SPEC",
            help="inject machine faults into every cell, e.g. "
                 "'degrade:link_class=inter_node,latency_factor=2; "
                 "drop:probability=0.01; seed=1' (see docs/architecture.md)",
        )
        p.add_argument(
            "--fidelity", default=None,
            choices=("analytic", "hybrid", "full"),
            help="execution tier for cells that don't declare their "
                 "own: 'analytic' evaluates through the calibrated "
                 "surrogate (microseconds/cell, no workers), 'hybrid' "
                 "executes compute with an analytic network, 'full' "
                 "(default) runs the DES path",
        )
        p.add_argument(
            "--refuse-escalation", action="store_true",
            help="fail cells the surrogate cannot serve within the "
                 "calibrated bound instead of transparently running "
                 "them at full fidelity",
        )
        p.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="re-run a failed cell up to N times with exponential "
                 "backoff before recording the failure",
        )

    sub.add_parser("list", help="list all experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment_id", help="e.g. table2, fig5, ablation_cache")
    run_p.add_argument("--fast", action="store_true",
                       help="trimmed sweeps (for smoke runs)")
    run_p.add_argument(
        "--format", default="text",
        choices=("text", "csv", "markdown", "json", "chart"),
        help="output rendering ('chart' draws the figure as ASCII)",
    )
    add_runner_options(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--fast", action="store_true")
    add_runner_options(all_p)

    trace_p = sub.add_parser(
        "trace",
        help="trace one experiment's representative cell "
             "(Perfetto JSON + decomposition)",
    )
    trace_p.add_argument("experiment_id", help="e.g. fig9, fig7")
    trace_p.add_argument(
        "--trace", default="out", metavar="DIR", dest="trace_dir",
        help="directory for the trace JSON + spans CSV (default ./out)",
    )

    sub.add_parser("machine", help="print the machine configuration")
    sub.add_parser("calibration", help="print calibration provenance")

    claims_p = sub.add_parser(
        "claims", help="verify every prose claim (the reproduction certificate)"
    )
    claims_p.add_argument("claim_ids", nargs="*", help="subset of claim ids")

    report_p = sub.add_parser(
        "report", help="write the full characterization report directory"
    )
    report_p.add_argument("--output", required=True, help="directory to write")
    report_p.add_argument("--fast", action="store_true", default=True)
    report_p.add_argument("--full", dest="fast", action="store_false",
                          help="full sweeps (slow: minutes of DES)")
    add_runner_options(report_p)

    advise_p = sub.add_parser(
        "advise", help="lint a job layout against the paper's lessons"
    )
    advise_p.add_argument("--nodes", type=int, default=1)
    advise_p.add_argument("--node-type", default="BX2b",
                          choices=("3700", "BX2a", "BX2b"))
    advise_p.add_argument("--fabric", default="numalink4",
                          choices=("numalink4", "infiniband"))
    advise_p.add_argument("--ranks", type=int, required=True)
    advise_p.add_argument("--threads", type=int, default=1)
    advise_p.add_argument("--stride", type=int, default=1)
    advise_p.add_argument("--unpinned", action="store_true")
    advise_p.add_argument("--released-mpt", action="store_true")
    advise_p.add_argument("--bandwidth-bound", action="store_true")

    hpcc_p = sub.add_parser(
        "hpcc", help="run the HPCC subset and print an hpccoutf-style summary"
    )
    hpcc_p.add_argument("--node-type", default="BX2b",
                        choices=("3700", "BX2a", "BX2b"))
    hpcc_p.add_argument("--cpus", type=int, default=64)

    serve_p = sub.add_parser(
        "serve", help="long-lived scenario service (JSON lines over TCP)"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default 127.0.0.1)")
    serve_p.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 7447; 0 lets the OS pick)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=1024, metavar="N",
        help="queued cells before admission control rejects "
             "with a retry-after hint (default 1024)",
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="most cells packed into one runner batch (default 32)",
    )
    serve_p.add_argument(
        "--batch-wait", type=float, default=0.0, metavar="SECONDS",
        help="linger before forming a batch so request bursts pack "
             "together (default 0: dispatch immediately)",
    )
    serve_p.add_argument(
        "--quota-rate", type=float, default=None, metavar="R",
        help="per-client admission quota: sustained requests/second "
             "per client_id (token bucket; off unless set)",
    )
    serve_p.add_argument(
        "--quota-burst", type=float, default=None, metavar="B",
        help="per-client burst allowance in requests (default 10x "
             "--quota-rate)",
    )
    add_runner_options(serve_p)

    explore_p = sub.add_parser(
        "explore",
        help="design-space search over the simulated machine",
    )
    explore_p.add_argument(
        "--study", default=None, metavar="NAME",
        help="run a named worked study ('cheapest-bx2', "
             "'worst-faults' or 'cheapest-machine') instead of "
             "declaring a space by hand",
    )
    explore_p.add_argument(
        "--workload", default=None, metavar="ID",
        help="workload id the candidates run (e.g. fig9.cell)",
    )
    explore_p.add_argument(
        "--space", default=None, metavar="SPEC",
        help="search dimensions, e.g. 'machine.clock_ghz=1.3:1.9:4; "
             "machine.l3_mb=6,9,12; faults=none|boot_cpuset' "
             "(see docs/explore.md for the grammar)",
    )
    explore_p.add_argument(
        "--objective", default=None, metavar="SPEC",
        help="what to optimize, e.g. 'metric=3,mode=max,"
             "quantile=0.95,repeats=5' (metric is a result-row "
             "column index)",
    )
    explore_p.add_argument(
        "--base", default=None, metavar="SPEC",
        help="fixed values every candidate shares, e.g. "
             "'cpus=256,threads=2'",
    )
    explore_p.add_argument(
        "--space-fidelity", default="analytic",
        choices=("analytic", "hybrid", "full"),
        help="execution tier candidate cells run at (default "
             "analytic: the surrogate fast path)",
    )
    explore_p.add_argument(
        "--optimizer", default=None,
        choices=("grid", "random", "evolve"),
        help="search strategy (default: random, or the study's own)",
    )
    explore_p.add_argument(
        "--seed", type=int, default=0,
        help="optimizer seed (the whole exploration is deterministic "
             "from it; default 0)",
    )
    explore_p.add_argument(
        "--batch", type=int, default=64, metavar="N",
        help="candidates asked per optimizer round (default 64)",
    )
    explore_p.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="budget: most replicate cells submitted",
    )
    explore_p.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="budget: wall-clock limit for the search loop",
    )
    explore_p.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append the trajectory to FILE (JSONL); a re-run with "
             "the same space/objective/optimizer resumes from it",
    )
    add_runner_options(explore_p)

    compare_p = sub.add_parser(
        "compare",
        help="run the application suite across machine-zoo configs "
             "and report who-wins/crossover tables",
    )
    compare_p.add_argument(
        "--machines", required=True, metavar="A,B,...",
        help="comma-separated registered machine names "
             "(see repro machine for the zoo)",
    )
    compare_p.add_argument(
        "--experiments", default=None, metavar="APP,...",
        help="comma-separated apps (default: all of "
             "bt-mz,sp-mz,overflow,stream,dgemm)",
    )
    compare_p.add_argument(
        "--sizes", default=None, metavar="N,...",
        help="comma-separated CPU counts (default: 16,64,256)",
    )
    add_runner_options(compare_p)

    cal_p = sub.add_parser(
        "calibrate",
        help="measure surrogate-vs-full error and persist the table",
    )
    cal_p.add_argument(
        "--fidelity", action="store_true",
        help="calibrate the fidelity tiers: run every experiment cell "
             "through both the full path and the surrogate, record "
             "per-family relative error, verify exact-passthrough "
             "claims, and write the error table the Runner's "
             "escalate/refuse policy consults",
    )
    cal_p.add_argument(
        "--fast", action="store_true", default=True,
        help="trimmed sweeps (default)",
    )
    cal_p.add_argument(
        "--full", dest="fast", action="store_false",
        help="full sweeps (slow: minutes of DES)",
    )
    cal_p.add_argument(
        "--bound", type=float, default=None, metavar="ERR",
        help="acceptable worst-case relative error for modeled "
             "surrogates (default 0.5)",
    )
    cal_p.add_argument(
        "--output", default=None, metavar="FILE",
        help="where to write the table (default: the committed "
             "src/repro/surrogate/calibration.json)",
    )
    cal_p.add_argument(
        "--check", action="store_true",
        help="don't write: verify the committed table is fresh and "
             "every family stays within its bound (exit 1 otherwise)",
    )
    return parser


def _render(result, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(result)
    if fmt == "markdown":
        return to_markdown(result)
    if fmt == "json":
        return to_json(result)
    if fmt == "chart":
        from repro.core.series import default_chart

        return default_chart(result)
    return result.format()


def _build_runner(args):
    """A :class:`repro.run.Runner` from the shared CLI options."""
    from repro.run import ResultCache, Runner

    cache = (
        None if args.no_cache
        else ResultCache(cache_dir=args.cache_dir)
    )
    faults = None
    if getattr(args, "faults", None):
        from repro.faults import parse_faults

        faults = parse_faults(args.faults)
    policy = (
        "refuse" if getattr(args, "refuse_escalation", False) else "escalate"
    )
    return Runner(
        jobs=args.jobs, cache=cache, trace_dir=args.trace_dir,
        faults=faults, fidelity=getattr(args, "fidelity", None),
        surrogate_policy=policy, retries=getattr(args, "retries", 0),
    )


def _run_explore(args) -> int:
    """The ``repro explore`` verb: studies or hand-declared spaces."""
    from repro.explore import (
        ExploreDriver,
        parse_objective,
        parse_space,
        study_driver,
    )
    from repro.explore.space import _parse_scalar

    runner = _build_runner(args)
    options = dict(
        seed=args.seed, runner=runner, journal=args.journal,
        max_cells=args.max_cells, max_seconds=args.max_seconds,
        batch_size=args.batch,
    )
    try:
        if args.study is not None:
            driver = study_driver(
                args.study, optimizer=args.optimizer, **options
            )
        else:
            if not (args.workload and args.space and args.objective):
                print(
                    "error: pass --study NAME, or all three of "
                    "--workload/--space/--objective",
                    file=sys.stderr,
                )
                return 2
            base = {}
            if args.base:
                for pair in filter(
                    None, (p.strip() for p in args.base.split(","))
                ):
                    key, eq, value = pair.partition("=")
                    if not eq:
                        print(
                            f"error: --base expects key=value pairs, "
                            f"got {pair!r}",
                            file=sys.stderr,
                        )
                        return 2
                    base[key.strip()] = _parse_scalar(value.strip())
            space = parse_space(
                args.space, args.workload, base=base,
                fidelity=args.space_fidelity,
            )
            driver = ExploreDriver(
                space, parse_objective(args.objective),
                optimizer=args.optimizer or "random", **options
            )
        result = driver.run()
        print(result.report())
    finally:
        runner.close()
    return _finish(runner, args, {
        f"explore.{name}": value
        for name, value in vars(result.stats).items()
        if isinstance(value, int)
    })


def _run_compare(args) -> int:
    """The ``repro compare`` verb: cross-machine who-wins tables."""
    from repro.compare import run_compare

    machines = tuple(
        filter(None, (m.strip() for m in args.machines.split(",")))
    )
    apps = None
    if args.experiments:
        apps = tuple(
            filter(None, (a.strip() for a in args.experiments.split(",")))
        )
    sizes = None
    if args.sizes:
        sizes = tuple(
            int(s) for s in filter(None, (x.strip() for x in args.sizes.split(",")))
        )
    runner = _build_runner(args)
    try:
        result = run_compare(
            machines, apps=apps, sizes=sizes, runner=runner,
            fidelity=getattr(args, "fidelity", None) or "analytic",
        )
        print(result.format())
    finally:
        runner.close()
    return _finish(runner, args)


def _run_calibrate(args) -> int:
    """The ``repro calibrate --fidelity`` job."""
    from repro.surrogate.calibrate import (
        COMMITTED_TABLE,
        DEFAULT_BOUND,
        ErrorTable,
        calibrate,
    )

    if not args.fidelity:
        print(
            "error: nothing to calibrate — pass --fidelity to "
            "(re)measure the surrogate error table",
            file=sys.stderr,
        )
        return 2
    if args.check:
        table = ErrorTable.load(args.output or COMMITTED_TABLE)
        if table is None:
            print("calibration table missing or unreadable", file=sys.stderr)
            return 1
        if table.stale:
            print(
                "calibration table is STALE (constants or version "
                "changed); re-run: repro calibrate --fidelity",
                file=sys.stderr,
            )
            return 1
        bad = [
            e for e in table.entries.values()
            if not table.permits(e.family, e.mode)
        ]
        for e in bad:
            print(
                f"family {e.family!r} {e.mode}: rel_err "
                f"{e.rel_err:.3g} exceeds bound {table.bound:g}",
                file=sys.stderr,
            )
        print(
            f"calibration table fresh: {len(table.entries)} entries, "
            f"bound {table.bound:g}, {len(bad)} over bound"
        )
        return 1 if bad else 0
    bound = DEFAULT_BOUND if args.bound is None else args.bound
    table = calibrate(fast=args.fast, bound=bound)
    path = table.save(args.output or COMMITTED_TABLE)
    print(f"wrote {path} ({len(table.entries)} family/mode entries)")
    width = max(len(f) for f, _ in table.entries) + 2
    for (family, mode), e in sorted(table.entries.items()):
        tag = "exact" if e.exact else (
            "ok" if e.rel_err <= bound else "OVER BOUND"
        )
        print(
            f"  {family:<{width}} {mode:<9} rel_err={e.rel_err:<10.4g} "
            f"cells={e.cells:<4} {tag}"
        )
    return 0


def _finish(runner, args, extra: dict | None = None) -> int:
    """End a runner verb: one ``stats {json}`` line on stderr (the
    runner's snapshot plus ``extra``, keys sorted), then the failures;
    returns the exit code."""
    stats = runner.snapshot()
    stats.update(extra or {})
    print("stats " + json.dumps(stats, sort_keys=True), file=sys.stderr)
    return _report_failures(runner, args)


def _report_failures(runner, args) -> int:
    """Print ``FAILED <scenario-id>: <error>`` lines; pick exit code."""
    for line in runner.stats.failure_lines():
        print(line, file=sys.stderr)
    if runner.stats.errors and not args.keep_going:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for spec in experiment_specs():
                print(
                    f"{spec.experiment_id:<20} {spec.anchor:<10} {spec.title}"
                )
        elif args.command == "run":
            runner = _build_runner(args)
            try:
                result = run_experiment(
                    args.experiment_id, fast=args.fast, runner=runner
                )
            finally:
                runner.close()
            print(_render(result, args.format))
            return _finish(runner, args)
        elif args.command == "all":
            runner = _build_runner(args)
            try:
                for spec in experiment_specs():
                    result = spec.run(fast=args.fast, runner=runner)
                    print(result.format())
                    print()
            finally:
                runner.close()
            return _finish(runner, args)
        elif args.command == "trace":
            from repro.obs.trace_run import trace_experiment

            print(trace_experiment(args.experiment_id, args.trace_dir).report())
        elif args.command == "machine":
            from repro.machine.topology import topology_report

            print(format_table1())
            print()
            print(topology_report())
            from repro.machine.zoo import list_machines, machine_config

            print()
            print("machine zoo (repro compare --machines A,B,...):")
            for name in list_machines():
                cfg = machine_config(name)
                print(
                    f"  {name:<10} {cfg.n_nodes:>3} nodes  "
                    f"{cfg.total_cpus:>6} CPUs  fabric={cfg.fabric:<10} "
                    f"{cfg.description}"
                )
        elif args.command == "calibration":
            print(calibration_report())
        elif args.command == "claims":
            from repro.core.claims import format_claims, verify_claims

            results = verify_claims(args.claim_ids or None)
            print(format_claims(results))
            if not all(r.passed for r in results):
                return 1
        elif args.command == "report":
            from repro.core.suite import write_report

            runner = _build_runner(args)
            try:
                files = write_report(
                    args.output, fast=args.fast, runner=runner
                )
            finally:
                runner.close()
            print(f"wrote {len(files)} files to {args.output}")
            return _finish(runner, args)
        elif args.command == "advise":
            from repro.machine.advisor import advise
            from repro.machine.cluster import multinode, single_node
            from repro.machine.infiniband import MPTVersion
            from repro.machine.node import NodeType
            from repro.machine.placement import Placement, PinningMode

            node_type = {"3700": NodeType.A3700, "BX2a": NodeType.BX2A,
                         "BX2b": NodeType.BX2B}[args.node_type]
            mpt = (MPTVersion.MPT_1_11R if args.released_mpt
                   else MPTVersion.MPT_1_11B)
            cluster = (
                single_node(node_type) if args.nodes == 1
                else multinode(args.nodes, node_type=node_type,
                               fabric=args.fabric, mpt=mpt)
            )
            placement = Placement(
                cluster, n_ranks=args.ranks, threads_per_rank=args.threads,
                stride=args.stride,
                pinning=(PinningMode.UNPINNED if args.unpinned
                         else PinningMode.PINNED),
                spread_nodes=args.nodes > 1,
            )
            advice = advise(placement, bandwidth_bound=args.bandwidth_bound)
            if not advice:
                print("layout looks clean — no paper lessons apply")
            for a in advice:
                print(f"[{a.severity:<7}] {a.rule} ({a.paper_ref}): {a.message}")
        elif args.command == "serve":
            from repro.serve import DEFAULT_PORT, QuotaPolicy, serve_forever

            quota = None
            if args.quota_rate is not None:
                burst = (
                    args.quota_burst if args.quota_burst is not None
                    else 10.0 * args.quota_rate
                )
                quota = QuotaPolicy(rate=args.quota_rate, burst=burst)
            return serve_forever(
                _build_runner(args),
                host=args.host,
                port=DEFAULT_PORT if args.port is None else args.port,
                max_queue=args.max_queue,
                max_batch=args.max_batch,
                batch_wait=args.batch_wait,
                quota=quota,
            )
        elif args.command == "explore":
            return _run_explore(args)
        elif args.command == "compare":
            return _run_compare(args)
        elif args.command == "calibrate":
            return _run_calibrate(args)
        elif args.command == "hpcc":
            from repro.hpcc.report import hpcc_summary
            from repro.machine.node import NodeType

            node_type = {"3700": NodeType.A3700, "BX2a": NodeType.BX2A,
                         "BX2b": NodeType.BX2B}[args.node_type]
            print(hpcc_summary(node_type, n_cpus=args.cpus).format())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # piped into head etc.
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
