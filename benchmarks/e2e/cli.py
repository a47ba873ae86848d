"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e`` runs ``--rounds`` interleaved rounds over
the workloads declared in ``BENCHMARK.json``: ``paper_full_cold``
first in every round, the rest in seed-shuffled order.  Each run
measures for ``run_seconds`` (from ``BENCHMARK.json``, so every record
is measured the same way).  It prints every metric with its unit,
median, quartiles and run count, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only if every output matched the golden and no operation
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path

from benchmarks.e2e.workloads import ROOT, BenchmarkError, run_workload

DECLARATION = ROOT / "BENCHMARK.json"


def _box() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _parser(workloads: list[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the repro package.",
    )
    p.add_argument("--workload", action="append", choices=workloads,
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--rounds", type=int, default=5,
                   help="interleaved rounds; each runs every workload once")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; round r uses seed + r")
    p.add_argument("--trace", metavar="DIR",
                   help="traced runs: report per-layer metrics and write "
                        "DIR/<workload>.trace.json")
    p.add_argument("--out", metavar="FILE",
                   help="write every run and the summary as JSON")
    p.add_argument("--write-golden", action="store_true",
                   help="recompute golden.json from the current code and exit")
    return p


def _round_order(workloads: list[str], rng: random.Random) -> list[str]:
    first = [w for w in workloads if w == "paper_full_cold"]
    rest = [w for w in workloads if w != "paper_full_cold"]
    rng.shuffle(rest)
    return first + rest


def main(argv: list[str] | None = None, run_seconds: int | None = None) -> int:
    """Run the benchmark; ``run_seconds``, when given, must match
    ``BENCHMARK.json`` (``run.py``, the command an automated runner
    calls, passes it explicitly)."""
    if not (ROOT / "src" / "repro").is_dir() or not DECLARATION.is_file():
        print(f"error: no repro sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.e2e import golden as golden_mod
    from benchmarks.e2e.stats import summary

    decl = json.loads(DECLARATION.read_text())
    seconds = decl["run_seconds"]
    args = _parser([w["name"] for w in decl["workloads"]]).parse_args(argv)
    if args.write_golden:
        golden_mod.write(ROOT)
        print(f"wrote {golden_mod.GOLDEN}")
        return 0
    if args.rounds < 1:
        print("error: --rounds must be positive", file=sys.stderr)
        return 2
    if run_seconds is not None and run_seconds != seconds:
        print(f"error: runs last run_seconds={seconds} from BENCHMARK.json, "
              f"not {run_seconds}", file=sys.stderr)
        return 2
    traced = args.trace is not None
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in decl[kind]}
    golden = golden_mod.load()
    workloads = args.workload or [w["name"] for w in decl["workloads"]]

    runs: list[dict] = []
    problems: list[str] = []
    rng = random.Random(args.seed)
    try:
        for r in range(args.rounds):
            for name in _round_order(workloads, rng):
                run = run_workload(name, args.seed + r, seconds, traced, golden)
                if traced:
                    problems += _write_trace(run, Path(args.trace), r)
                runs.append(run)
                problems += run["problems"]
                print(
                    f"round {r} {name}: {run['passes']} passes, "
                    f"{run['failed']}/{run['attempted']} failed", flush=True,
                )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = {
        name: {
            metric: summary([run["metrics"][metric] for run in runs
                             if run["workload"] == name])
            for metric in units
        }
        for name in workloads
    }
    _print_table(table, units)
    served = [run["serve"] for run in runs if "serve" in run]
    if served:
        print("serve_mixed client side (per-layer metrics, not gated):")
        for key in served[0]:
            s = summary([run[key] for run in served])
            print(f"  {key:<31} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['n']:>3}")
    for p in problems[:20]:
        print(f"FAILED {p}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = failed == 0 and not problems
    if args.out:
        doc = {
            "box": _box(), "seed": args.seed, "rounds": args.rounds,
            "run_seconds": seconds, "traced": traced, "summary": table,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if len(workloads) == 1 and args.rounds == 1:
        metrics = {
            m: {"value": runs[0]["metrics"][m], "unit": u} for m, u in units.items()
        }
    else:
        metrics = {
            name: {
                m: {"value": s["median"], "unit": units[m], "q1": s["q1"],
                    "q3": s["q3"], "n": s["n"]}
                for m, s in per.items()
            }
            for name, per in table.items()
        }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _write_trace(run: dict, trace_dir: Path, round_index: int) -> list[str]:
    """Validate the run's trace document and write it out."""
    from repro.obs.export import validate_chrome_trace

    doc = run.pop("trace")
    bad = validate_chrome_trace(doc)
    suffix = "" if round_index == 0 else f"-{round_index}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{run['workload']}{suffix}.trace.json"
    path.write_text(json.dumps(doc) + "\n")
    return [f"{path}: invalid trace: {b}" for b in bad[:3]]


def _print_table(table: dict, units: dict) -> None:
    print(f"{'workload':<18} {'metric':<30} {'unit':<6} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, per in table.items():
        for metric, s in per.items():
            print(f"{name:<18} {metric:<30} {units[metric]:<6} "
                  f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['n']:>3}")
