"""Compare two benchmark records written by ``--out``.

``python -m benchmarks.e2e.compare A.json B.json`` prints one row per
(end-to-end metric, workload): both medians and quartiles, the relative
change of B against A, and a verdict from the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread, (q3 - q1) / median of either
  side, is wider than the bound and the runs do not separate (neither
  every B run better than every A run, nor every one worse);
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the bound;
* ``unchanged`` — otherwise.

Exits 1 if any row regressed, 2 if the records were measured with
different run lengths.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.stats import quartiles

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _spread(values) -> float:
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float, lower_better: bool):
    """``(relative change of B vs A, verdict)``; a positive change is
    a higher value, whichever direction is better."""
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma
    worse = change if lower_better else -change

    def beats(x, y):
        return x < y if lower_better else x > y

    separated = all(beats(y, x) for x in a for y in b) or all(
        beats(x, y) for x in a for y in b
    )
    if max(_spread(a), _spread(b)) > bound and not separated:
        return change, "unresolved"
    if worse > bound:
        return change, "regressed"
    if -worse > bound:
        return change, "better"
    return change, "unchanged"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m benchmarks.e2e.compare A.json B.json",
              file=sys.stderr)
        return 2
    ra, rb = (json.loads(Path(p).read_text()) for p in args)
    if ra["run_seconds"] != rb["run_seconds"]:
        print(f"error: runs of {ra['run_seconds']} s and {rb['run_seconds']} s "
              f"do not compare", file=sys.stderr)
        return 2
    a, b = ra["summary"], rb["summary"]
    metrics = json.loads(DECLARATION.read_text())["end_to_end"]
    print(f"{'workload':<18} {'metric':<16} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'B q1..q3':>23} {'change':>8}  verdict")
    regressed = False
    for workload in a:
        if workload not in b:
            continue
        for m in metrics:
            name = m["name"]
            sa, sb = a[workload][name], b[workload][name]
            change, word = verdict(
                sa["values"], sb["values"], m["bound"], m["better"] == "lower"
            )
            regressed |= word == "regressed"
            print(f"{workload:<18} {name:<16} {sa['median']:>11.5g} "
                  f"{sa['q1']:>11.5g}..{sa['q3']:<10.5g} {sb['median']:>11.5g} "
                  f"{sb['q1']:>11.5g}..{sb['q3']:<10.5g} {change:>+8.1%}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
