"""The command named in ``BENCHMARK.json``, runnable without ``PYTHONPATH``:

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

One round of one workload, as ``python -m benchmarks.e2e --rounds 1``
would run it.  ``--seconds`` is accepted only when it equals
``run_seconds`` in ``BENCHMARK.json``: run length is fixed by the
benchmark, never chosen per call.  ``--trace 1`` reports the per-layer
metrics and writes the trace to ``benchmarks/e2e/.work/traces``.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The package is imported from the repository root, the code under test
# from src/; the script's own directory would shadow nothing useful.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--seconds", type=int, required=True)
parser.add_argument("--trace", choices=("0", "1"), default="0")
args = parser.parse_args()

argv = ["--workload", args.workload, "--seed", str(args.seed), "--rounds", "1"]
if args.trace == "1":
    argv += ["--trace", str(HERE / ".work" / "traces")]
sys.exit(main(argv, run_seconds=args.seconds))
