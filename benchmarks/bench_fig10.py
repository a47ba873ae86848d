"""Benchmark: Fig. 10: multinode b_eff (fast sweep).

The full sweep (21 cells, up to 2,048 ranks) runs in about 2 s on a
2-core x86_64 VM; its output is pinned by ``tests/golden/beff_full.txt``.

Regenerates the experiment and prints the rows/series the paper
reports; the benchmark measures the end-to-end harness time.
"""

from repro.core import run_experiment


def test_fig10(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig10", fast=True),
        iterations=1,
        rounds=1,
    )
    print()
    print(result.format())
    assert result.rows
