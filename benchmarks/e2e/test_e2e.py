"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 collects only
``tests/``).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e import golden as golden_mod  # noqa: E402
from benchmarks.e2e import workloads  # noqa: E402
from benchmarks.e2e.compare import verdict  # noqa: E402
from benchmarks.e2e.stats import tail  # noqa: E402
from benchmarks.e2e.tracing import Recorder, chrome_document, install  # noqa: E402

DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def golden():
    return golden_mod.load()


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = tail(range(1000))
    assert (value, pct) == (989, 99.0)
    value, pct = tail([float(x) for x in range(23)][::-1])
    assert value == 12.0 and sum(x > value for x in range(23)) == 10
    assert tail(range(11)) == (0, 100.0 / 11)
    assert tail(range(10)) is None


def test_seed_determines_the_inputs(golden):
    experiments = golden["experiments"]
    assert workloads.experiment_order(3, experiments) == workloads.experiment_order(3, experiments)
    assert workloads.experiment_order(3, experiments) != workloads.experiment_order(4, experiments)
    assert sorted(workloads.experiment_order(3, experiments)) == sorted(experiments)

    def stream(seed):
        interactive, bursts = workloads.serve_streams(seed, golden)
        return (
            [(sc.key(), fid) for sc, fid, _ in interactive],
            [[sc.key() for sc, _ in burst] for burst in bursts],
        )

    first, again, other = stream(7), stream(7), stream(8)
    assert first == again
    assert first != other
    # The sweep covers the whole pool, so every seed executes every cell.
    pool = {sc.key() for sc in golden_mod.serve_pool()}
    assert {k for burst in first[1] for k in burst} == pool


def test_corrupted_golden_digest_is_a_failure(golden):
    want = golden["format"]["fast"]

    def pass_result():
        return {
            "digests": dict(want), "failures": [], "executed": 169,
            "errors": 0, "cells": 169,
        }

    good = pass_result()
    workloads.check_pass(good, want, warm=False)
    assert good["failed"] == 0 and not good["problems"]

    corrupt = dict(want, fig7="0" * 64)
    bad = pass_result()
    workloads.check_pass(bad, corrupt, warm=False)
    assert bad["failed"] == 1 and "fig7" in bad["problems"][0]

    warm = pass_result()
    workloads.check_pass(warm, want, warm=True)
    assert warm["failed"] == 169  # every warm-pass cache miss counts


def test_golden_matches_current_output(golden):
    from repro.core.registry import resolve_experiment
    from repro.run import Runner

    text = resolve_experiment("table2").run(fast=True, runner=Runner()).format()
    assert golden_mod.text_digest(text) == golden["format"]["fast"]["table2"]


def test_recorder_is_shared_safely_by_threads():
    import threading

    rec = Recorder()
    work = rec.wrap(lambda: None, "layer")

    def hammer():
        for _ in range(2000):
            with rec.span("outer"):
                work()
            rec.add("n")

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert rec.layers["outer"][0] == rec.layers["layer"][0] == 8000
    assert rec.counts["n"] == 8000
    ids = [s[0] for s in rec.spans]
    assert len(ids) == len(set(ids)) == 16000


def test_trace_is_valid_and_self_time_within_total():
    from repro.core.registry import resolve_experiment
    from repro.obs.export import validate_chrome_trace
    from repro.run import Runner

    rec = Recorder()
    restore = install(rec)
    try:
        with rec.span("pass"):
            with rec.span("core.exp.sec42_stride", cell="sec42_stride"):
                resolve_experiment("sec42_stride").run(fast=True, runner=Runner())
    finally:
        rec.enabled = False
        restore()
    assert {"pass", "run.runner", "run.cell", "machine.build"} <= set(rec.layers)
    for name, (calls, total, self_s) in rec.layers.items():
        assert calls >= 1
        assert 0.0 <= self_s <= total + 1e-9, name
    ids = {s[0] for s in rec.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in rec.spans)
    doc = json.loads(json.dumps(chrome_document([("test", rec.spans)])))
    assert validate_chrome_trace(doc) == []


def test_compare_verdicts():
    a = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert verdict(a, [x * 1.2 for x in a], 0.1, True)[1] == "regressed"
    assert verdict(a, [x * 0.8 for x in a], 0.1, True)[1] == "better"
    assert verdict(a, [x * 0.8 for x in a], 0.1, False)[1] == "regressed"
    assert verdict(a, a, 0.1, True)[1] == "unchanged"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert verdict(a, noisy, 0.1, True)[1] == "unresolved"


def test_run_length_is_fixed_by_the_declaration(tmp_path):
    from benchmarks.e2e.cli import main as cli_main
    from benchmarks.e2e.compare import main as compare_main

    assert cli_main(["--rounds", "1"], run_seconds=DECL["run_seconds"] + 1) == 2
    for name, seconds in (("a", 10), ("b", 20)):
        record = {"run_seconds": seconds, "summary": {}}
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
    assert compare_main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2


def test_benchmark_json_declares_every_emitted_metric(golden):
    assert set(DECL) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in DECL["workloads"]] == list(workloads.WORKLOADS)
    for w in DECL["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    passes = [{"wall_s": 1.0, "maxrss_mb": 1.0, "setup_s": 1.0, "slowdown": 1.0}]
    emitted_e2e = workloads.end_to_end(passes, passes)
    emitted_layers = workloads.layer_metrics({}, {}, passes, golden["experiments"], 0.0)
    declared_e2e = {m["name"]: m for m in DECL["end_to_end"]}
    declared_layers = {m["name"]: m for m in DECL["per_layer"]}
    assert set(emitted_e2e) == set(declared_e2e)
    assert set(emitted_layers) == set(declared_layers)
    for m in DECL["end_to_end"] + DECL["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in DECL["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = declared_e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECL["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in DECL["per_layer"])
    names = [m["name"] for m in DECL["end_to_end"] + DECL["per_layer"]]
    assert len(names) == len(set(names))
