"""The run pipeline: scenarios, sweeps, cache correctness, runner
parallelism, and CLI integration."""

import pytest

from repro.core import run_experiment
from repro.errors import ConfigurationError
from repro.run import (
    MachineSpec,
    PlacementSpec,
    ResultCache,
    Runner,
    execute_scenario,
    scenario,
    sweep,
    workload,
)


@workload("test.echo")
def _echo_cell(x=0, y=0):
    return [(x, y, x + y)]


@workload("test.boom")
def _boom_cell(x=0):
    raise ValueError(f"cell exploded at x={x}")


@workload("test.numeric")
def _numeric_cell(x=0):
    return [(float(x), x, True, None), (x * 2.0, -x)]


@workload("test.strings")
def _strings_cell(x=0):
    return [("label", float(x), x)]


@workload("test.geometry")
def _geometry_cell(placement=None, cluster=None):
    if placement is not None:
        return [(placement.n_ranks, placement.cluster.total_cpus)]
    return [(0, cluster.total_cpus)]


class TestScenario:
    def test_params_sorted_and_hashable(self):
        a = scenario("test.echo", y=2, x=1)
        b = scenario("test.echo", x=1, y=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_key_distinguishes_params_and_workload(self):
        base = scenario("test.echo", x=1, y=2)
        assert base.key() != scenario("test.echo", x=1, y=3).key()
        assert base.key() != scenario("test.other", x=1, y=2).key()

    def test_key_distinguishes_machine_spec(self):
        a = scenario("test.geometry", machine=MachineSpec.legacy(node_type="BX2b"))
        b = scenario("test.geometry", machine=MachineSpec.legacy(node_type="3700"))
        assert a.key() != b.key()

    def test_rejects_non_scalar_params(self):
        with pytest.raises(ConfigurationError):
            scenario("test.echo", x=object())

    def test_sweep_expands_cartesian_in_order(self):
        cells = sweep("test.echo", {"x": (1, 2), "y": (10, 20)})
        points = [s.kwargs() for s in cells]
        assert points == [
            {"x": 1, "y": 10}, {"x": 1, "y": 20},
            {"x": 2, "y": 10}, {"x": 2, "y": 20},
        ]

    def test_sweep_where_and_base(self):
        cells = sweep(
            "test.echo", {"x": (1, 2, 3)}, base={"y": 5},
            where=lambda p: p["x"] != 2,
        )
        assert [s.kwargs()["x"] for s in cells] == [1, 3]
        assert all(s.kwargs()["y"] == 5 for s in cells)

    def test_machine_and_placement_materialized(self):
        sc = scenario(
            "test.geometry",
            machine=MachineSpec.legacy(node_type="BX2b", n_cpus=64),
            placement=PlacementSpec(n_ranks=8),
        )
        assert execute_scenario(sc) == ((8, 64),)

    def test_machine_only_passes_cluster(self):
        sc = scenario(
            "test.geometry", machine=MachineSpec.legacy(node_type="3700", n_cpus=32)
        )
        assert execute_scenario(sc) == ((0, 32),)

    def test_custom_bx2_override_routes_through_builder(self):
        spec = MachineSpec.legacy(clock_ghz=1.5, l3_mb=9)
        cluster = spec.build()
        proc = cluster.nodes[0].brick.processor
        assert proc.clock_hz == pytest.approx(1.5e9)
        assert "9MB" in proc.name


class TestCache:
    def test_same_scenario_hits(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        sc = scenario("test.echo", x=1, y=2)
        assert cache.get(sc) is None
        cache.put(sc, [(1, 2, 3)])
        assert cache.get(sc) == [(1, 2, 3)]
        # A fresh cache instance reads the same cell back from disk
        # (and restores tuple rows from the JSON lists).
        again = ResultCache(cache_dir=tmp_path)
        assert again.get(sc) == [(1, 2, 3)]

    def test_changed_param_misses(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(scenario("test.echo", x=1, y=2), [(1, 2, 3)])
        assert cache.get(scenario("test.echo", x=1, y=9)) is None

    def test_changed_calibration_fingerprint_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(cache_dir=tmp_path)
        sc = scenario("test.echo", x=1, y=2)
        cache.put(sc, [(1, 2, 3)])
        monkeypatch.setattr(
            "repro.run.cache.calibration_fingerprint", lambda: "retuned"
        )
        assert ResultCache(cache_dir=tmp_path).get(sc) is None

    def test_changed_package_version_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(cache_dir=tmp_path)
        sc = scenario("test.echo", x=1, y=2)
        cache.put(sc, [(1, 2, 3)])
        monkeypatch.setattr("repro.run.cache._package_version", lambda: "99.0")
        assert ResultCache(cache_dir=tmp_path).get(sc) is None

    def test_memory_only_writes_nothing(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, memory_only=True)
        cache.put(scenario("test.echo", x=1, y=2), [(1, 2, 3)])
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_cell_is_a_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        sc = scenario("test.echo", x=1, y=2)
        cache.put(sc, [(1, 2, 3)])
        store = tmp_path / "cells.jsonl"
        header = store.read_text().splitlines()[0]
        store.write_text(header + "\n{not json\n")
        assert ResultCache(cache_dir=tmp_path).get(sc) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        sc = scenario("test.echo", x=1, y=2)
        cache.put(sc, [(1, 2, 3)])
        cache.clear()
        assert ResultCache(cache_dir=tmp_path).get(sc) is None


class TestRunner:
    def test_records_in_input_order_with_cache_mix(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        warm = scenario("test.echo", x=5, y=5)
        cache.put(warm, [(5, 5, 10)])
        runner = Runner(jobs=1, cache=cache)
        cold = scenario("test.echo", x=1, y=1)
        records = runner.run([cold, warm, scenario("test.echo", x=2, y=2)])
        assert [r.rows for r in records] == [
            ((1, 1, 2),), ((5, 5, 10),), ((2, 2, 4),),
        ]
        assert [r.cached for r in records] == [False, True, False]
        assert runner.stats.cached == 1 and runner.stats.executed == 2

    def test_failing_cell_reports_instead_of_killing_sweep(self):
        runner = Runner(jobs=1)
        records = runner.run([
            scenario("test.echo", x=1, y=1),
            scenario("test.boom", x=7),
            scenario("test.echo", x=2, y=2),
        ])
        assert records[0].ok and records[2].ok
        assert not records[1].ok
        assert "cell exploded at x=7" in records[1].error
        assert runner.stats.errors == 1

    def test_spec_run_notes_failures(self):
        from repro.core.registry import ExperimentSpec

        spec = ExperimentSpec(
            "test_exp", "short", "extension", "title", ("x", "y", "sum"),
            scenarios=lambda fast=False: [
                scenario("test.echo", x=1, y=1), scenario("test.boom", x=3),
            ],
            notes="declared note",
        )
        result = spec.run(runner=Runner(jobs=1))
        assert result.title == "title"
        assert result.rows == [(1, 1, 2)]
        assert result.notes.startswith("declared note\n\nFAILED cells:\n")
        assert "test.boom" in result.notes
        assert "cell exploded at x=3" in result.notes
        # The declaration itself keeps only what was declared.
        assert spec.notes == "declared note"

    def test_unknown_workload(self):
        runner = Runner(jobs=1)
        (record,) = runner.run([scenario("test.does_not_exist")])
        assert not record.ok
        assert "unknown workload" in record.error

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            Runner(jobs=0)
        with pytest.raises(ConfigurationError):
            Runner(jobs="many")
        assert Runner(jobs="auto").jobs >= 1


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("eid", ["table2", "fig8", "ablation_ibcards"])
    def test_jobs2_row_for_row_identical(self, eid):
        seq = run_experiment(eid, fast=True, runner=Runner(jobs=1))
        par = run_experiment(eid, fast=True, runner=Runner(jobs=2))
        assert par.columns == seq.columns
        assert par.rows == seq.rows

    def test_two_runs_share_one_pool_and_match_jobs1(self, built_pools):
        batches = (
            [scenario("test.numeric", x=i) for i in range(6)],
            [scenario("test.strings", x=i) for i in range(3)],
        )
        runner = Runner(jobs=2)
        try:
            par = [runner.run(cells) for cells in batches]
        finally:
            runner.close()
        assert len(built_pools) == 1
        seq = [Runner(jobs=1).run(cells) for cells in batches]
        for a, b in zip(sum(seq, []), sum(par, [])):
            assert a.ok and b.ok
            assert a.rows == b.rows
            for ra, rb in zip(a.rows, b.rows):
                assert [type(v) for v in ra] == [type(v) for v in rb]

    def test_warm_cache_replays_identically(self, tmp_path):
        cold_runner = Runner(jobs=1, cache=ResultCache(cache_dir=tmp_path))
        cold = run_experiment("table5", fast=True, runner=cold_runner)
        warm_runner = Runner(jobs=1, cache=ResultCache(cache_dir=tmp_path))
        warm = run_experiment("table5", fast=True, runner=warm_runner)
        assert warm.rows == cold.rows
        assert warm_runner.stats.cached == warm_runner.stats.total > 0
        assert warm_runner.stats.executed == 0


class TestCLIIntegration:
    def test_unknown_id_suggests_close_match(self, capsys):
        from repro.cli import main

        code = main(["run", "tabel2"])
        assert code != 0
        err = capsys.readouterr().err
        assert "did you mean" in err and "table2" in err
        assert "Traceback" not in err

    def test_all_fast_warm_cache_hits(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cells")
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        out_cold = capsys.readouterr().out
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == out_cold

    def test_no_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cells")
        assert main(
            ["run", "table1", "--no-cache", "--cache-dir", cache_dir]
        ) == 0
        assert not (tmp_path / "cells").exists()

    def test_unusable_cache_dir_is_a_typed_error(self, tmp_path, capsys):
        from repro.cli import main

        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        code = main(["run", "table2", "--fast", "--cache-dir", str(blocker)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "table1"], ["all", "--fast"],
        ["report", "--output", "out"], ["serve"],
        ["explore", "--study", "cheapest-bx2"],
        ["compare", "--machines", "columbia"],
    ], ids=lambda argv: argv[0])
    def test_checkpoint_option_is_gone(self, argv, tmp_path, capsys):
        # --cache-dir is the resumable store; --checkpoint is a usage
        # error on every command that takes runner options.
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv + ["--checkpoint", str(tmp_path / "sweep.jsonl")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err


@workload("test.mpi_ring")
def _mpi_ring_cell(n=4):
    from repro.machine.cluster import single_node
    from repro.machine.node import NodeType
    from repro.machine.placement import Placement
    from repro.mpi import run_mpi

    def prog(comm):
        comm.isend((comm.rank + 1) % comm.size, 64.0)
        yield comm.irecv((comm.rank - 1) % comm.size)

    job = run_mpi(Placement(single_node(NodeType.BX2B), n_ranks=n), prog)
    return [(n, job.elapsed)]


class TestTraceCapture:
    def test_traced_cell_writes_perfetto_file(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        sc = scenario("test.mpi_ring", n=4)
        runner = Runner(jobs=1, trace_dir=str(tmp_path))
        (record,) = runner.run([sc])
        assert record.ok
        (trace_file,) = tmp_path.glob("*.trace.json")
        assert trace_file.name == f"test.mpi_ring-{sc.key()[:12]}.trace.json"
        doc = json.loads(trace_file.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["messages"] == 4

    def test_tracing_bypasses_warm_cache(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path / "cells", memory_only=False)
        sc = scenario("test.mpi_ring", n=4)
        Runner(jobs=1, cache=cache).run([sc])
        traced = Runner(jobs=1, cache=cache, trace_dir=str(tmp_path / "tr"))
        traced.run([sc])
        assert traced.stats.executed == 1 and traced.stats.cached == 0
        assert list((tmp_path / "tr").glob("*.trace.json"))

    def test_uninstrumented_cell_writes_nothing(self, tmp_path):
        runner = Runner(jobs=1, trace_dir=str(tmp_path))
        (record,) = runner.run([scenario("test.echo", x=1, y=2)])
        assert record.ok
        assert list(tmp_path.iterdir()) == []


class TestFailureReporting:
    def _failed_runner(self):
        runner = Runner(jobs=1)
        runner.run([scenario("test.boom", x=7), scenario("test.echo", x=1)])
        return runner

    def test_failures_recorded_with_scenario_id(self):
        runner = self._failed_runner()
        (line,) = runner.stats.failure_lines()
        assert line.startswith("FAILED test.boom(")
        assert "cell exploded at x=7" in line

    def test_report_failures_exit_codes(self, capsys):
        import argparse

        from repro.cli import _report_failures

        runner = self._failed_runner()
        strict = argparse.Namespace(keep_going=False)
        assert _report_failures(runner, strict) == 1
        assert "FAILED test.boom(" in capsys.readouterr().err

        lenient = argparse.Namespace(keep_going=True)
        assert _report_failures(runner, lenient) == 0
        # Failures still print even when tolerated.
        assert "FAILED test.boom(" in capsys.readouterr().err

    def test_clean_run_exits_zero(self, capsys):
        import argparse

        from repro.cli import _report_failures

        runner = Runner(jobs=1)
        runner.run([scenario("test.echo", x=1, y=1)])
        args = argparse.Namespace(keep_going=False)
        assert _report_failures(runner, args) == 0
        assert capsys.readouterr().err == ""

    def test_failures_list_is_capped_errors_keep_counting(self):
        from repro.run.runner import MAX_FAILURES

        runner = Runner(jobs=1)
        extra = 7
        runner.run([
            scenario("test.boom", x=i) for i in range(MAX_FAILURES + extra)
        ])
        assert runner.stats.errors == MAX_FAILURES + extra
        assert len(runner.stats.failures) == MAX_FAILURES
        # The first failures are the ones kept, in sweep order.
        assert "x=0" in runner.stats.failures[0]
        assert f"x={MAX_FAILURES - 1}" in runner.stats.failures[-1]


class TestStatsLine:
    """Every runner verb ends with exactly one ``stats {json}`` line on
    stderr: the runner's snapshot, keys sorted (``repro all`` is pinned
    by tests/test_output_golden.py)."""

    @pytest.mark.parametrize("argv", [
        ["run", "table1"],
        ["report", "--fast", "--output", "{tmp}/report"],
        ["compare", "--machines", "fat_numa,gpu_node",
         "--experiments", "dgemm"],
        ["explore", "--study", "cheapest-bx2", "--max-cells", "10"],
    ], ids=lambda argv: argv[0])
    def test_verb_prints_one_stats_line(self, argv, tmp_path, capsys):
        import json

        from repro.cli import main

        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert main(argv + ["--no-cache"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err and err[-1].startswith("stats ")
        assert [ln for ln in err if ln.startswith("stats ")] == err[-1:]
        body = err[-1][len("stats "):]
        stats = json.loads(body)
        assert list(stats) == sorted(stats)
        assert stats["runner.cells"] > 0 and stats["runner.errors"] == 0
        assert "cache.hits" not in stats  # --no-cache
        if argv[0] == "explore":
            assert stats["explore.candidates"] == 10
            assert stats["explore.cells_submitted"] == stats["runner.cells"]
        else:
            assert not any(k.startswith("explore.") for k in stats)

    def test_report_closes_its_runner(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.run import runner as runner_mod

        closed = []
        close = runner_mod.Runner.close

        def spy(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(runner_mod.Runner, "close", spy)
        argv = ["report", "--fast", "--no-cache", "--output", str(tmp_path)]
        assert main(argv) == 0
        assert len(closed) == 1
