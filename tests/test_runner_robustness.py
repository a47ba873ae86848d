"""Runner resilience: dead workers, per-cell retries, resuming a sweep
from its cell store, cache canonicalization, and the calibration
audit."""

import os
import re

import pytest

import repro.core  # noqa: F401  (imported first: repro.run's harness half lives there)
from repro.faults import FaultSpec, OsJitter, current_injector
from repro.run import ResultCache, Runner, scenario, workload
from repro.run.runner import WORKER_DIED


@workload("test.rr_echo")
def _echo(x=0):
    return [(x, x * 2)]


@workload("test.rr_suicide")
def _suicide():
    # The pathological worker: takes the whole process down, the way
    # an OOM kill or a segfaulting extension would.
    os._exit(3)


@workload("test.rr_flaky")
def _flaky(counter_dir=""):
    # Fails until two attempts have been burned (transient failure).
    path = os.path.join(counter_dir, "attempts")
    n = int(open(path).read()) if os.path.exists(path) else 0
    with open(path, "w") as fh:
        fh.write(str(n + 1))
    if n < 2:
        raise RuntimeError(f"transient failure #{n + 1}")
    return [("ok", n + 1)]


@workload("test.rr_nested")
def _nested(x=0):
    return [("point", (x, x + 1, (x + 2,)), None)]


@workload("test.rr_sees_faults")
def _sees_faults():
    return [(current_injector() is not None,)]


class TestWorkerDeath:
    def test_dead_worker_does_not_kill_the_sweep(self):
        cells = [
            scenario("test.rr_echo", x=1),
            scenario("test.rr_suicide"),
            scenario("test.rr_echo", x=2),
            scenario("test.rr_echo", x=3),
        ]
        runner = Runner(jobs=2)
        records = runner.run(cells)
        assert len(records) == 4
        dead = records[1]
        assert not dead.ok
        assert dead.error == WORKER_DIED
        assert [r.rows for r in records if r.ok] == [
            ((1, 2),), ((2, 4),), ((3, 6),)
        ]
        assert runner.stats.errors == 1
        (line,) = runner.stats.failure_lines()
        assert line.startswith("FAILED test.rr_suicide")

    def test_worker_death_discards_the_pool_and_next_run_rebuilds(
        self, built_pools
    ):
        runner = Runner(jobs=2)
        try:
            first = runner.run([
                scenario("test.rr_echo", x=1),
                scenario("test.rr_suicide"),
                scenario("test.rr_echo", x=2),
            ])
            assert first[1].error == WORKER_DIED
            assert runner._pool is None  # the poisoned pool is gone
            second = runner.run(
                [scenario("test.rr_echo", x=5), scenario("test.rr_echo", x=6)]
            )
            assert [r.rows for r in second] == [((5, 10),), ((6, 12),)]
            assert runner._pool is built_pools[-1]
            assert runner._pool is not built_pools[0]
        finally:
            runner.close()

    def test_failing_and_dead_cells_both_reported(self):
        cells = [
            scenario("test.rr_suicide"),
            scenario("test.boom2", x=5),
            scenario("test.rr_echo", x=4),
        ]
        runner = Runner(jobs=2)
        records = runner.run(cells)
        assert records[0].error == WORKER_DIED
        assert "boom2" in records[1].error
        assert records[2].ok
        assert runner.stats.errors == 2


@workload("test.boom2")
def _boom2(x=0):
    raise ValueError(f"boom2 at x={x}")


class TestRetries:
    def test_transient_failure_recovers_with_retries(self, tmp_path):
        sc = scenario("test.rr_flaky", counter_dir=str(tmp_path))
        (record,) = Runner(jobs=1, retries=2, retry_backoff=0.001).run([sc])
        assert record.ok
        assert record.rows == (("ok", 3),)

    def test_no_retries_records_the_failure(self, tmp_path):
        sc = scenario("test.rr_flaky", counter_dir=str(tmp_path))
        (record,) = Runner(jobs=1).run([sc])
        assert not record.ok
        assert "transient failure #1" in record.error

    def test_negative_retries_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Runner(retries=-1)


class TestCheckpoint:
    """A sweep resumes from its cache directory's cell store."""

    def test_resume_skips_completed_cells(self, tmp_path):
        cells = [
            scenario("test.rr_echo", x=1),
            scenario("test.rr_echo", x=2),
            scenario("test.boom2", x=1),
        ]
        first = Runner(jobs=1, cache=ResultCache(tmp_path))
        first.run(cells)
        assert first.stats.executed == 3

        resumed = Runner(jobs=1, cache=ResultCache(tmp_path))
        records = resumed.run(cells)
        # The two successes replay from the store; the failure (never
        # stored) re-runs.
        assert resumed.stats.cached == 2
        assert resumed.stats.executed == 1
        assert records[0].cached and records[0].rows == ((1, 2),)
        assert not records[2].ok

    def test_journal_rows_survive_bit_identical(self, tmp_path):
        sc = scenario("test.rr_nested", x=7)
        (cold,) = Runner(jobs=1, cache=ResultCache(tmp_path)).run([sc])
        (warm,) = Runner(jobs=1, cache=ResultCache(tmp_path)).run([sc])
        assert warm.cached
        assert warm.rows == cold.rows  # nested tuples, not JSON lists

    def test_torn_tail_line_is_ignored(self, tmp_path):
        sc1 = scenario("test.rr_echo", x=1)
        sc2 = scenario("test.rr_echo", x=2)
        Runner(jobs=1, cache=ResultCache(tmp_path)).run([sc1, sc2])
        with open(tmp_path / "cells.jsonl", "a") as fh:
            fh.write('{"key": "abc", "rows": [[1,')  # the crash
        resumed = Runner(jobs=1, cache=ResultCache(tmp_path))
        resumed.run([sc1, sc2])
        assert resumed.stats.cached == 2

    def test_resume_after_torn_tail_keeps_the_next_cell(self, tmp_path):
        # A kill leaves a torn line; the first cell stored after the
        # resume must not be glued onto it (and so lost on reopen).
        store = tmp_path / "cells.jsonl"
        a, b, c = (scenario("test.rr_echo", x=x) for x in (1, 2, 3))
        ResultCache(tmp_path).put(a, [(1, 2)])
        with open(store, "a") as fh:
            fh.write('{"key": "b", "ro')  # the crash
        resumed = ResultCache(tmp_path)
        assert resumed.get(b) is None
        resumed.put(c, [(3, 4)])
        reopened = ResultCache(tmp_path)
        assert reopened.get(a) == [(1, 2)]
        assert reopened.get(c) == [(3, 4)]
        assert len(store.read_text().splitlines()) == 3

    def test_stale_context_invalidates_journal(self, tmp_path, monkeypatch):
        # Cells stored under another calibration are never served: the
        # context is part of every key.
        sc = scenario("test.rr_echo", x=1)
        with monkeypatch.context() as m:
            m.setattr("repro.run.cache.calibration_fingerprint",
                      lambda: "deadbeef")
            Runner(jobs=1, cache=ResultCache(tmp_path)).run([sc])
        resumed = Runner(jobs=1, cache=ResultCache(tmp_path))
        resumed.run([sc])
        assert resumed.stats.cached == 0 and resumed.stats.executed == 1


class TestCacheCanonicalization:
    def test_cold_and_warm_rows_identical_for_nested_structures(self, tmp_path):
        sc = scenario("test.rr_nested", x=3)
        cold_cache = ResultCache(cache_dir=tmp_path)
        (cold,) = Runner(jobs=1, cache=cold_cache).run([sc])
        # A fresh cache instance reads the JSON from disk (cold path);
        # the same instance answers from memory (warm path).
        disk_rows = ResultCache(cache_dir=tmp_path).get(sc)
        warm_rows = cold_cache.get(sc)
        assert disk_rows == warm_rows == list(cold.rows)
        ((_, nested, none_v),) = disk_rows
        assert isinstance(nested, tuple) and isinstance(nested[2], tuple)
        assert none_v is None

    def test_memory_hit_matches_disk_hit_types(self, tmp_path):
        sc = scenario("test.rr_nested", x=4)
        cache = ResultCache(cache_dir=tmp_path)
        Runner(jobs=1, cache=cache).run([sc])
        warm = cache.get(sc)
        cold = ResultCache(cache_dir=tmp_path).get(sc)
        assert repr(warm) == repr(cold)  # same values AND same types


class TestRunnerFaultOverlay:
    def test_runner_faults_reach_the_cell(self):
        spec = FaultSpec((OsJitter(amplitude=0.01),), seed=2)
        (record,) = Runner(jobs=1, faults=spec).run(
            [scenario("test.rr_sees_faults")]
        )
        assert record.rows == ((True,),)
        (plain,) = Runner(jobs=1).run([scenario("test.rr_sees_faults")])
        assert plain.rows == ((False,),)

    def test_overlay_changes_the_cache_key(self):
        spec = FaultSpec((OsJitter(amplitude=0.01),))
        cache = ResultCache(memory_only=True)
        sc = scenario("test.rr_echo", x=1)
        Runner(jobs=1, cache=cache, faults=spec).run([sc])
        # The same scenario without the overlay must miss.
        plain = Runner(jobs=1, cache=cache)
        plain.run([sc])
        assert plain.stats.cached == 0

    def test_cli_faults_flag_parses(self, capsys):
        from repro.cli import main

        assert main([
            "run", "table1", "--no-cache",
            "--faults", "jitter:amplitude=0.01;seed=4",
        ]) == 0


class TestCalibrationConsistency:
    """Every ``NAME = value`` calibration entry must match the live
    constant it documents — the fingerprint (and thus the result
    cache) trusts these strings."""

    ENTRY_RE = re.compile(
        r"^([A-Z][A-Z0-9_]*)(?:\[([^\]]+)\])? = ([^ ]+)$"
    )

    def _parseable_entries(self):
        from repro.core.calibration import CALIBRATION

        out = []
        for c in CALIBRATION:
            m = self.ENTRY_RE.match(c.name)
            if not m:
                continue
            try:
                value = float(m.group(3))
            except ValueError:
                continue
            out.append((c, m.group(1), m.group(2), value))
        return out

    @staticmethod
    def _subscript(mapping, subscript):
        # Entries write keys the way the paper does ("3700"); live
        # tables may key on ints, strings, or enums (NodeType.A3700).
        for key in ([int(subscript)] if subscript.isdigit() else []) + [subscript]:
            if key in mapping:
                return mapping[key]
        for key, value in mapping.items():
            name = getattr(key, "name", str(key))
            if subscript in name:
                return value
        raise KeyError(subscript)

    def test_documented_values_match_live_constants(self):
        import importlib

        entries = self._parseable_entries()
        # The audit must actually audit: the parseable set includes at
        # least the faults constants, DGEMM, and the 3700 quirk.
        assert len(entries) >= 5
        for entry, attr_name, subscript, documented in entries:
            module = importlib.import_module(entry.module)
            live = getattr(module, attr_name)
            if subscript is not None:
                live = self._subscript(live, subscript)
            assert float(live) == pytest.approx(documented, rel=1e-9), (
                f"calibration entry {entry.name!r} documents {documented} "
                f"but {entry.module}.{attr_name} is {live}"
            )

    def test_faults_constants_are_audited(self):
        names = {e[1] for e in self._parseable_entries()}
        assert {"BOOT_CPUSET_PENALTY", "MPT_ANOMALY_EXCESS",
                "MPT_ANOMALY_LATENCY"} <= names
