"""Cross-process semantics and hygiene of the shared ResultCache.

Every ``repro`` process pointed at one cache directory (two CLI runs,
or a CLI run beside ``repro serve``) shares its cells, so these tests
pin the properties that makes safe: absolute-path anchoring, the
bounded LRU memory mirror (and its eviction accounting),
stale-temp/corrupt-cell hygiene, and torn-free concurrent put/get
through atomic publish.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.run import Runner, scenario, workload
from repro.run.cache import (
    DEFAULT_MEMORY_ENTRIES,
    ResultCache,
    resolve_cache_dir,
)


@workload("cache_shared.cell")
def _cell(x: int = 0) -> list[tuple]:
    return [(x, x * x)]


def _cells(n: int):
    return [scenario("cache_shared.cell", x=i) for i in range(n)]


class TestLRUBound:
    def test_memory_mirror_is_bounded_and_counts_evictions(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=3)
        for i, sc in enumerate(_cells(5)):
            cache.put(sc, [(i, "x" * 64)])
        assert len(cache._memory) == 3
        assert cache.stats.evictions == 2
        assert cache.stats.evicted_bytes > 0
        # Evicted entries are only gone from the mirror; disk serves
        # them back (and re-mirrors them, evicting something else).
        rows = cache.get(scenario("cache_shared.cell", x=0))
        assert rows == [(0, "x" * 64)]
        assert cache.stats.hits == 1
        assert len(cache._memory) == 3

    def test_lru_order_touch_on_hit(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=2)
        a, b, c = _cells(3)
        cache.put(a, [(0,)])
        cache.put(b, [(1,)])
        assert cache.get(a) == [(0,)]  # a is now most recent
        cache.put(c, [(2,)])  # evicts b, not a
        assert cache.key_for(a) in cache._memory
        assert cache.key_for(b) not in cache._memory
        assert cache.stats.evictions == 1

    def test_disk_backed_default_cap(self, tmp_path):
        assert (
            ResultCache(tmp_path).max_memory_entries
            == DEFAULT_MEMORY_ENTRIES
        )

    def test_memory_only_is_unbounded_by_default(self):
        # The mirror IS the store for a memory-only cache; evicting
        # from it would silently lose results.
        cache = ResultCache(memory_only=True)
        assert cache.max_memory_entries is None
        for i, sc in enumerate(_cells(DEFAULT_MEMORY_ENTRIES + 1)):
            cache.put(sc, [(i,)])
        assert cache.stats.evictions == 0
        assert cache.get(scenario("cache_shared.cell", x=0)) == [(0,)]

    def test_zero_cap_disables_mirroring(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=0)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        assert not cache._memory
        assert cache.get(sc) == [(0,)]  # straight from disk
        assert not cache._memory

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, max_memory_entries=-1)

    def test_summary_keeps_prefix_and_appends_evictions(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(tmp_path,
                                                  max_memory_entries=1))
        runner.run(_cells(3))
        summary = runner.stats.summary()
        # The exact prefix the Makefile smoke regexes parse:
        m = re.search(
            r"cache: (\d+) hits, (\d+) misses, (\d+) writes", summary
        )
        assert m, summary
        assert int(m.group(3)) == 3
        assert re.search(r"writes, (\d+) evictions", summary), summary

    def test_summary_omits_evictions_when_none(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(tmp_path))
        runner.run(_cells(1))
        assert "evictions" not in runner.stats.summary()


class TestAbsolutePaths:
    def test_relative_dir_resolved_at_construction(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache("relcache")
        assert cache.cache_dir.is_absolute()
        assert cache.cache_dir == tmp_path / "relcache"
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        # A chdir after opening must not split the store.
        other = tmp_path / "elsewhere"
        other.mkdir()
        monkeypatch.chdir(other)
        fresh = ResultCache(tmp_path / "relcache", max_memory_entries=0)
        assert fresh.get(sc) == [(0,)]

    def test_resolve_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache_dir() == tmp_path / "envcache"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.chdir(tmp_path)
        assert resolve_cache_dir() == tmp_path / ".repro-cache"


class TestHygiene:
    def test_stale_tmp_swept_on_open(self, tmp_path):
        sub = tmp_path / "ab"
        sub.mkdir(parents=True)
        stale = sub / "leaked123.tmp"
        stale.write_text("{half a json")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = sub / "inflight456.tmp"
        fresh.write_text("{still being written")
        ResultCache(tmp_path)
        assert not stale.exists(), "stale temp should be swept on open"
        assert fresh.exists(), "a young temp may belong to a live writer"

    def test_clear_sweeps_all_temps(self, tmp_path):
        cache = ResultCache(tmp_path)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        sub = next(p for p in tmp_path.iterdir() if p.is_dir())
        (sub / "fresh.tmp").write_text("x")
        cache.clear()
        assert not list(tmp_path.glob("*/*.tmp"))
        assert not list(tmp_path.glob("*/*.json"))
        assert cache.get(sc) is None

    def test_corrupt_cell_unlinked_on_read(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=0)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        path = cache._path(cache.key_for(sc))
        path.write_text("}torn{")
        assert cache.get(sc) is None
        assert not path.exists(), "corrupt cell should be unlinked"
        # The key is fully reusable afterwards.
        cache.put(sc, [(0,)])
        assert cache.get(sc) == [(0,)]

    def test_missing_rows_key_is_corruption(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=0)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        path = cache._path(cache.key_for(sc))
        path.write_text(json.dumps({"workload": "cache_shared.cell"}))
        assert cache.get(sc) is None
        assert not path.exists()

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{",  # not UTF-8
        b"[" * 200_000,  # nested past the recursion limit
        b'{"rows": [1, 2]}',  # rows of scalars, not of lists
        b'{"rows": "ab"}',
        b'{"rows": {"a": 1}}',
    ], ids=["non-utf8", "deep-nesting", "scalar-rows", "string-rows",
            "object-rows"])
    def test_malformed_cell_is_a_miss_and_unlinked(self, tmp_path, content):
        cache = ResultCache(tmp_path, max_memory_entries=0)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        path = cache._path(cache.key_for(sc))
        path.write_bytes(content)
        assert cache.get(sc) is None
        assert not path.exists(), "malformed cell should be unlinked"
        assert cache.stats.hits == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_cell_files = (
    st.binary(max_size=64)
    | _json_values.map(lambda v: json.dumps(v).encode())
    | _json_values.map(lambda v: json.dumps({"rows": v}).encode())
)


class TestCellReadFuzz:
    @settings(max_examples=200, deadline=None)
    @given(content=_cell_files)
    def test_any_cell_file_reads_as_rows_or_a_miss(self, tmp_path_factory,
                                                   content):
        cache = ResultCache(tmp_path_factory.mktemp("fuzz"),
                            max_memory_entries=0)
        sc = _cells(1)[0]
        path = cache._path(cache.key_for(sc))
        path.parent.mkdir(parents=True)
        path.write_bytes(content)
        rows = cache.get(sc)
        if rows is None:
            assert not path.exists()
        else:
            assert isinstance(rows, list)
            assert all(isinstance(r, tuple) for r in rows)


def _writer_proc(cache_dir: str, value: int, rounds: int) -> None:
    cache = ResultCache(cache_dir, max_memory_entries=0)
    sc = scenario("cache_shared.cell", x=999)
    rows = [(value, "payload-" * 512 + str(value))]
    for _ in range(rounds):
        cache.put(sc, rows)


def _reader_proc(cache_dir: str, rounds: int, queue) -> None:
    cache = ResultCache(cache_dir, max_memory_entries=0)
    sc = scenario("cache_shared.cell", x=999)
    bad = []
    for _ in range(rounds):
        rows = cache.get(sc)
        if rows is None:
            continue  # before the first publish: a plain miss
        if len(rows) != 1 or not isinstance(rows[0], tuple):
            bad.append(repr(rows)[:120])
            continue
        value, payload = rows[0]
        if not isinstance(value, int) or payload != (
            "payload-" * 512 + str(value)
        ):
            bad.append(repr(rows)[:120])
    queue.put(bad)


class TestCrossProcess:
    def test_racing_put_get_never_torn_or_type_drifted(self, tmp_path):
        """Two writer processes republish the same key while two
        readers hammer it: every observed row must be one writer's
        complete, canonicalized payload — the atomic-replace pin."""
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        rounds = 150
        writers = [
            ctx.Process(target=_writer_proc,
                        args=(str(tmp_path), v, rounds))
            for v in (1, 2)
        ]
        readers = [
            ctx.Process(target=_reader_proc,
                        args=(str(tmp_path), rounds * 2, queue))
            for _ in range(2)
        ]
        for p in writers + readers:
            p.start()
        for p in writers + readers:
            p.join(timeout=60)
            assert not p.is_alive()
            assert p.exitcode == 0
        for _ in readers:
            assert queue.get(timeout=10) == []

    def test_no_temp_files_survive_the_race(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_writer_proc, args=(str(tmp_path), v, 50))
            for v in (1, 2)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=60)
        assert not list(tmp_path.glob("*/*.tmp"))

    def test_writer_killed_mid_put_leaves_reusable_key(self, tmp_path):
        """A leaked temp (simulating a SIGKILLed writer) neither blocks
        readers nor survives clear()."""
        cache = ResultCache(tmp_path)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        sub = cache._path(cache.key_for(sc)).parent
        leak = sub / "deadwriter.tmp"
        leak.write_text('{"rows": [[0')
        fresh = ResultCache(tmp_path, max_memory_entries=0)
        assert fresh.get(sc) == [(0,)]  # temp never shadows the cell
        old = time.time() - 7200
        os.utime(leak, (old, old))
        ResultCache(tmp_path)  # open-time sweep collects it once stale
        assert not leak.exists()
