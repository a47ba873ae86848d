"""Cross-process and cross-thread semantics of the shared ResultCache.

Every ``repro`` process pointed at one cache directory (two CLI runs,
or a CLI run beside ``repro serve``) shares its one cell file,
``cells.jsonl``, and the serve tier reaches one cache from two threads.
These tests pin what makes that safe: absolute-path anchoring, the
journal's shared in-process index under concurrent threads, corrupt
records read as misses, and torn-free concurrent put/get through the
``flock``ed append; and the cache counters in the runner's stats
snapshot.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.run import Runner, scenario, workload
from repro.run.cache import CELLS_FILE, ResultCache, resolve_cache_dir


@workload("cache_shared.cell")
def _cell(x: int = 0) -> list[tuple]:
    return [(x, x * x)]


def _cells(n: int):
    return [scenario("cache_shared.cell", x=i) for i in range(n)]


class TestSnapshot:
    RUNNER_KEYS = [
        "runner.cached", "runner.cells", "runner.errors",
        "runner.escalated", "runner.executed", "runner.fast",
    ]

    def test_snapshot_keys_with_cache(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(tmp_path))
        runner.run(_cells(3))
        runner.run(_cells(2))
        runner.close()
        snap = runner.snapshot()
        assert sorted(snap) == sorted(self.RUNNER_KEYS + [
            "cache.hits", "cache.misses", "cache.writes",
        ])
        assert snap["runner.cells"] == 5 and snap["runner.cached"] == 2
        assert snap["runner.executed"] == 3
        assert snap["cache.hits"] == 2 and snap["cache.misses"] == 3
        assert snap["cache.writes"] == 3

    def test_snapshot_keys_without_cache(self):
        runner = Runner(jobs=1, cache=None)
        runner.run(_cells(2))
        snap = runner.snapshot()
        assert sorted(snap) == self.RUNNER_KEYS
        assert snap["runner.cells"] == snap["runner.executed"] == 2
        assert all(type(v) is int for v in snap.values())


class TestKeys:
    #: ``key_for`` of each experiment's first fast cell (and one faulted
    #: cell) under package 1.1.0 and the calibration index of the
    #: file-per-cell layout, which the cell store replaced without
    #: touching keys.  A deliberate version or calibration change
    #: moves every key; regenerate then.
    PINNED = {
        "table2": "af19debeeba28fa3c7b2f009b993f58589bebc66181c73a0196fb010bf476af1",
        "fig5": "a7bda043a68e6a17fce30fa297c67d39e2c3c95bf7dbf3cff54c39508b9bf3db",
        "fig9": "76eaf8e7af4410dd928a7c21063dca344b645315758f04dd6c02ac47aeb594eb",
        "fig11": "14385ebea8c9d1526403072c127ede07bc804b286bcda548ccc069b8dd50802a",
        "ext_noise": "1b3a62a9b1d363feee8b3094ffd213221a9b3fd9ded0dfe38cbadf0a3a177fcd",
        "table5": "7498d8c1cd0c5a32e86e8c22a23caee1b50845414ffa5dc2324876094c24abe4",
        "fig9+faults": "dbe412721ecfa71ea105aa08037f0baa92bc0c2998bf39462f7e1254ba3eabae",
    }

    def test_keys_are_unchanged(self):
        from dataclasses import replace

        from repro.core.registry import resolve_experiment
        from repro.faults import parse_faults

        cache = ResultCache(memory_only=True)
        keys = {}
        for eid in ("table2", "fig5", "fig9", "fig11", "ext_noise", "table5"):
            sc = resolve_experiment(eid).scenarios(fast=True)[0]
            keys[eid] = cache.key_for(sc)
        faulted = replace(
            resolve_experiment("fig9").scenarios(fast=True)[0],
            faults=parse_faults(
                "drop:probability=0.02;jitter:amplitude=0.001;seed=7"),
        )
        keys["fig9+faults"] = cache.key_for(faulted)
        assert keys == self.PINNED


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
        fresh = ResultCache(tmp_path / "relcache")
        assert fresh.get(sc) == [(0,)]

    def test_resolve_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache_dir() == tmp_path / "envcache"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.chdir(tmp_path)
        assert resolve_cache_dir() == tmp_path / ".repro-cache"


def _rewrite_record(cache: ResultCache, line: bytes) -> None:
    """Replace the store's records with one raw ``line``."""
    path = cache.cache_dir / CELLS_FILE
    header = path.read_bytes().split(b"\n")[0]
    path.write_bytes(header + b"\n" + line + b"\n")


class TestHygiene:
    def test_corrupt_cell_unlinked_on_read(self, tmp_path):
        # A corrupt record is skipped by every reader, and the key is
        # fully reusable afterwards: the next put journals a good copy.
        cache = ResultCache(tmp_path)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        _rewrite_record(cache, b"}torn{")
        fresh = ResultCache(tmp_path)
        assert fresh.get(sc) is None
        fresh.put(sc, [(0,)])
        assert fresh.get(sc) == [(0,)]
        assert ResultCache(tmp_path).get(sc) == [(0,)]

    def test_missing_rows_key_is_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        key = cache.key_for(sc)
        _rewrite_record(cache, json.dumps(
            {"key": key, "workload": "cache_shared.cell"}).encode())
        fresh = ResultCache(tmp_path)
        assert fresh.get(sc) is None
        fresh.put(sc, [(0,)])
        assert fresh.get(sc) == [(0,)]

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{",  # not UTF-8
        b"[" * 200_000,  # nested past the recursion limit
        b'{"key": "KEY", "rows": [1, 2]}',  # rows of scalars, not of lists
        b'{"key": "KEY", "rows": "ab"}',
        b'{"key": "KEY", "rows": {"a": 1}}',
    ], ids=["non-utf8", "deep-nesting", "scalar-rows", "string-rows",
            "object-rows"])
    def test_malformed_cell_is_a_miss_and_unlinked(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        sc = _cells(1)[0]
        cache.put(sc, [(0,)])
        _rewrite_record(
            cache, content.replace(b"KEY", cache.key_for(sc).encode()))
        fresh = ResultCache(tmp_path)
        assert fresh.get(sc) is None
        assert fresh.stats.hits == 0

    @pytest.mark.parametrize("memory_only", [False, True])
    def test_put_rejects_rows_a_reader_could_not_decode(self, tmp_path,
                                                        memory_only):
        # A scalar row would read back in the writing process but be a
        # miss for every other reader of the file.
        cache = ResultCache(tmp_path, memory_only=memory_only)
        with pytest.raises(ConfigurationError):
            cache.put(_cells(1)[0], [1, 2])
        assert cache.get(_cells(1)[0]) is None

    def test_construction_does_no_io(self, tmp_path):
        # The store opens on the first get/put: constructing a cache
        # (what a process does before it is ready) touches no file.
        ResultCache(tmp_path / "fresh")
        assert not (tmp_path / "fresh").exists()
        cache = ResultCache(tmp_path / "fresh")
        assert cache.get(_cells(1)[0]) is None
        assert not (tmp_path / "fresh").exists(), "a get never creates"

    def test_runner_close_releases_the_file_and_a_later_get_reopens(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        runner = Runner(jobs=1, cache=cache)
        runner.run(_cells(1))
        assert cache._journal._fh is not None
        runner.close()
        assert cache._journal._fh is None
        assert cache.get(_cells(1)[0]) == [(0, 0)]

    def test_unusable_cache_dir_is_a_configuration_error(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker)
        with pytest.raises(ConfigurationError):
            cache.get(_cells(1)[0])
        with pytest.raises(ConfigurationError):
            cache.put(_cells(1)[0], [(0,)])


class TestThreads:
    def test_mirror_survives_two_threads(self, tmp_path):
        """Two threads share one disk-backed cache, whose journal index
        mirrors the cell file, while a second cache appends new cells
        to that file: each thread's miss on a new cell catches the
        shared index up while the other thread probes it.  Every get
        must return that cell's rows, never raise or miss."""
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        rounds, appends, gets = 3, 40, 20_000
        cells = _cells(3 + rounds * 2 * appends)
        for i, sc in enumerate(cells[:3]):
            cache.put(sc, [(i, i * i)])
        errors: list = []

        def hammer(order, new):
            try:
                for j in range(gets):
                    i = order[j % len(order)]
                    if j % (gets // appends) == 0:
                        x = next(new)
                        other.put(cells[x], [(x, x * x)])
                        if cache.get(cells[x]) != [(x, x * x)]:
                            errors.append((x, "new cell missed"))
                            return
                    rows = cache.get(cells[i])
                    if rows != [(i, i * i)]:
                        errors.append(rows)
                        return
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(rounds):
                threads = [
                    threading.Thread(target=hammer, args=(order, iter(range(
                        3 + (2 * r + t) * appends,
                        3 + (2 * r + t + 1) * appends))))
                    for t, order in enumerate(([0, 1, 0, 2], [1, 2, 1, 0]))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                if errors:
                    break
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # No lost update, and every new cell was one catch-up's hit.
        assert cache.stats.hits == rounds * 2 * (gets + appends)
        assert cache.stats.misses == 0
        lines = (tmp_path / CELLS_FILE).read_bytes().splitlines()
        assert len(lines) == 1 + len(cells)


def _payload(value: int, x: int) -> str:
    return f"payload-{x}-" * 256 + str(value)


def _writer_proc(cache_dir: str, value: int, rounds: int) -> None:
    # Both writers append the same keys, x = 0..rounds-1, in step: each
    # round is a race for one key, against readers catching up.
    cache = ResultCache(cache_dir)
    for x in range(rounds):
        cache.put(scenario("cache_shared.cell", x=x),
                  [(value, _payload(value, x))])


def _reader_proc(cache_dir: str, rounds: int, queue) -> None:
    cache = ResultCache(cache_dir)
    bad = []
    for i in range(rounds * 4):
        x = i % rounds
        rows = cache.get(scenario("cache_shared.cell", x=x))
        if rows is None:
            continue  # not journaled yet: a plain miss
        if len(rows) != 1 or not isinstance(rows[0], tuple):
            bad.append(repr(rows)[:120])
            continue
        value, payload = rows[0]
        if value not in (1, 2) or payload != _payload(value, x):
            bad.append(repr(rows)[:120])
    queue.put(bad)


def _fresh_reader_proc(cache_dir: str, x: int, queue) -> None:
    queue.put(ResultCache(cache_dir).get(
        scenario("cache_shared.cell", x=x)))


class TestCrossProcess:
    def test_racing_put_get_never_torn_or_type_drifted(self, tmp_path):
        """Two writer processes race to append the same keys while two
        readers hammer them: every observed row must be one writer's
        complete, canonicalized payload — the flocked whole-line
        append pin."""
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
                        args=(str(tmp_path), rounds, queue))
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
        """Racing writers leave the one store file and nothing else,
        every line in it whole, and one record per key: a writer that
        finds a key journaled by another process skips it."""
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_writer_proc, args=(str(tmp_path), v, 50))
            for v in (1, 2)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert [p.name for p in tmp_path.iterdir()] == [CELLS_FILE]
        data = (tmp_path / CELLS_FILE).read_bytes()
        assert data.endswith(b"\n")
        records = [json.loads(line) for line in data.splitlines()[1:]]
        assert len(records) == 50
        assert len({r["key"] for r in records}) == 50

    def test_writer_killed_mid_put_leaves_reusable_key(self, tmp_path):
        """A torn tail (a writer SIGKILLed mid-append) neither blocks
        readers nor survives the next append, and the cell appended
        after it is readable by a fresh process."""
        cache = ResultCache(tmp_path)
        first, second = _cells(2)
        cache.put(first, [(0,)])
        store = tmp_path / CELLS_FILE
        whole = store.read_bytes()
        torn = b'{"key": "deadwriter", "rows": [[0'
        with open(store, "ab") as fh:
            fh.write(torn)
        assert ResultCache(tmp_path).get(first) == [(0,)]
        ResultCache(tmp_path).put(second, [(1,)])
        data = store.read_bytes()
        assert torn not in data and data.startswith(whole)
        assert all(json.loads(line) for line in data.splitlines())
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        reader = ctx.Process(target=_fresh_reader_proc,
                             args=(str(tmp_path), 1, queue))
        reader.start()
        reader.join(timeout=60)
        assert reader.exitcode == 0
        assert queue.get(timeout=10) == [(1,)]
