"""The shared JSONL journal core and both of its users: the cell store
(``ResultCache``'s ``cells.jsonl``) and the explore trail
(``TrajectoryJournal``).

Any bytes in the file load without raising; a corrupt line never hides
the records after it; the first record for a key that decodes wins; appends after
whatever a crash left are readable by a fresh reader.

The fidelity calibration table (``ErrorTable.load``), the other JSON
file the runner trusts at start-up, is fuzzed here too: any content
loads as a well-formed table or as ``None``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.explore import Objective, search_space
from repro.explore.driver import TrajectoryJournal
from repro.explore.optimizers import make_optimizer
from repro.run import ResultCache, scenario, workload
from repro.run.cache import CELLS_FILE
from repro.run.journal import JsonlJournal


@workload("journal_test.cell")
def _cell(x: int = 0) -> list[tuple]:
    return [(x, x + 1)]


_SPACE = search_space("journal_test.cell", {"x": [0, 1, 2]})
_OBJECTIVE = Objective(metric=1)


class _Cells:
    """The cell store, driven through ``ResultCache``."""

    name = "cells"

    def __init__(self, directory):
        self.directory = directory
        self.path = directory / CELLS_FILE

    def reader(self):
        return ResultCache(self.directory)

    def put(self, x: int) -> None:
        self.reader().put(scenario("journal_test.cell", x=x), [(x, "v")])

    def get(self, reader, x: int):
        return reader.get(scenario("journal_test.cell", x=x))

    def want(self, x: int):
        return [(x, "v")]

    def key(self, x: int) -> str:
        return self.reader().key_for(scenario("journal_test.cell", x=x))


class _Trail:
    """The explore trail, driven through ``TrajectoryJournal``."""

    name = "trail"

    def __init__(self, directory):
        self.path = directory / "trail.jsonl"

    def reader(self):
        return TrajectoryJournal(
            self.path, _SPACE, _OBJECTIVE,
            make_optimizer("random", _SPACE, seed=0),
        )

    def put(self, x: int) -> None:
        journal = self.reader()
        journal.put(str(x), {"key": str(x), "score": x})
        journal.close()

    def get(self, reader, x: int):
        return reader.get(str(x))

    def want(self, x: int):
        return {"key": str(x), "score": x}

    def key(self, x: int) -> str:
        return str(x)


USERS = [_Cells, _Trail]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
#: One line's worth of junk: raw bytes, arbitrary JSON, and records
#: under cell 1's key (``KEY1``, filled in per user) with an arbitrary
#: body.
_junk_lines = (
    st.binary(max_size=64).map(lambda b: b.replace(b"\n", b""))
    | _json_values.map(lambda v: json.dumps(v).encode())
    | _json_values.map(lambda v: json.dumps({"key": "KEY1", "rows": v}).encode())
)
_FUZZ = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("user", USERS, ids=lambda u: u.name)
class TestJournalFuzz:
    @_FUZZ
    @given(with_header=st.booleans(),
           content=st.binary(max_size=256)
           | st.lists(_junk_lines, max_size=4).map(b"\n".join))
    def test_any_bytes_load_without_raising(self, tmp_path_factory, user,
                                            with_header, content):
        store = user(tmp_path_factory.mktemp("fuzz"))
        store.put(0)
        header = store.path.read_bytes().split(b"\n")[0] + b"\n"
        store.path.write_bytes(
            (header if with_header else b"")
            + content.replace(b"KEY1", store.key(1).encode()))
        reader = store.reader()
        for x in range(3):
            value = store.get(reader, x)
            if value is None or x != 1:
                assert value is None
            elif store.name == "cells":
                assert all(isinstance(r, tuple) for r in value)
        # Whatever the crash left, an append lands whole and a fresh
        # reader finds it.
        store.put(7)
        assert store.get(store.reader(), 7) == store.want(7)

    @_FUZZ
    @given(junk=_junk_lines)
    def test_corrupt_middle_line_keeps_later_records(self, tmp_path_factory,
                                                     user, junk):
        store = user(tmp_path_factory.mktemp("mid"))
        store.put(0)
        with open(store.path, "ab") as fh:
            fh.write(junk.replace(b"KEY1", store.key(1).encode()) + b"\n")
        store.put(2)
        reader = store.reader()
        assert store.get(reader, 0) == store.want(0)
        assert store.get(reader, 2) == store.want(2)


_json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True)
)
_json = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
#: near-valid tables: the right shape with junk anywhere in it.
_tables = st.fixed_dictionaries({
    "context": _json_scalars,
    "bound": _json_scalars,
    "families": _json | st.dictionaries(
        st.text(max_size=8),
        _json | st.dictionaries(
            st.sampled_from(["analytic", "hybrid"]),
            _json | st.fixed_dictionaries(
                {"rel_err": _json_scalars, "cells": _json_scalars},
                optional={"exact": _json_scalars},
            ),
            max_size=2,
        ),
        max_size=2,
    ),
})


class TestErrorTableFuzz:
    @staticmethod
    def _load(tmp_path_factory, content: bytes):
        from repro.surrogate import ErrorTable

        path = tmp_path_factory.mktemp("table") / "calibration.json"
        path.write_bytes(content)
        return ErrorTable.load(path)

    @staticmethod
    def _well_formed(table) -> None:
        assert isinstance(table.context, str)
        assert 0.0 <= table.bound < float("inf")
        for (family, mode), entry in table.entries.items():
            assert (entry.family, entry.mode) == (family, mode)
            assert 0.0 <= entry.rel_err < float("inf")
            assert type(entry.cells) is int and entry.cells >= 0
            assert isinstance(entry.exact, bool)

    @_FUZZ
    @given(payload=_tables | _json)
    def test_any_json_loads_well_formed_or_none(self, tmp_path_factory,
                                                payload):
        table = self._load(tmp_path_factory, json.dumps(payload).encode())
        if table is not None:
            self._well_formed(table)

    @_FUZZ
    @given(content=st.binary(max_size=256))
    def test_any_bytes_load_well_formed_or_none(self, tmp_path_factory,
                                                content):
        table = self._load(tmp_path_factory, content)
        if table is not None:
            self._well_formed(table)

    @pytest.mark.parametrize("families", [
        [], {"a": [1]}, {"a": {"analytic": {"rel_err": "NaN", "cells": 1}}},
        {"a": {"analytic": {"rel_err": -0.5, "cells": 1}}},
        {"a": {"analytic": {"rel_err": 10**400, "cells": 1}}},
    ])
    def test_check_reports_a_malformed_table(self, tmp_path, capsys,
                                             families):
        from repro.cli import main

        path = tmp_path / "calibration.json"
        text = json.dumps({"context": "v|f", "bound": 0.5,
                           "families": families})
        path.write_text(text.replace('"NaN"', "NaN"))
        argv = ["calibrate", "--fidelity", "--check", "--output", str(path)]
        assert main(argv) == 1
        assert "calibration table missing or unreadable" in (
            capsys.readouterr().err)


class TestJournalSemantics:
    HEADER = {"test": 1}

    def _journal(self, path):
        return JsonlJournal(path, self.HEADER)

    def test_first_record_for_a_key_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first, second = self._journal(path), self._journal(path)
        assert second.get("k") is None  # second has read the empty file
        first.put("k", {"key": "k", "v": 1})
        second.put("k", {"key": "k", "v": 2})  # sees first's line: skips
        assert second.get("k")["v"] == 1
        assert self._journal(path).get("k")["v"] == 1
        assert len(path.read_text().splitlines()) == 2

    def test_a_miss_reads_lines_other_writers_appended(self, tmp_path):
        path = tmp_path / "j.jsonl"
        reader, writer = self._journal(path), self._journal(path)
        writer.put("a", {"key": "a"})
        assert reader.get("a") == {"key": "a"}
        writer.put("b", {"key": "b"})
        assert reader.get("b") == {"key": "b"}

    def test_stale_header_is_ignored_and_rewritten(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"test": 0}\n{"key": "old"}\n')
        journal = self._journal(path)
        assert journal.get("old") is None
        journal.put("new", {"key": "new"})
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            self.HEADER, {"key": "new"}]

    def test_undecodable_record_falls_through_to_a_later_copy(self, tmp_path):
        """A record that parses but whose rows do not decode must not
        hide a good copy of its key from a fresh process, which would
        then re-run the cell and journal one more copy."""
        store = _Cells(tmp_path)
        store.put(1)
        header, good = store.path.read_bytes().splitlines()
        bad = json.dumps({"key": store.key(1), "rows": "bad"}).encode()
        store.path.write_bytes(b"\n".join([header, bad, good]) + b"\n")
        cache = store.reader()
        assert store.get(cache, 1) == store.want(1)
        cache.put(scenario("journal_test.cell", x=1), store.want(1))
        assert store.get(store.reader(), 1) == store.want(1)
        assert len(store.path.read_bytes().splitlines()) == 3

    def test_first_decodable_copy_wins_on_read(self, tmp_path):
        """Two decodable copies of a key (say, from two builds that
        journaled without seeing each other): every reader takes the
        first, after skipping any copy before it that does not decode."""
        store = _Cells(tmp_path)
        store.put(1)
        header, good = store.path.read_bytes().splitlines()
        record = json.loads(good)
        bad = json.dumps({**record, "rows": "bad"}).encode()
        later = json.dumps({**record, "rows": [[1, "later"]]}).encode()
        store.path.write_bytes(b"\n".join([header, bad, good, later]) + b"\n")
        assert store.get(store.reader(), 1) == store.want(1)

    def test_get_never_creates_the_file(self, tmp_path):
        path = tmp_path / "sub" / "j.jsonl"
        assert self._journal(path).get("k") is None
        assert not path.parent.exists()


class TestIndex:
    """The index holds decoded values: a hit is a dict probe, and the
    writer reads back what a fresh reader decodes from the file."""

    @pytest.mark.parametrize("user", USERS, ids=lambda u: u.name)
    def test_repeated_hits_read_and_parse_nothing(self, tmp_path, user,
                                                  monkeypatch):
        import repro.run.journal as journal_module

        store = user(tmp_path)
        for x in range(3):
            store.put(x)
        reader = store.reader()
        assert store.get(reader, 0) == store.want(0)  # the one catch-up
        calls = {"pread": 0, "loads": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(journal_module.os, "pread",
                            counting("pread", journal_module.os.pread))
        monkeypatch.setattr(journal_module.json, "loads",
                            counting("loads", journal_module.json.loads))
        for _ in range(50):
            for x in range(3):
                assert store.get(reader, x) == store.want(x)
        assert calls == {"pread": 0, "loads": 0}

    def test_cell_rows_read_back_equal_a_fresh_read(self, tmp_path):
        sc = scenario("journal_test.cell", x=5)
        rows = [(1, [2, (3, "a")], 0.1, None, True), [-0.0, 1e300]]
        writer = ResultCache(tmp_path)
        writer.put(sc, rows)
        mine, fresh = writer.get(sc), ResultCache(tmp_path).get(sc)
        assert mine == fresh == [
            (1, (2, (3, "a")), 0.1, None, True), (-0.0, 1e300)]
        assert [type(r) for r in mine] == [tuple, tuple]
        assert type(mine[0][1]) is tuple and type(fresh[0][1]) is tuple

    def test_trail_records_read_back_equal_a_fresh_read(self, tmp_path):
        store = _Trail(tmp_path)
        writer = store.reader()
        record = {"key": "k", "candidate": (1, 2), "assignment": [("a", 3)],
                  "score": 0.5, "error": None}
        writer.put("k", record)
        record["score"] = 99.0  # the caller's dict is not the index's
        mine, fresh = writer.get("k"), store.reader().get("k")
        assert mine == fresh == {
            "key": "k", "candidate": [1, 2], "assignment": [["a", 3]],
            "score": 0.5, "error": None}
        assert mine is not record
        writer.close()
