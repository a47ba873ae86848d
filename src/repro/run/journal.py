"""The one append-only JSONL journal core behind every resumable store.

Both the cell store (:class:`repro.run.cache.ResultCache`'s disk level,
``<cache-dir>/cells.jsonl``) and the exploration trail
(:class:`repro.explore.driver.TrajectoryJournal`) are this file format:
line 1 is a header binding the journal to its context (a journal whose
header differs is ignored and rewritten on the first append); each
later line is one record, a JSON object with a ``"key"``, written as
one whole line.  The first record for a key that decodes wins.

Several processes and threads may share one file.  An append holds a
``threading.Lock`` and ``fcntl.flock(LOCK_EX)``; under the lock it
first reads what others appended (so no key is journaled twice) and
cuts a torn tail — the bytes after the last newline, left by a writer
killed mid-append — before its own line goes on.  Readers take no file
lock: they consume whole lines only, and a writer only ever cuts bytes
after the last newline.  A miss reads the lines appended since the last
read.  A whole line that does not parse is skipped and never hides the
records after it, and a record that parses but does not decode never
hides a later copy of its key.  Each line is parsed and decoded once,
as it is read: the index maps each key to its decoded value, so a hit
is one dict probe and the file is the only other copy.  The file opens
on the first :meth:`~JsonlJournal.get` or :meth:`~JsonlJournal.put`; a
get never creates it.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = ["JsonlJournal"]

#: What a corrupt line or record raises on parse or decode.
_CORRUPT = (ValueError, KeyError, TypeError, RecursionError, ConfigurationError)


def _encode(obj: dict[str, Any]) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


class JsonlJournal:
    """Keyed records in an append-only, header-bound JSONL file.

    ``decode`` maps a parsed record line to the value :meth:`get`
    returns (identity by default; it never returns None); a record it
    rejects reads as a miss.  :meth:`put` is idempotent per key.
    """

    def __init__(
        self,
        path: str | Path,
        header: dict[str, Any],
        decode: Callable[[dict[str, Any]], Any] = lambda record: record,
    ) -> None:
        self.path = Path(path)
        self.header = header
        self._decode = decode
        self._lock = threading.Lock()
        self._fh = None
        self._reset()

    def _reset(self) -> None:
        #: key -> the decoded value of its first record that decodes.
        self._index: dict[str, Any] = {}
        #: bytes consumed so far: always the end of a whole line.
        self._read_to = 0
        #: whether line 1 is this journal's header.
        self._valid = False

    def _open(self, create: bool):
        if self._fh is None:
            flags = os.O_RDWR | os.O_APPEND | (os.O_CREAT if create else 0)
            try:
                if create:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(os.open(self.path, flags, 0o644), "rb+",
                                buffering=0)
            except OSError as exc:
                if isinstance(exc, FileNotFoundError) and not create:
                    return None  # nothing journaled yet: every get misses
                raise ConfigurationError(
                    f"cannot open journal {self.path}: {exc}"
                ) from None
        return self._fh.fileno()

    def _catch_up(self, fd: int) -> int:
        """Index the whole lines appended since the last read; returns
        the file size."""
        size = os.fstat(fd).st_size
        if size < self._read_to:  # truncated under us (clear, rewrite)
            self._reset()
        if size == self._read_to:
            return size
        data = os.pread(fd, size - self._read_to, self._read_to)
        index = self._index
        pos = self._read_to
        for line in data.split(b"\n")[:-1]:
            try:
                record = json.loads(line)
                if pos == 0:
                    self._valid = record == self.header
                elif self._valid:
                    key = record["key"]
                    if isinstance(key, str) and key not in index:
                        index[key] = self._decode(record)
            except _CORRUPT:
                pass  # skipped; an unparsable header leaves it invalid
            pos += len(line) + 1
        self._read_to = pos
        return size

    def get(self, key: str) -> Any:
        """The decoded record journaled under ``key``, or None."""
        with self._lock:
            value = self._index.get(key)
            if value is None and (fd := self._open(create=False)) is not None:
                self._catch_up(fd)
                value = self._index.get(key)
            return value

    def put(self, key: str, record: dict[str, Any], value: Any = None) -> None:
        """Journal one record (its ``"key"`` is ``key``) unless ``key``
        is already journaled, here or by another process.

        ``value`` is what :meth:`get` returns for ``key`` from then on;
        it must equal what a fresh reader decodes from the record's
        line, and by default it is exactly that.
        """
        with self._lock:
            if key in self._index:
                return
            line = _encode(record)
            if value is None:
                value = self._decode(json.loads(line))
            try:
                fd = self._open(create=True)
                fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    size = self._catch_up(fd)
                    if not self._valid:
                        # Re-read from the top before rewriting: another
                        # process may have rewritten a stale file since.
                        self._reset()
                        size = self._catch_up(fd)
                    if key in self._index:
                        return
                    end = self._read_to if self._valid else 0
                    if size != end:
                        os.ftruncate(fd, end)  # torn tail, or a stale file
                    if end == 0:
                        self._reset()
                        head = _encode(self.header)
                        _write_all(fd, head)
                        end = len(head)
                    _write_all(fd, line)
                    self._valid = True
                    self._index[key] = value
                    self._read_to = end + len(line)
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot append to journal {self.path}: {exc}"
                ) from None

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            self._reset()


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
