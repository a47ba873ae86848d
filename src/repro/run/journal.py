"""The one append-only JSONL journal core behind every resumable run.

Both the sweep checkpoint (:class:`repro.run.runner.SweepCheckpoint`)
and the exploration trail (:class:`repro.explore.driver.
TrajectoryJournal`) are this file format:

* line 1 is a header binding the journal to its context (package
  version, calibration fingerprint, and whatever else the owner puts
  in it); a journal whose header differs is ignored and rewritten on
  the first append;
* each later line is one record, a JSON object with a ``"key"``,
  written and flushed as one whole line — a kill loses at most the
  record in progress;
* loading keeps the records up to the first line that is not whole
  (no newline yet, or not parseable): the torn tail a kill leaves.
  The first append truncates the file back to that intact prefix, so
  a new record is never glued onto a fragment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = ["JsonlJournal"]


class JsonlJournal:
    """Keyed records in an append-only, header-bound JSONL file.

    ``decode`` maps a parsed record line to the value :meth:`get`
    returns (identity by default); a line it rejects ends the intact
    prefix like a torn one.  :meth:`put` is idempotent per key.
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
        self._records: dict[str, Any] = {}
        self._fh = None
        #: byte length of the intact prefix (header plus every whole
        #: record line); 0 when the file holds no valid header.
        self._intact = 0
        self._load()

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        # The piece after the last newline is a torn line (or empty).
        *whole, _tail = data.split(b"\n")
        if not whole:
            return
        try:
            header = json.loads(whole[0])
        except ValueError:
            return
        if header != self.header:
            return
        intact = len(whole[0]) + 1
        for line in whole[1:]:
            try:
                record = json.loads(line)
                self._records[record["key"]] = self._decode(record)
            except (ValueError, KeyError, TypeError, ConfigurationError):
                break  # nothing after a corrupt line is trusted
            intact += len(line) + 1
        self._intact = intact

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Any:
        """The decoded record journaled under ``key``, or None."""
        return self._records.get(key)

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Journal one record (its ``"key"`` is ``key``) unless ``key``
        is already journaled."""
        if key in self._records:
            return
        self._records[key] = self._decode(record)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self._intact and self.path.exists():
                os.truncate(self.path, self._intact)
                self._fh = open(self.path, "a")
            else:
                self._fh = open(self.path, "w")
                self._fh.write(json.dumps(self.header, sort_keys=True) + "\n")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
