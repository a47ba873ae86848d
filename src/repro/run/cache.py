"""Content-addressed result cache for scenario cells.

A cell's cache key combines three ingredients, and *only* these three
— the explicit invalidation contract:

1. the scenario content hash (:meth:`Scenario.key`): workload id,
   parameters, machine/placement spec;
2. the calibration fingerprint: a hash over every
   :data:`repro.core.calibration.CALIBRATION` entry, so retuning any
   documented constant invalidates every cached cell;
3. the package version (``repro.__version__``), so a release bump
   starts from a cold cache.

Anything else — editing an unrelated module, reordering experiments,
re-running on another day — leaves keys unchanged and cells reusable.
A model-code change that alters results *must* therefore show up in
the calibration index or the version; that is already the repo's
documentation rule for tuned constants, and the cache turns it into a
correctness rule.

The cache is two-level: a bounded per-process LRU mirror in front of
one append-only JSONL file, ``<dir>/cells.jsonl``
(:class:`~repro.run.journal.JsonlJournal`, one line per cell).
``memory_only=True`` keeps everything in-process — the default for
library use, so tests stay hermetic; the CLI passes a directory.

The file is shared by every ``repro`` process pointed at the directory
(two CLI runs against ``.repro-cache``, or a CLI run beside ``repro
serve``), each with its own mirror, and it is the resumable store: a
sweep killed part-way re-runs with the same ``--cache-dir`` and
replays every finished cell.  The journal makes that safe — appends
are ``flock``ed, a torn tail left by a killed writer is cut before the
next append, a corrupt line is skipped without hiding later ones, and
the first record for a key wins.  The configured directory is resolved
to an **absolute path at construction**, so a caller that ``chdir``s
after opening the cache cannot silently split it.  The file is opened
on the first :meth:`ResultCache.get` or :meth:`ResultCache.put`, not
at construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.run.journal import JsonlJournal
from repro.run.scenario import Scenario, canonical_value

__all__ = [
    "CacheStats",
    "ResultCache",
    "calibration_fingerprint",
    "default_cache_dir",
    "resolve_cache_dir",
]

#: Environment override for the CLI's on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default bound on the per-process memory mirror of a disk-backed
#: cache.  Every disk hit used to be mirrored forever — an unbounded
#: leak in a long-lived ``repro serve``; past this many entries the
#: least recently used row list is dropped (the disk copy stays).  The
#: mirror pays for itself on repeated hits: a hit re-read from the file
#: parses and canonicalizes its line, several times the cost.
DEFAULT_MEMORY_ENTRIES = 4096

#: The cell store's file name inside the cache directory.
CELLS_FILE = "cells.jsonl"

#: Line 1 of the cell store: its format version.  The invalidation
#: context (version, calibration) lives in every key instead, so
#: processes of different builds can share one file.
_CELLS_HEADER = {"cells": 1}


def default_cache_dir() -> Path:
    """Where the CLI keeps its cell cache unless told otherwise.

    May be relative (``.repro-cache`` or a relative
    ``$REPRO_CACHE_DIR``); :func:`resolve_cache_dir` anchors it.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(".repro-cache")


def resolve_cache_dir(cache_dir: str | Path | None = None) -> Path:
    """The cache directory as an absolute path.

    ``None`` means the default location.  Every consumer of a disk
    cache path funnels through here, so two components handed the
    same (possibly relative) spelling always agree on the same store.
    """
    return Path(
        cache_dir if cache_dir is not None else default_cache_dir()
    ).resolve()


def calibration_fingerprint() -> str:
    """Hash of every calibrated constant's provenance entry.

    The calibration index names each tuned constant *with its value*
    (e.g. ``"DGEMM_EFFICIENCY = 0.90"``), so retuning the model and
    updating its audit trail — the repo's standing rule — changes this
    fingerprint and flushes stale cells.
    """
    from repro.core.calibration import CALIBRATION

    blob = "\n".join(
        f"{c.name}|{c.module}|{c.anchored_to}" for c in CALIBRATION
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _package_version() -> str:
    import repro

    return repro.__version__


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: memory-mirror entries dropped by the LRU bound (disk copies,
    #: when they exist, are untouched).
    evictions: int = 0
    #: approximate serialized payload bytes of the evicted entries —
    #: the "how much memory did the bound actually reclaim" number.
    evicted_bytes: int = 0


def _approx_bytes(rows) -> int:
    """Approximate serialized size of one entry's rows (the same JSON
    form the disk level stores); computed only on eviction, so the
    put/get hot paths never pay for it."""
    try:
        return len(json.dumps(rows))
    except (TypeError, ValueError):  # pragma: no cover - rows are JSON-safe
        return 0


def _decode_cell(record: dict) -> list[tuple]:
    """A cell record's rows, canonicalized; raises on anything that is
    not a list of lists of scalars."""
    rows = record["rows"]
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError("cell rows must be a list of lists")
    return [canonical_value(r) for r in rows]


class ResultCache:
    """Two-level (memory + disk) cache of cell rows.

    ``get``/``put`` speak :class:`Scenario` in and row lists out; the
    key derivation and serialization live entirely here.

    ``max_memory_entries`` bounds the in-process mirror: ``None``
    picks the default policy (:data:`DEFAULT_MEMORY_ENTRIES` for a
    disk-backed cache, unbounded for ``memory_only`` — where the
    dict *is* the store and eviction would be data loss), ``0``
    disables mirroring entirely (every hit reads disk — the setting
    the cross-process stress tests use to force visibility), any
    other value is an explicit LRU entry cap.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        memory_only: bool = False,
        max_memory_entries: int | None = None,
    ) -> None:
        self.memory_only = memory_only
        #: absolute directory of the disk level (``None`` when
        #: memory-only); resolved once here so later ``chdir``s
        #: cannot split one logical store into disjoint relative ones.
        self.cache_dir = None if memory_only else resolve_cache_dir(cache_dir)
        if max_memory_entries is not None and max_memory_entries < 0:
            raise ConfigurationError(
                f"max_memory_entries must be >= 0, got {max_memory_entries}"
            )
        if max_memory_entries is None:
            max_memory_entries = None if memory_only else DEFAULT_MEMORY_ENTRIES
        self.max_memory_entries = max_memory_entries
        self._memory: OrderedDict[str, list[tuple]] = OrderedDict()
        #: guards the mirror and the stats: the serve tier reaches one
        #: cache from the event loop and from a worker thread at once.
        self._lock = threading.Lock()
        self.stats = CacheStats()
        # Computed once per cache instance: the fingerprint is pure
        # code/config state, constant for the process lifetime.
        self._context = (
            f"{_package_version()}|{calibration_fingerprint()}"
        )
        #: the disk level (``None`` when memory-only); no I/O until
        #: the first get or put.
        self._journal = (
            None if self.cache_dir is None
            else JsonlJournal(self.cache_dir / CELLS_FILE, _CELLS_HEADER,
                              decode=_decode_cell)
        )

    # -- keys -----------------------------------------------------------------

    def key_for(self, scenario: Scenario) -> str:
        """Full cache key: scenario hash x calibration x version."""
        blob = f"{scenario.key()}|{self._context}"
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- the bounded memory mirror --------------------------------------------

    def _remember(self, key: str, rows: list[tuple]) -> None:
        """Mirror one entry in memory, evicting LRU past the bound."""
        cap = self.max_memory_entries
        if cap == 0:
            return
        memory = self._memory
        if key in memory:
            memory[key] = rows
            memory.move_to_end(key)
            return
        memory[key] = rows
        if cap is not None and len(memory) > cap:
            _, evicted = memory.popitem(last=False)
            self.stats.evictions += 1
            self.stats.evicted_bytes += _approx_bytes(evicted)

    # -- access ---------------------------------------------------------------

    def get(self, scenario: Scenario) -> list[tuple] | None:
        """Cached rows for ``scenario``, or None on a miss."""
        key = self.key_for(scenario)
        with self._lock:
            rows = self._memory.get(key)
            if rows is not None:
                self._memory.move_to_end(key)  # LRU touch
            elif self._journal is not None:
                rows = self._journal.get(key)
                if rows is not None:
                    self._remember(key, rows)
            if rows is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
        return list(rows)

    def put(self, scenario: Scenario, rows: list[tuple]) -> None:
        """Store ``rows`` for ``scenario`` (memory, then disk).

        Rows are canonicalized (nested sequences to nested tuples)
        *before* the memory store, so a warm in-process hit returns
        exactly what a cold disk hit would after the JSON round-trip —
        callers never see type drift between the two levels.
        """
        key = self.key_for(scenario)
        rows = [canonical_value(r, "cached row value ") for r in rows]
        with self._lock:
            self._remember(key, rows)
            self.stats.writes += 1
            if self._journal is not None:
                self._journal.put(key, {
                    "key": key,
                    "workload": scenario.workload,
                    "cell": scenario.describe(),
                    "rows": rows,
                })

    def close(self) -> None:
        """Close the cell file; the next get or put reopens it."""
        if self._journal is not None:
            self._journal.close()

    def clear(self) -> None:
        """Drop every cached cell, in memory and on disk (for a store
        no other process is using)."""
        with self._lock:
            self._memory.clear()
            if self._journal is not None:
                self._journal.close()
                (self.cache_dir / CELLS_FILE).unlink(missing_ok=True)
