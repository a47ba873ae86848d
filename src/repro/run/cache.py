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

The cache has one in-memory level.  A disk cache is one append-only
JSONL file, ``<dir>/cells.jsonl``
(:class:`~repro.run.journal.JsonlJournal`, one line per cell), whose
in-process index already holds every cell's decoded rows, so a hit is
one dict probe and there is no second mirror to bound or evict.
``memory_only=True`` keeps a plain dict instead — the default for
library use, so tests stay hermetic; the CLI passes a directory.

The file is shared by every ``repro`` process pointed at the directory
(two CLI runs against ``.repro-cache``, or a CLI run beside ``repro
serve``), each with its own index, and it is the resumable store: a
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
import os
import threading
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


def _canonical_rows(rows, what: str = "value ") -> list[tuple]:
    """``rows`` as a list of canonical tuples; raises on anything that
    is not a list of sequences of scalars."""
    if not (isinstance(rows, list)
            and all(isinstance(r, (list, tuple)) for r in rows)):
        raise ConfigurationError("cell rows must be a list of sequences")
    return [canonical_value(r, what) for r in rows]


class ResultCache:
    """Cache of cell rows: a plain dict, or one shared cell file.

    ``get``/``put`` speak :class:`Scenario` in and row lists out; the
    key derivation and serialization live entirely here.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        memory_only: bool = False,
    ) -> None:
        self.memory_only = memory_only
        #: absolute directory of the disk level (``None`` when
        #: memory-only); resolved once here so later ``chdir``s
        #: cannot split one logical store into disjoint relative ones.
        self.cache_dir = None if memory_only else resolve_cache_dir(cache_dir)
        #: the store of a memory-only cache.
        self._memory: dict[str, list[tuple]] = {}
        #: guards the store and the stats: the serve tier reaches one
        #: cache from the event loop and from a worker thread at once.
        self._lock = threading.Lock()
        self.stats = CacheStats()
        # Computed once per cache instance: the fingerprint is pure
        # code/config state, constant for the process lifetime.
        self._context = (
            f"{_package_version()}|{calibration_fingerprint()}"
        )
        #: the store of a disk cache (``None`` when memory-only); no
        #: I/O until the first get or put.
        self._journal = (
            None if self.cache_dir is None
            else JsonlJournal(self.cache_dir / CELLS_FILE, _CELLS_HEADER,
                              lambda record: _canonical_rows(record["rows"]))
        )

    # -- keys -----------------------------------------------------------------

    def key_for(self, scenario: Scenario) -> str:
        """Full cache key: scenario hash x calibration x version."""
        blob = f"{scenario.key()}|{self._context}"
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- access ---------------------------------------------------------------

    def get(self, scenario: Scenario) -> list[tuple] | None:
        """Cached rows for ``scenario``, or None on a miss."""
        key = self.key_for(scenario)
        with self._lock:
            store = self._memory if self._journal is None else self._journal
            rows = store.get(key)
            if rows is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
        return list(rows)

    def put(self, scenario: Scenario, rows: list[tuple]) -> None:
        """Store ``rows`` for ``scenario``.

        Rows are canonicalized (nested sequences to nested tuples)
        first, so a hit in this process returns exactly what another
        process decodes from the file after the JSON round-trip —
        callers never see type drift between the two.
        """
        key = self.key_for(scenario)
        rows = _canonical_rows(list(rows), "cached row value ")
        with self._lock:
            self.stats.writes += 1
            if self._journal is None:
                self._memory[key] = rows
            else:
                self._journal.put(key, {
                    "key": key,
                    "workload": scenario.workload,
                    "cell": scenario.describe(),
                    "rows": rows,
                }, rows)

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
