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
a JSON file-per-cell directory (``<dir>/<key[:2]>/<key>.json``).
Writes are atomic (tmp file + rename) so parallel readers — threads
*or* other processes — see the old cell or the new one, never a torn
one.  ``memory_only=True`` keeps everything in-process — the default
for library use, so tests stay hermetic; the CLI passes a directory.

The disk directory is shared by every ``repro`` process pointed at
it (two CLI runs against ``.repro-cache``, or a CLI run beside
``repro serve``), each with its own mirror; the content-addressed
atomic-publish discipline is what makes concurrent ``put``/``get`` of
the same key safe.  Three hygiene rules keep a long-lived shared
store healthy:

* the configured directory is resolved to an **absolute path at
  construction** — a caller that ``chdir``s after opening the cache
  must not silently split it;
* stale ``*.tmp`` files (leaked by a process killed mid-``put``) are
  swept on open and on :meth:`clear`;
* a corrupt cell — unreadable JSON, or ``rows`` that are not a list of
  lists of scalars — is **unlinked** on first read, so one torn file
  from a dead writer costs one re-execution instead of a
  re-parse-and-miss in every future process.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
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
#: least recently used row list is dropped (the disk copy stays).
DEFAULT_MEMORY_ENTRIES = 4096

#: A ``*.tmp`` file this much older than "now" cannot belong to a
#: live ``put`` (a put holds its temp for milliseconds) — it was
#: leaked by a writer that died mid-publish, and the open-time sweep
#: may safely collect it.  Younger temps are left alone so the sweep
#: can never race a concurrent writer's in-flight publish.
STALE_TMP_AGE_S = 3600.0


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
        self.stats = CacheStats()
        # Computed once per cache instance: the fingerprint is pure
        # code/config state, constant for the process lifetime.
        self._context = (
            f"{_package_version()}|{calibration_fingerprint()}"
        )
        if self.cache_dir is not None:
            # Collect temps leaked by writers that died mid-put; only
            # provably-stale ones, so a live writer is never raced.
            self._sweep_temps(max_age_s=STALE_TMP_AGE_S)

    # -- keys -----------------------------------------------------------------

    def key_for(self, scenario: Scenario) -> str:
        """Full cache key: scenario hash x calibration x version."""
        blob = f"{scenario.key()}|{self._context}"
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

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
        rows = self._memory.get(key)
        if rows is not None:
            self._memory.move_to_end(key)  # LRU touch
        elif self.cache_dir is not None:
            rows = self._read_disk(key)
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
        self._remember(key, rows)
        self.stats.writes += 1
        if self.cache_dir is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": scenario.workload,
            "cell": scenario.describe(),
            "rows": [list(r) for r in rows],
        }
        # Atomic publish: a parallel reader sees the old file or the
        # new one, never a partial write.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _read_disk(self, key: str) -> list[tuple] | None:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None  # no such cell: an ordinary miss
        try:
            rows = json.loads(data)["rows"]
            if isinstance(rows, list) and all(isinstance(r, list) for r in rows):
                return [canonical_value(r) for r in rows]
        except (ValueError, KeyError, TypeError, RecursionError,
                ConfigurationError):
            pass
        # Corrupt cell (torn write from a dead kernel, bit rot, bytes
        # that are not UTF-8, nesting past the recursion limit, rows
        # that are not a list of lists): unlink it so one bad file
        # costs one re-execution, not a re-parse-and-miss in every
        # process that ever probes the key.  A concurrent writer
        # republishing the same key in this window loses at worst that
        # one re-creatable cell.
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort hygiene
            pass
        return None

    # -- hygiene --------------------------------------------------------------

    def _sweep_temps(self, max_age_s: float = 0.0) -> int:
        """Unlink leaked ``*.tmp`` files; returns how many went.

        ``max_age_s > 0`` spares temps younger than that (the
        open-time mode: a concurrent writer's in-flight temp must
        survive); ``0`` collects everything (the :meth:`clear` mode).
        """
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return 0
        cutoff = time.time() - max_age_s
        swept = 0
        for sub in self.cache_dir.iterdir():
            if not (sub.is_dir() and len(sub.name) == 2):
                continue
            for tmp in sub.glob("*.tmp"):
                try:
                    if max_age_s > 0.0 and tmp.stat().st_mtime >= cutoff:
                        continue
                    tmp.unlink(missing_ok=True)
                    swept += 1
                except OSError:  # pragma: no cover - racing another sweep
                    continue
        return swept

    def clear(self) -> None:
        """Drop every cached cell (memory and disk), temps included."""
        self._memory.clear()
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        self._sweep_temps(max_age_s=0.0)
        for sub in self.cache_dir.iterdir():
            if sub.is_dir() and len(sub.name) == 2:
                for cell in sub.glob("*.json"):
                    cell.unlink(missing_ok=True)
