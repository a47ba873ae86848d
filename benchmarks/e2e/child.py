"""One paper-workload pass in a fresh interpreter.

``python -m benchmarks.e2e.child '<job json>'`` pays the set-up a user
pays on every ``repro`` invocation (imports, the experiment registry,
a runner over an on-disk cache), stamps the moment it is ready, and —
unless the job is a set-up probe — runs every experiment in the job's
order the way ``repro all`` does: ``spec.run(fast=, runner=)`` then
``result.format()``.  The last stdout line is one JSON object: the
ready stamp, the pass wall time, each experiment's output
digest, cell accounting, peak RSS and, for a traced job, the layer
table and spans.

Job keys: ``mode`` (``"setup"``, ``"pass"``), ``order`` (experiment
ids), ``fast``, ``jobs``, ``cache`` (directory), ``trace`` (bool).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MB.

    Not ``ru_maxrss``: Linux carries the pre-``exec`` high-water mark
    into it, so a child would report its parent's size whenever the
    parent was larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*.json"))


def main(argv: list[str] | None = None) -> int:
    job = json.loads((sys.argv[1:] if argv is None else argv)[0])
    t0 = time.monotonic()
    from repro.core.registry import experiment_specs
    from repro.run import ResultCache, Runner

    import_s = time.monotonic() - t0
    specs = {spec.experiment_id: spec for spec in experiment_specs()}
    cache_dir = Path(job["cache"])
    runner = Runner(jobs=job.get("jobs", 1), cache=ResultCache(cache_dir))
    out: dict = {"ready": time.monotonic(), "import_s": import_s}
    if job["mode"] == "pass":
        out.update(_pass(job, specs, runner, cache_dir))
    out["maxrss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


def _pass(job: dict, specs: dict, runner, cache_dir: Path) -> dict:
    rec = None
    if job.get("trace"):
        from benchmarks.e2e.tracing import Recorder, install

        rec = Recorder()
        install(rec)
    bytes_before = _dir_bytes(cache_dir)
    digests: dict[str, str] = {}
    start = time.perf_counter()
    with rec.span("pass") if rec else nullcontext():
        for eid in job["order"]:
            with rec.span(f"core.exp.{eid}", cell=eid) if rec else nullcontext():
                result = specs[eid].run(fast=job["fast"], runner=runner)
                with rec.span("core.format") if rec else nullcontext():
                    text = result.format()
            digests[eid] = hashlib.sha256(text.encode()).hexdigest()
    wall = time.perf_counter() - start
    runner.close()
    stats = runner.stats
    out = {
        "wall_s": wall,
        "digests": digests,
        "cells": stats.total,
        "executed": stats.executed,
        "errors": stats.errors,
        "failures": stats.failures[:5],
        "bytes_written": _dir_bytes(cache_dir) - bytes_before,
    }
    if rec is not None:
        rec.enabled = False
        out["trace"] = rec.snapshot()
    return out


if __name__ == "__main__":
    sys.exit(main())
