"""The output oracle: digests every benchmark output is checked against.

``golden.json`` holds

* ``format`` — the sha256 of every experiment's ``result.format()``
  for full and fast sweeps, in registry order under ``experiments``.
  :func:`write` first checks that those texts, joined the way
  ``repro all`` prints them, equal the whole ``repro all`` stdout;
* ``cells`` — a row digest per serve-pool cell at ``full`` and
  ``analytic`` fidelity, computed with ``Runner(jobs=1, cache=None)``.

Regenerate with ``python -m benchmarks.e2e --write-golden`` after a
deliberate output change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

__all__ = [
    "GOLDEN",
    "SERVE_EXPERIMENTS",
    "cell_id",
    "load",
    "rows_digest",
    "serve_pool",
    "text_digest",
    "write",
]

GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: Experiments whose full sweeps make the serve pool (168 cells).
#: fig10 is left out because one of its cells would dominate a
#: session.  Sweeps with a fault overlay (fig9, fig11) are left out
#: because the ambient fault context (``repro.faults.context``) is
#: process-global: the service runs full cells on a worker thread
#: while analytic cells resolve on the event loop, and a faulted cell
#: on one thread changes the injector the other thread's cell sees,
#: so the server returns wrong rows.
SERVE_EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8", "table5", "ext_noise")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows) -> str:
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cell_id(sc) -> str:
    return sc.key()[:20]


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def serve_pool() -> list:
    """The serve pool's full-fidelity scenarios, in registry order."""
    from repro.core.registry import resolve_experiment

    cells = []
    for eid in SERVE_EXPERIMENTS:
        cells.extend(resolve_experiment(eid).scenarios(fast=False))
    return cells


def _repro_all(root: Path, fast: bool) -> str:
    cmd = [sys.executable, "-m", "repro", "all", "--no-cache"]
    if fast:
        cmd.append("--fast")
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    return proc.stdout


def write(root: Path) -> None:
    """Recompute every digest and write ``golden.json``."""
    from repro.core.registry import experiment_specs
    from repro.run import Runner

    specs = experiment_specs()
    doc: dict = {
        "experiments": [s.experiment_id for s in specs],
        "format": {},
        "cells": {},
    }
    for mode, fast in (("full", False), ("fast", True)):
        runner = Runner(jobs=1, cache=None)
        texts = {s.experiment_id: s.run(fast=fast, runner=runner).format()
                 for s in specs}
        printed = "".join(text + "\n\n" for text in texts.values())
        if _repro_all(root, fast) != printed:
            raise RuntimeError(
                f"repro all{' --fast' if fast else ''} output differs from "
                f"the per-experiment texts; golden not written"
            )
        doc["format"][mode] = {e: text_digest(t) for e, t in texts.items()}
    pool = serve_pool()
    for fid in ("full", "analytic"):
        cells = [
            sc if fid == "full" else dataclasses.replace(sc, fidelity=fid)
            for sc in pool
        ]
        records = Runner(jobs=1, cache=None).run(cells)
        bad = [r.error for r in records if not r.ok]
        if bad:
            raise RuntimeError(f"serve-pool cell failed: {bad[0]}")
        doc["cells"][fid] = {
            cell_id(r.scenario): rows_digest(r.rows) for r in records
        }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
