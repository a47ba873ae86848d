"""Scenario serving: queue, coalesce and batch requests to a Runner.

The package splits along the classic service seam:

* :mod:`repro.serve.service` — the asyncio scheduler
  (:class:`ScenarioService`): one admission step (quota, inline fast
  path, bounded priority queue with ``retry_after`` backpressure),
  in-flight request coalescing by scenario content hash,
  micro-batching into :meth:`Runner.run`, whose one long-lived worker
  pool runs each batch; one plain counter table for its stats;
* :mod:`repro.serve.protocol` — the JSON-lines wire format and the
  one reading of a ``submit`` message;
* :mod:`repro.serve.server` — the TCP front end
  (:class:`ScenarioServer`), its thread host
  (:class:`BackgroundServer`) and the ``repro serve`` loop;
* :mod:`repro.serve.client` — the blocking :class:`ServeClient`.

For one-shot in-process use (no sockets), :func:`submit` runs a list
of scenarios through a short-lived service and returns the results in
input order — same coalescing and batching semantics as the server.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Sequence

from repro.run.runner import Runner
from repro.run.scenario import Scenario
from repro.serve.client import ServeClient, ServeReply
from repro.serve.protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    scenario_from_wire,
    scenario_to_wire,
)
from repro.serve.server import BackgroundServer, ScenarioServer, serve_forever
from repro.serve.service import (
    ClientQuota,
    QuotaPolicy,
    ScenarioService,
    ServeRejected,
    ServeResult,
)

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "BackgroundServer",
    "ClientQuota",
    "QuotaPolicy",
    "ScenarioServer",
    "ScenarioService",
    "ServeClient",
    "ServeRejected",
    "ServeReply",
    "ServeResult",
    "scenario_from_wire",
    "scenario_to_wire",
    "serve_forever",
    "submit",
]


def submit(
    scenarios: Iterable[Scenario],
    runner: Runner | None = None,
    priority: int = 0,
    max_queue: int | None = None,
    max_batch: int = 32,
    batch_wait: float = 0.0,
) -> list[ServeResult]:
    """Run scenarios through an in-process service, results in order.

    Duplicates in the input coalesce to one execution each, exactly as
    they would against a live server.  ``max_queue`` defaults to at
    least the submission count so a one-shot call never rejects
    itself.

    Cells the inline fast path can own (non-``full`` fidelity, vouched
    for by the surrogate tier) resolve synchronously via
    :meth:`ScenarioService.submit_nowait` — an all-analytic burst
    never pays per-request task scheduling; everything else queues,
    coalesces and batches concurrently as against a live server.
    """
    cells: Sequence[Scenario] = list(scenarios)
    if max_queue is None:
        max_queue = max(1024, len(cells))
    owned = runner is None
    active = Runner() if owned else runner

    async def _main() -> list[ServeResult]:
        service = ScenarioService(
            active, max_queue=max_queue,
            max_batch=max_batch, batch_wait=batch_wait,
        )
        async with service:
            results = [service.submit_nowait(sc) for sc in cells]
            pending = [i for i, result in enumerate(results) if result is None]
            answers = await asyncio.gather(
                *(service.submit(cells[i], priority=priority) for i in pending)
            )
            for i, answer in zip(pending, answers):
                results[i] = answer
            return results  # type: ignore[return-value]

    try:
        return asyncio.run(_main())
    finally:
        if owned:
            active.close()
