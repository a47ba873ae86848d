"""Scenario serving: queue, coalesce and batch requests to a Runner.

The package splits along the classic service seam:

* :mod:`repro.serve.service` — the asyncio scheduler
  (:class:`ScenarioService`): one admission step (quota, the inline
  path for cache hits and surrogate cells, bounded priority queue
  with ``retry_after`` backpressure for misses),
  in-flight request coalescing by scenario content hash,
  micro-batching into :meth:`Runner.run`, whose one long-lived worker
  pool runs each batch; one plain counter table for its stats;
* :mod:`repro.serve.protocol` — the JSON-lines wire format and the
  one reading of a ``submit`` message;
* :mod:`repro.serve.server` — the TCP front end
  (:class:`ScenarioServer`), its thread host
  (:class:`BackgroundServer`) and the ``repro serve`` loop;
* :mod:`repro.serve.client` — the blocking :class:`ServeClient`.

In-process callers with a list of cells use
:meth:`repro.run.runner.Runner.run` directly; the service exists for
the server's concurrent, coalescing request stream.
"""

from __future__ import annotations

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
]
