"""Wire protocol of the scenario service: JSON lines over TCP.

One request or response per ``\n``-terminated line, each a single
JSON object — no third-party framing, a ``netcat`` session is a valid
client.  Requests carry an ``op`` plus a client-chosen ``id``; the
server streams responses back *as they complete*, so responses arrive
out of order and are matched to requests by ``id``.

Requests
--------
``{"op": "submit", "id": 1, "scenario": {...}, "priority": 0,
  "faults": "jitter:amplitude=1ms;seed=3" | null, "trace": DIR | null,
  "fidelity": "analytic" | "hybrid" | "full" (optional),
  "client_id": "sweep-7" (optional)}``
    Run one scenario cell.  A cell the server's cache already holds
    is answered at once (``"cached": true``), at any fidelity; only
    misses queue.  ``priority`` sorts the queue (lower runs first);
    ``faults`` is a ``--faults`` grammar string merged onto the
    scenario's own spec; ``trace`` asks for a per-cell Chrome trace
    written server-side into DIR (forces execution, skipping the
    cache); ``fidelity`` overrides the scenario's execution tier for
    this request (absent = the scenario's own tier, default ``full``
    — protocol version 1 messages from older clients decode
    unchanged).  Non-``full`` misses resolve inline through the
    surrogate tier; if it cannot vouch for the cell, the response
    carries ``"escalated": true`` and came from the full path.
    ``client_id`` names the submitting principal for per-client
    token-bucket quotas (absent = the shared ``anonymous`` bucket;
    servers without a quota policy ignore it — another additive
    version-1 field, like ``fidelity``).
``{"op": "stats", "id": 2}``
    Snapshot of the service counters (queue depth, coalesce hits,
    batch occupancy, latency percentiles).
``{"op": "ping", "id": 3}``
    Liveness check.

Responses
---------
``{"id": 1, "status": "ok", "rows": [[...], ...], "cached": false,
  "coalesced": false, "duration_s": 0.01, "latency_s": 0.02}``
``{"id": 1, "status": "error", "error": "..."}``
``{"id": 1, "status": "rejected", "retry_after": 0.25,
  "reason": "queue" | "quota"}``
    Admission control refused the request — the queue is full (only
    a miss needs a slot), or the client's token bucket is empty;
    retry after the hinted delay
    (:class:`~repro.serve.client.ServeClient` does this
    automatically).
``{"id": 2, "status": "stats", "stats": {...}}``
``{"id": 3, "status": "pong", "protocol": 1}``

The scenario wire form mirrors :class:`~repro.run.scenario.Scenario`
field for field (``params`` as ``[[name, value], ...]`` pairs,
machine/placement specs as flat dicts, faults as the canonical
:meth:`~repro.faults.spec.FaultSpec.payload` JSON), so a decoded
scenario content-hashes identically to the one the client held —
the property request coalescing and the result cache both key on.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, NamedTuple

from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec, parse_faults
from repro.run.scenario import (
    MachineSpec,
    PlacementSpec,
    Scenario,
    canonical_value,
)

__all__ = [
    "DEFAULT_PORT",
    "LINE_LIMIT",
    "PROTOCOL_VERSION",
    "SubmitRequest",
    "decode_line",
    "encode_line",
    "parse_submit",
    "scenario_from_wire",
    "scenario_to_wire",
]

PROTOCOL_VERSION = 1

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 7447

#: Generous per-line cap; a scenario wire form is a few hundred bytes.
LINE_LIMIT = 1 << 20


def encode_line(message: dict[str, Any]) -> bytes:
    """One protocol message as a compact JSON line."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line; raises ConfigurationError on junk."""
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:  # Recursion: deep nesting
        raise ConfigurationError(f"bad protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ConfigurationError(
            f"protocol messages are JSON objects, got {type(message).__name__}"
        )
    return message


def scenario_to_wire(sc: Scenario) -> dict[str, Any]:
    """JSON-safe dict for one scenario (inverse of
    :func:`scenario_from_wire`)."""
    wire = {
        "workload": sc.workload,
        "params": [[k, v] for k, v in sc.params],
        "machine": None if sc.machine is None else sc.machine.payload(),
        "placement": None if sc.placement is None else vars(sc.placement),
        "faults": None if not sc.faults else sc.faults.payload(),
    }
    if sc.fidelity != "full":
        # Same back-compat contract as the cache key: full-fidelity
        # scenarios keep the exact wire bytes (and hence coalescing
        # behavior) they had before the fidelity field existed.
        wire["fidelity"] = sc.fidelity
    return wire


def scenario_from_wire(payload: Any) -> Scenario:
    """Rebuild a :class:`Scenario` from its wire form.

    Validation rides on the scenario constructor itself (parameter
    scalars, fault kinds): a malformed request fails loudly with a
    :class:`~repro.errors.ConfigurationError` the server turns into an
    error response for that request only.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"scenario payload must be an object, got {type(payload).__name__}"
        )
    try:
        workload = payload["workload"]
    except KeyError:
        raise ConfigurationError("scenario payload missing 'workload'") from None
    params = []
    for pair in payload.get("params") or ():
        try:
            name, value = pair
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"scenario params must be [name, value] pairs, got {pair!r}"
            ) from None
        params.append(
            (str(name), canonical_value(value, f"scenario parameter {name}="))
        )
    machine = payload.get("machine")
    placement = payload.get("placement")
    faults = payload.get("faults")
    try:
        mspec = None if machine is None else MachineSpec.from_payload(machine)
        pspec = None if placement is None else PlacementSpec(**placement)
    except TypeError as exc:
        raise ConfigurationError(f"bad machine/placement spec: {exc}") from None
    fspec = None if faults is None else FaultSpec.from_payload(faults)
    return Scenario(
        workload=str(workload),
        params=tuple(sorted(params)),
        machine=mspec,
        placement=pspec,
        faults=fspec,
        fidelity=str(payload.get("fidelity") or "full"),
    )


class SubmitRequest(NamedTuple):
    """One decoded ``submit`` message, every field validated."""

    #: the wire scenario with the request's ``faults`` and
    #: ``fidelity`` overrides applied.
    scenario: Scenario
    priority: int
    trace_dir: str | None
    client_id: str | None


def parse_submit(message: dict[str, Any]) -> SubmitRequest:
    """Interpret one ``submit`` message; raises ConfigurationError on a
    bad field.

    This is *the* reading of a submit message: the server builds what
    it runs, and the service its coalescing key and quota charge, from
    what this returns.
    """
    sc = scenario_from_wire(message.get("scenario"))
    faults_text = message.get("faults")
    if faults_text:
        overlay = parse_faults(str(faults_text))
        sc = dataclasses.replace(
            sc,
            faults=overlay if sc.faults is None else sc.faults.merge(overlay),
        )
    fidelity = message.get("fidelity")
    if fidelity is not None and str(fidelity) != sc.fidelity:
        # Per-request override; the replaced scenario's constructor
        # validates the tier name.
        sc = dataclasses.replace(sc, fidelity=str(fidelity))
    priority = message.get("priority") or 0
    try:
        priority = int(priority)
    except (TypeError, ValueError, OverflowError):
        # OverflowError: JSON admits 1e999, and int(inf) raises it.
        raise ConfigurationError(f"bad priority {priority!r}") from None
    trace_dir = message.get("trace")
    client_id = message.get("client_id")
    return SubmitRequest(
        sc,
        priority,
        None if trace_dir is None else str(trace_dir),
        None if client_id is None else str(client_id),
    )
