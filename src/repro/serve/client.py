"""Blocking TCP client for the scenario service.

:class:`ServeClient` is deliberately plain: a socket, a line reader
and a request counter — it has no asyncio of its own, so it drops into
scripts, notebooks and the smoke harness unchanged.  Pipelining comes
from the protocol: :meth:`ServeClient.submit_many` writes every
request before reading any response, letting the server answer the
cached cells at once and coalesce and batch the misses, then collects
replies (which arrive in completion order) back into submission order.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import CommunicationError, ConfigurationError
from repro.run.scenario import Scenario, canonical_value
from repro.serve.protocol import (
    DEFAULT_PORT,
    decode_line,
    encode_line,
    scenario_to_wire,
)

__all__ = ["ServeClient", "ServeReply"]


@dataclass(frozen=True)
class ServeReply:
    """One response from the service, wire fields normalized.

    ``rows`` are re-canonicalized (nested tuples), so they compare
    equal — and serialize byte-identically — to the rows a local
    :class:`~repro.run.runner.Runner` would have produced.
    """

    status: str
    rows: tuple[tuple, ...] = ()
    error: str | None = None
    retry_after: float = 0.0
    #: which limiter rejected (``"queue"``/``"quota"``); rejected only.
    reason: str | None = None
    cached: bool = False
    coalesced: bool = False
    duration_s: float = 0.0
    latency_s: float = 0.0
    #: the request asked for a non-``full`` fidelity but was served
    #: by the full path (surrogate could not vouch for the cell).
    escalated: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ServeClient:
    """Talk to a running ``repro serve`` endpoint.

    Usable as a context manager.  Rejected submissions (backpressure)
    are retried automatically after the server's ``retry_after`` hint
    unless ``retry=False``.

    ``connect_timeout`` bounds only establishing the connection.
    ``timeout`` bounds each blocking read while waiting for a
    response and defaults to ``None`` (wait forever): under
    backpressure a healthy server legitimately holds a submitted cell
    for longer than any fixed deadline — a deep queue or a slow cell
    is not a lost connection.

    ``client_id`` names this client to the server's per-client quota
    (every submit message carries it); ``None`` shares the server's
    anonymous bucket.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float | None = None,
        connect_timeout: float = 10.0,
        client_id: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise CommunicationError(
                f"cannot reach repro serve at {host}:{port}: {exc}"
            ) from None
        # create_connection leaves connect_timeout on the socket;
        # response waits get their own budget.
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        #: responses read while waiting for a different request id.
        self._stash: dict[int, dict[str, Any]] = {}

    # -- plumbing -------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, message: dict[str, Any]) -> int:
        self._next_id += 1
        message["id"] = self._next_id
        try:
            self._sock.sendall(encode_line(message))
        except OSError as exc:
            raise CommunicationError(f"serve connection lost: {exc}") from None
        return self._next_id

    def _wait(self, rid: int) -> dict[str, Any]:
        """Read responses (stashing strays) until ``rid`` answers."""
        while rid not in self._stash:
            try:
                line = self._file.readline()
            except OSError as exc:
                raise CommunicationError(
                    f"serve connection lost: {exc}"
                ) from None
            if not line:
                raise CommunicationError(
                    "serve connection closed before response"
                )
            message = decode_line(line)
            got = message.get("id")
            if isinstance(got, int):
                self._stash[got] = message
        return self._stash.pop(rid)

    @staticmethod
    def _reply(message: dict[str, Any]) -> ServeReply:
        return ServeReply(
            status=str(message.get("status")),
            rows=tuple(
                canonical_value(row) for row in message.get("rows") or ()
            ),
            error=message.get("error"),
            retry_after=float(message.get("retry_after") or 0.0),
            reason=message.get("reason"),
            cached=bool(message.get("cached")),
            coalesced=bool(message.get("coalesced")),
            duration_s=float(message.get("duration_s") or 0.0),
            latency_s=float(message.get("latency_s") or 0.0),
            escalated=bool(message.get("escalated")),
        )

    def _submit_message(
        self,
        sc: Scenario,
        priority: int = 0,
        faults: str | None = None,
        trace: str | None = None,
        fidelity: str | None = None,
    ) -> dict[str, Any]:
        message: dict[str, Any] = {
            "op": "submit",
            "scenario": scenario_to_wire(sc),
            "priority": priority,
        }
        if faults:
            message["faults"] = faults
        if trace:
            message["trace"] = trace
        if fidelity:
            message["fidelity"] = getattr(fidelity, "value", fidelity)
        if self.client_id is not None:
            message["client_id"] = self.client_id
        return message

    # -- requests -------------------------------------------------------------

    def submit(
        self,
        sc: Scenario,
        priority: int = 0,
        faults: str | None = None,
        trace: str | None = None,
        fidelity: str | None = None,
        retry: bool = True,
    ) -> ServeReply:
        """Run one cell; blocks until its result streams back.

        ``fidelity`` overrides the scenario's execution tier for this
        request (``"analytic"`` resolves inline server-side through
        the surrogate; see ``ServeReply.escalated``).  A cell the
        server's cache holds comes back ``cached`` without queueing.
        """
        return self.submit_many(
            [sc], priority, faults, trace, fidelity, retry
        )[0]

    #: option names ``submit_many`` overrides may carry, mirroring
    #: the per-request wire fields.
    _OVERRIDE_KEYS = frozenset({"priority", "faults", "trace", "fidelity"})

    def submit_many(
        self,
        scenarios: Iterable[Scenario],
        priority: int = 0,
        faults: str | None = None,
        trace: str | None = None,
        fidelity: str | None = None,
        retry: bool = True,
        overrides=None,
    ) -> list[ServeReply]:
        """Pipeline a burst of cells; results in submission order.

        All requests hit the wire before the first response is read —
        cached cells and analytic cells resolve inline server-side,
        duplicate misses coalesce, distinct misses pack into batches.
        The keyword options are the burst-wide defaults; ``overrides``
        customizes individual requests without giving up pipelining:
        either a mapping ``{index: {option: value}}`` or a sequence
        aligned with ``scenarios`` (``None`` entries = no override),
        where each per-request dict may set any of ``priority`` /
        ``faults`` / ``trace`` / ``fidelity``::

            client.submit_many(
                cells,
                fidelity="analytic",
                overrides={3: {"fidelity": "full", "priority": -1}},
            )

        Unknown option names — or indices outside the burst — raise
        :class:`~repro.errors.ConfigurationError` before anything is
        sent, so a typo cannot half-submit a burst.
        """
        cells: Sequence[Scenario] = list(scenarios)
        options: list[dict[str, Any]] = [
            {"priority": priority, "faults": faults,
             "trace": trace, "fidelity": fidelity}
            for _ in cells
        ]
        if overrides is not None:
            items = (
                overrides.items() if hasattr(overrides, "items")
                else enumerate(overrides)
            )
            for idx, per_request in items:
                if per_request is None:
                    continue
                if not 0 <= int(idx) < len(cells):
                    raise ConfigurationError(
                        f"submit_many override index {idx} outside the "
                        f"burst of {len(cells)} scenarios"
                    )
                unknown = set(per_request) - self._OVERRIDE_KEYS
                if unknown:
                    raise ConfigurationError(
                        f"unknown submit_many override option(s) "
                        f"{sorted(unknown)}; allowed: "
                        f"{sorted(self._OVERRIDE_KEYS)}"
                    )
                options[int(idx)].update(per_request)
        rids = [
            self._send(self._submit_message(sc, **opts))
            for sc, opts in zip(cells, options)
        ]
        replies: list[ServeReply] = []
        for i, rid in enumerate(rids):
            reply = self._reply(self._wait(rid))
            while reply.status == "rejected" and retry:
                time.sleep(max(0.05, reply.retry_after))
                again = self._send(
                    self._submit_message(cells[i], **options[i])
                )
                reply = self._reply(self._wait(again))
            replies.append(reply)
        return replies

    def stats(self) -> dict[str, float]:
        """Live service counters (queue depth, coalesce hits, ...)."""
        rid = self._send({"op": "stats"})
        message = self._wait(rid)
        if message.get("status") != "stats":
            raise CommunicationError(f"bad stats response: {message!r}")
        return dict(message.get("stats") or {})

    def ping(self) -> int:
        """Round-trip liveness check; returns the protocol version."""
        rid = self._send({"op": "ping"})
        message = self._wait(rid)
        if message.get("status") != "pong":
            raise CommunicationError(f"bad ping response: {message!r}")
        return int(message.get("protocol") or 0)
