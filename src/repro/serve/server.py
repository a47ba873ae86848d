"""TCP front end of the scenario service.

:class:`ScenarioServer` speaks the JSON-lines protocol documented in
:mod:`repro.serve.protocol` over plain ``asyncio`` streams (stdlib
only).  Each connection is one reader task; each ``submit`` spawns its
own task so slow cells never block the connection — responses stream
back in completion order and clients match them to requests by ``id``.

Two entry points wrap it:

* :func:`serve_forever` — the blocking loop behind the ``repro serve``
  CLI verb;
* :class:`BackgroundServer` — a context manager that runs the whole
  stack (event loop, service, server) on a daemon thread, for tests.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

from repro.errors import ReproError
from repro.faults.spec import parse_faults
from repro.run.runner import Runner
from repro.run.scenario import Scenario
from repro.serve.protocol import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    scenario_from_wire,
)
from repro.serve.service import QuotaPolicy, ScenarioService, ServeRejected

__all__ = [
    "BackgroundServer",
    "ScenarioServer",
    "request_scenario",
    "serve_forever",
]

#: Generous per-line cap; a scenario wire form is a few hundred bytes.
_LINE_LIMIT = 1 << 20


def request_scenario(message: dict) -> Scenario:
    """The scenario one ``submit`` message asks for, overrides applied.

    Decodes the wire scenario, merges a request-level ``faults``
    grammar string onto the scenario's own spec, and applies a
    request-level ``fidelity`` override.  This is *the* submit-message
    interpretation — the single server uses it to build what it runs,
    and the shard router uses the identical reading to compute the
    routing key, so a cell can never hash to one worker and execute as
    another.
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
        # validates the tier name, so junk turns into an error
        # response for this request only.
        sc = dataclasses.replace(sc, fidelity=str(fidelity))
    return sc


class ScenarioServer:
    """Bind a :class:`ScenarioService` to a TCP endpoint."""

    def __init__(
        self,
        service: ScenarioService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ) -> None:
        self.service = service
        self.host = host
        #: requested port; after :meth:`start` the bound port (use
        #: ``port=0`` to let the OS pick one).
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> "ScenarioServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.service.close()

    async def __aenter__(self) -> "ScenarioServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(asyncio.current_task())
        # One lock per connection: submit tasks finish out of order and
        # must not interleave their response lines.
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def reply(message: dict) -> None:
            async with write_lock:
                writer.write(encode_line(message))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                    ValueError,  # readline wraps LimitOverrunError in it
                ):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                except ReproError as exc:
                    await reply({"id": None, "status": "error", "error": str(exc)})
                    continue
                rid = message.get("id")
                op = message.get("op")
                if op == "submit":
                    task = asyncio.ensure_future(
                        self._do_submit(rid, message, reply)
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif op == "stats":
                    await reply(
                        {"id": rid, "status": "stats",
                         "stats": self.service.stats()}
                    )
                elif op == "ping":
                    await reply(
                        {"id": rid, "status": "pong",
                         "protocol": PROTOCOL_VERSION}
                    )
                else:
                    await reply(
                        {"id": rid, "status": "error",
                         "error": f"unknown op {op!r}"}
                    )
            if pending:
                # Client stopped sending; still answer what it asked for.
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            pass  # server shutting down mid-read; fall through and close
        finally:
            self._connections.discard(asyncio.current_task())
            for task in pending:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _do_submit(self, rid, message: dict, reply) -> None:
        try:
            sc = request_scenario(message)
            trace_dir = message.get("trace")
            client_id = message.get("client_id")
            result = await self.service.submit(
                sc,
                priority=int(message.get("priority") or 0),
                trace_dir=None if trace_dir is None else str(trace_dir),
                client_id=None if client_id is None else str(client_id),
            )
        except ServeRejected as exc:
            await reply(
                {"id": rid, "status": "rejected",
                 "retry_after": exc.retry_after, "depth": exc.depth,
                 "reason": exc.reason}
            )
            return
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            await reply({"id": rid, "status": "error", "error": str(exc)})
            return
        if result.ok:
            ok = {"id": rid, "status": "ok",
                  "rows": [list(r) for r in result.rows],
                  "cached": result.cached, "coalesced": result.coalesced,
                  "duration_s": result.duration_s,
                  "latency_s": result.latency_s}
            if result.escalated:
                # Only present when true: full-fidelity responses keep
                # their exact pre-fidelity wire bytes.
                ok["escalated"] = True
            await reply(ok)
        else:
            await reply({"id": rid, "status": "error", "error": result.error})


def serve_forever(
    runner: Runner,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    max_queue: int = 1024,
    max_batch: int = 32,
    batch_wait: float = 0.0,
    quota: QuotaPolicy | None = None,
) -> int:
    """Run the scenario service until interrupted (``repro serve``)."""

    async def _main() -> int:
        service = ScenarioService(
            runner, max_queue=max_queue,
            max_batch=max_batch, batch_wait=batch_wait, quota=quota,
        )
        server = ScenarioServer(service, host=host, port=port)
        await server.start()
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"(jobs={runner.jobs}, max_queue={max_queue}, "
            f"max_batch={max_batch})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()  # until cancelled
        finally:
            await server.close()
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return 0
    finally:
        runner.close()


class BackgroundServer:
    """A full serve stack on a daemon thread.

    ``with BackgroundServer(runner) as server:`` yields once the socket
    is bound (``server.port`` is then real even for ``port=0``); exit
    drains the service and joins the thread.  Intended for tests —
    production use is ``repro serve``.
    """

    def __init__(
        self,
        runner: Runner,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
        max_batch: int = 32,
        batch_wait: float = 0.0,
        quota: QuotaPolicy | None = None,
    ) -> None:
        self._runner = runner
        self._host = host
        self._port = port
        self._service_args = dict(
            max_queue=max_queue, max_batch=max_batch,
            batch_wait=batch_wait, quota=quota,
        )
        self.host = host
        self.port = port
        self.service: ScenarioService | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.service = ScenarioService(self._runner, **self._service_args)
            server = ScenarioServer(
                self.service, host=self._host, port=self._port
            )
            await server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.host, self.port = server.host, server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()
