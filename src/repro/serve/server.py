"""TCP front end of the scenario service.

:class:`ScenarioServer` binds one :class:`ScenarioService` to a
JSON-lines endpoint (the protocol is documented in
:mod:`repro.serve.protocol`; plain ``asyncio`` streams, stdlib only).
Each connection is one reader task; each ``submit`` runs as its own
task so slow cells never block the connection — responses stream back
in completion order and clients match them to requests by ``id``.

:class:`BackgroundServer` runs the whole stack (event loop, service,
server) on a daemon thread; :func:`serve_forever`, the blocking loop
behind the ``repro serve`` CLI verb, waits on one.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.errors import ReproError
from repro.run.runner import Runner
from repro.serve.protocol import (
    DEFAULT_PORT,
    LINE_LIMIT,
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    parse_submit,
)
from repro.serve.service import QuotaPolicy, ScenarioService, ServeRejected

__all__ = [
    "BackgroundServer",
    "ScenarioServer",
    "serve_forever",
]


class ScenarioServer:
    """Bind a :class:`ScenarioService` to a TCP endpoint.

    The connection loop owns the line limit, blank and undecodable
    lines, the per-connection write lock, unknown ops, exactly one
    response per request whatever the service raises, and answering
    what was asked before it closes on EOF.
    """

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
            self._serve_connection, self.host, self.port, limit=LINE_LIMIT
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

    async def _submit(self, message: dict) -> dict:
        """One ``submit`` message's response body; raises
        :class:`ServeRejected` when admission control refuses it."""
        request = parse_submit(message)
        result = await self.service.submit(
            request.scenario,
            priority=request.priority,
            trace_dir=request.trace_dir,
            client_id=request.client_id,
        )
        if not result.ok:
            return {"status": "error", "error": result.error}
        ok = {"status": "ok",
              "rows": [list(r) for r in result.rows],
              "cached": result.cached, "coalesced": result.coalesced,
              "duration_s": result.duration_s,
              "latency_s": result.latency_s}
        if result.escalated:
            # Only present when true: full-fidelity responses keep
            # their exact pre-fidelity wire bytes.
            ok["escalated"] = True
        return ok

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(asyncio.current_task())
        # One lock per connection: submit tasks finish out of order and
        # must not interleave their response lines.
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def reply(rid: Any, body: dict) -> None:
            body["id"] = rid
            async with write_lock:
                writer.write(encode_line(body))
                await writer.drain()

        async def answer_submit(rid: Any, message: dict) -> None:
            try:
                body = await self._submit(message)
            except ServeRejected as exc:
                body = {"status": "rejected", "retry_after": exc.retry_after,
                        "depth": exc.depth, "reason": exc.reason}
            except Exception as exc:
                # The per-request boundary: whatever a bad field or the
                # service raises becomes this request's error response,
                # and the connection keeps serving.
                body = {"status": "error", "error": str(exc)}
            try:
                await reply(rid, body)
            except OSError:
                pass  # client went away; nobody left to answer

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
                    await reply(None, {"status": "error", "error": str(exc)})
                    continue
                rid = message.get("id")
                op = message.get("op")
                if op == "submit":
                    task = asyncio.ensure_future(answer_submit(rid, message))
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif op == "stats":
                    await reply(
                        rid, {"status": "stats", "stats": self.service.stats()}
                    )
                elif op == "ping":
                    await reply(
                        rid, {"status": "pong", "protocol": PROTOCOL_VERSION}
                    )
                else:
                    await reply(
                        rid, {"status": "error", "error": f"unknown op {op!r}"}
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


class BackgroundServer:
    """A full serve stack on a daemon thread.

    ``with BackgroundServer(runner) as server:`` yields once the socket
    is bound (``server.port`` is then real even for ``port=0``), and
    re-raises a startup failure in the caller; exit closes the server
    on its own loop, which drains the service, and joins the thread.
    It hosts ``repro serve`` (:func:`serve_forever`) and the tests.
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
        self._service_args = dict(
            max_queue=max_queue, max_batch=max_batch,
            batch_wait=batch_wait, quota=quota,
        )
        self.host = host
        self.port = port
        self.service: ScenarioService | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.service = ScenarioService(self._runner, **self._service_args)
            server = await ScenarioServer(
                self.service, host=self.host, port=self.port
            ).start()
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

    def __enter__(self) -> "BackgroundServer":
        self._ready.clear()
        self._startup_error = None
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
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()


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
    try:
        with BackgroundServer(
            runner, host, port, max_queue, max_batch, batch_wait, quota
        ) as server:
            print(
                f"repro serve: listening on {server.host}:{server.port} "
                f"(jobs={runner.jobs}, max_queue={max_queue}, "
                f"max_batch={max_batch})",
                flush=True,
            )
            threading.Event().wait()  # until KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    finally:
        runner.close()
    return 0
