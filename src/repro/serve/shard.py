"""The sharded serve tier: N worker services behind one front door.

The paper's machine is a *cluster of clusters* — many hosts behind one
front door, with placement deciding throughput — and this module gives
the serve tier the same shape.  :class:`ShardedServer` runs N worker
processes, each a full single-worker stack
(a :class:`~repro.serve.server.BackgroundServer` on a private
port), behind
one router speaking the *same* JSON-lines protocol, so every existing
client — :class:`~repro.serve.client.ServeClient`, ``netcat``, the
smoke harnesses — talks to a fleet without changing a byte.

Three design decisions carry the tier:

**Routing is consistent hashing on the effective-scenario content
key.**  The router reads each submit message with the workers' own
:func:`~repro.serve.protocol.parse_submit`, merges the fleet-wide
fault/fidelity overlay through the very
:class:`~repro.run.runner.Runner` every worker forks from, and hashes
the service's own :func:`~repro.serve.service.coalescing_key` onto a
ring of virtual nodes.  Identical cells therefore always land on the
same worker, which keeps request
coalescing **global**: N duplicate submits anywhere in the fleet
collapse to one queue slot and one execution on one worker, same as
against a single server.  A hash ring (vs. round-robin or modulo)
means a worker's death remaps only *its* keys; every other cell keeps
its home, its in-flight coalesces and its warm memory mirror.

**The result cache is shared through the filesystem, not a daemon.**
Every worker serves from a forked copy of one
:class:`~repro.run.cache.ResultCache` over one directory (resolved
absolute before the fork — workers must agree on the store no matter
where they start).  Content-addressed keys plus
atomic publish (tmp + rename) make concurrent cross-process put/get
safe without locks, and the bounded per-worker memory mirror keeps
long-lived workers from leaking.  This shared store is also the
failover story: when a worker dies mid-sweep, its *completed* cells
are already on disk, so the survivors that inherit its keys serve
them as cache hits — byte-identical, zero duplicate executions — and
only genuinely unfinished cells re-execute.

**Failure is detected on the wire and healed by re-dispatch.**  The
router holds one connection per worker; a reader hitting EOF (or a
forward failing to write) marks the worker dead, removes it from the
ring, and re-dispatches every request that was pending on it to the
survivors the ring now names.  Clients see nothing but latency: the
reply arrives from a different worker, rows identical.

Per-client token buckets (:class:`~repro.serve.service.QuotaPolicy`)
sit on the router's front door — admission control belongs at the
fleet boundary, where one greedy client would otherwise crowd every
worker at once.

The router is a :class:`~repro.serve.server.LineServer`: the same
connection loop as the single server, with only its ``submit``
(forward) and ``stats`` (fleet merge by
:func:`~repro.serve.service.merge_stats`) handlers of its own.
"""

from __future__ import annotations

import asyncio
import atexit
import bisect
import hashlib
import multiprocessing
import os
import signal
import threading

from repro.errors import CommunicationError, ConfigurationError, ReproError
from repro.run.runner import Runner
from repro.run.scenario import Scenario
from repro.serve.protocol import (
    DEFAULT_PORT,
    LINE_LIMIT,
    decode_line,
    encode_line,
    parse_submit,
)
from repro.serve.server import BackgroundServer, LineServer, LoopThread
from repro.serve.service import (
    ClientQuota,
    QuotaPolicy,
    ServeRejected,
    coalescing_key,
    merge_stats,
)

__all__ = [
    "HashRing",
    "ShardedServer",
    "serve_sharded",
]

#: Virtual nodes per worker.  64 points per worker keeps the maximum
#: key-share imbalance under ~20% for small fleets while the ring
#: stays tiny (N*64 sha256 points, built once per membership change).
RING_REPLICAS = 64

#: Seconds to wait for a spawned worker to report its bound port.
_SPAWN_TIMEOUT_S = 30.0


class HashRing:
    """Consistent hashing: stable key -> member mapping under churn.

    Each member contributes :data:`RING_REPLICAS` virtual points
    (sha256 of ``"member:replica"``); a key maps to the first point
    clockwise from its own hash.  Removing a member deletes only its
    points, so only keys that mapped to *it* move — the property the
    sharded tier's failover leans on.
    """

    def __init__(self, members=()) -> None:
        self._points: list[int] = []
        self._owners: dict[int, int] = {}
        self._members: set[int] = set()
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.sha256(text.encode()).digest()[:8], "big"
        )

    def add(self, member: int) -> None:
        if member in self._members:
            return
        self._members.add(member)
        for replica in range(RING_REPLICAS):
            point = self._hash(f"{member}:{replica}")
            # sha256 collisions across members are not a practical
            # concern; first owner keeps the point deterministically.
            if point not in self._owners:
                self._owners[point] = member
                bisect.insort(self._points, point)

    def remove(self, member: int) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        dead = [p for p, m in self._owners.items() if m == member]
        for point in dead:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def lookup(self, key: str) -> int:
        """The member owning ``key``; raises if the ring is empty."""
        if not self._points:
            raise CommunicationError("no live workers in the shard ring")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: int) -> bool:
        return member in self._members


def _worker_main(runner: Runner, service_args: dict, conn) -> None:
    """One worker process: a full serve stack on an ephemeral port.

    Reports ``{"port": N}`` (or ``{"error": ...}``) through ``conn``
    once bound, then serves until SIGTERM.  Runs under the ``fork``
    start method, so ``runner`` and the registered workloads and test
    fixtures are inherited — a worker sees exactly the parent's
    registry.
    """
    def _sigterm(*_args):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        with BackgroundServer(runner, **service_args) as server:
            conn.send({"port": server.port})
            conn.close()
            threading.Event().wait()  # until SIGTERM
    except (SystemExit, KeyboardInterrupt):
        pass
    except BaseException as exc:
        if not conn.closed:  # failed before the handshake
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        raise
    finally:
        runner.close()


class _Forward:
    """One client request currently pending on a worker."""

    __slots__ = ("message", "routing_key", "future")

    def __init__(self, message, routing_key, future):
        #: the full client message (re-dispatch needs it verbatim).
        self.message = message
        #: coalescing key (worker re-election on death needs it).
        self.routing_key = routing_key
        #: resolves to the worker's response.
        self.future = future


class _WorkerLink:
    """The router's live connection to one worker."""

    def __init__(self, index: int, port: int) -> None:
        self.index = index
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.alive = False
        #: worker-side request id -> in-flight work.
        self.pending: dict[int, _Forward] = {}
        #: router-originated requests (stats fan-out) awaiting replies.
        self.internal: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=LINE_LIMIT
        )
        self.alive = True

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def send(self, message: dict) -> None:
        async with self._write_lock:
            self.writer.write(encode_line(message))
            await self.writer.drain()

    def close(self) -> None:
        self.alive = False
        if self.writer is not None:
            self.writer.close()


class ShardRouter(LineServer):
    """The front door: one protocol endpoint fanning out to N workers.

    Async core of :class:`ShardedServer`; everything here runs on one
    event loop.  ``submit`` forwards by ring lookup, ``stats`` merges
    the whole fleet, ``ping`` answers locally (the router *is* the
    service from the client's point of view).
    """

    def __init__(
        self,
        links: list[_WorkerLink],
        runner: Runner,
        host: str = "127.0.0.1",
        port: int = 0,
        quota: QuotaPolicy | None = None,
    ) -> None:
        super().__init__(host, port)
        self.links = links
        #: the runner every worker forked from: it merges overlays
        #: exactly as theirs do, so routing keys are their coalescing
        #: keys.
        self.runner = runner
        self.ring = HashRing(link.index for link in links)
        self.quota: ClientQuota | None = (
            quota.limiter() if quota is not None else None
        )
        self._by_index = {link.index: link for link in links}
        self._readers: set[asyncio.Task] = set()
        #: the router's own counter totals, laid over the fleet merge.
        self.counts: dict[str, int] = {
            "shard.routed": 0,
            "shard.redispatched": 0,
            "shard.worker_deaths": 0,
            "shard.rejected": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "ShardRouter":
        for link in self.links:
            await link.connect()
            task = asyncio.get_running_loop().create_task(
                self._read_worker(link), name=f"shard-worker-{link.index}"
            )
            self._readers.add(task)
            task.add_done_callback(self._readers.discard)
        await super().start()
        return self

    async def close(self) -> None:
        await super().close()
        for link in self.links:
            link.close()
        for task in list(self._readers):
            task.cancel()
        if self._readers:
            await asyncio.gather(*self._readers, return_exceptions=True)

    # -- the client side ------------------------------------------------------

    def worker_for_key(self, key: tuple) -> _WorkerLink:
        """The live worker owning one :func:`coalescing_key`."""
        return self._by_index[self.ring.lookup("|".join(map(str, key)))]

    def _pong(self) -> dict:
        return {**super()._pong(), "workers": len(self.ring)}

    async def _submit(self, message: dict) -> dict:
        """Route one submit to the worker owning its coalescing key —
        built from the *effective* scenario, merged exactly as that
        worker's runner will merge it, so every duplicate lands on the
        same worker and coalescing stays global."""
        request = parse_submit(message)
        if self.quota is not None:
            try:
                self.quota.charge(request.client_id)
            except ServeRejected:
                self.counts["shard.rejected"] += 1
                raise
        key = coalescing_key(
            self.runner.effective_scenario(request.scenario),
            request.trace_dir,
        )
        forward = _Forward(
            message, key, asyncio.get_running_loop().create_future()
        )
        await self._forward(self.worker_for_key(key), forward)
        return await forward.future

    async def _forward(self, link: _WorkerLink, forward: _Forward) -> None:
        wid = link.next_id()
        link.pending[wid] = forward
        wire = dict(forward.message)
        wire["id"] = wid
        self.counts["shard.routed"] += 1
        try:
            await link.send(wire)
        except (OSError, RuntimeError):
            # Write failed: the reader task will (or already did)
            # notice the death and re-dispatch everything pending on
            # this link — including the forward just parked there.
            link.pending.pop(wid, None)
            await self._on_worker_death(link)
            await self._redispatch(forward)

    # -- the worker side ------------------------------------------------------

    async def _read_worker(self, link: _WorkerLink) -> None:
        """Pump one worker's responses back to their requests; on EOF,
        declare the worker dead and heal."""
        try:
            while True:
                try:
                    line = await link.reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError,
                        ValueError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                except ReproError:
                    continue  # junk from a dying worker
                wid = message.get("id")
                future = link.internal.pop(wid, None)
                if future is None:
                    forward = link.pending.pop(wid, None)
                    if forward is None:
                        continue  # stale reply for a re-dispatched request
                    future = forward.future
                if not future.done():  # done: its client went away
                    future.set_result(message)
        finally:
            await self._on_worker_death(link)

    async def _on_worker_death(self, link: _WorkerLink) -> None:
        """Remove a dead worker from the ring and re-home its work."""
        if not link.alive and not link.pending and not link.internal:
            return
        was_alive = link.alive
        link.close()
        if link.index in self.ring:
            self.ring.remove(link.index)
            if was_alive:
                self.counts["shard.worker_deaths"] += 1
        for future in link.internal.values():
            if not future.done():
                future.set_result(None)
        link.internal.clear()
        orphans = list(link.pending.values())
        link.pending.clear()
        for forward in orphans:
            await self._redispatch(forward)

    async def _redispatch(self, forward: _Forward) -> None:
        """Send one orphaned request to the worker the ring now names.

        The survivor shares the dead worker's disk cache, so a cell
        the victim had *completed* comes back as a byte-identical
        cache hit; only truly unfinished cells re-execute.
        """
        if forward.future.done():
            return  # its client went away
        try:
            link = self.worker_for_key(forward.routing_key)
        except CommunicationError as exc:  # no survivors at all
            forward.future.set_result({"status": "error", "error": str(exc)})
            return
        self.counts["shard.redispatched"] += 1
        await self._forward(link, forward)

    # -- stats ----------------------------------------------------------------

    async def _stats(self) -> dict[str, float]:
        """One fleet-wide stats dict: the workers' snapshots folded by
        :func:`~repro.serve.service.merge_stats`, plus the router's own
        ``shard.*`` view (live workers, routed/re-dispatched requests,
        deaths, quota rejections)."""
        futures = []
        for link in self.links:
            if not link.alive:
                continue
            wid = link.next_id()
            future = asyncio.get_running_loop().create_future()
            link.internal[wid] = future
            try:
                await link.send({"op": "stats", "id": wid})
            except (OSError, RuntimeError):
                link.internal.pop(wid, None)
                await self._on_worker_death(link)
                continue
            futures.append(future)
        snapshots = []
        for future in futures:
            try:
                message = await asyncio.wait_for(future, timeout=10.0)
            except asyncio.TimeoutError:
                continue
            if message and message.get("status") == "stats":
                snapshots.append(message.get("stats") or {})
        merged = merge_stats(snapshots)
        for name, value in self.counts.items():
            merged[name] = float(value)
        merged["shard.workers"] = float(len(self.ring))
        return merged


class ShardedServer:
    """N serve workers + router, as one context manager.

    ``with ShardedServer(runner, workers=3) as fleet:`` spawns
    the worker processes (``fork`` start method — they inherit the
    parent's registered workloads), waits for every port handshake,
    and binds the router; ``fleet.port`` is then a live protocol
    endpoint any :class:`~repro.serve.client.ServeClient` can use.
    Exit tears the router down and SIGTERMs the workers.

    The chaos-testing handles are first-class: :meth:`worker_for`
    names the worker a scenario routes to and :meth:`kill_worker`
    SIGKILLs one — together they script "kill the owner of this cell
    mid-sweep" in two lines.
    """

    def __init__(
        self,
        runner: Runner,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
        max_batch: int = 32,
        batch_wait: float = 0.0,
        quota: QuotaPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1: {workers}")
        if runner.cache is None or runner.cache.cache_dir is None:
            raise ConfigurationError(
                "a sharded server needs a runner with an on-disk cache — "
                "without one the workers cannot exchange results and "
                "worker death loses completed cells"
            )
        if runner.checkpoint is not None:
            raise ConfigurationError(
                "a sharded server cannot take a checkpoint journal: its "
                "forked workers cannot share one journal file"
            )
        self.workers = workers
        #: the shared store, already absolute (resolved by the cache
        #: before the fork, whatever directory each worker runs in).
        self.cache_dir = str(runner.cache.cache_dir)
        self.host = host
        self.port = port
        self.quota = quota
        #: every worker serves with a forked copy of this runner, and
        #: the router merges overlays through it — routing keys are
        #: the workers' coalescing keys by construction.
        self._runner = runner
        self._service_args = dict(
            max_queue=max_queue, max_batch=max_batch, batch_wait=batch_wait
        )
        self._processes: list[multiprocessing.Process] = []
        self.router: ShardRouter | None = None
        self._loop_thread: LoopThread | None = None
        self._atexit = None

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "ShardedServer":
        links = self._spawn_workers()
        self.router = ShardRouter(
            links, self._runner,
            host=self.host, port=self.port, quota=self.quota,
        )
        self._loop_thread = LoopThread(
            self.router.start, name="repro-shard-router"
        )
        try:
            self._loop_thread.start()
        except BaseException:
            self._terminate_workers()
            raise
        self.host, self.port = self.router.host, self.router.port
        return self

    def __exit__(self, *exc) -> None:
        if self._loop_thread is not None:
            self._loop_thread.stop()
        self._terminate_workers()
        if self._atexit is not None:
            atexit.unregister(self._atexit)
            self._atexit = None

    def _spawn_workers(self) -> list[_WorkerLink]:
        # fork, not spawn: workers must inherit registered workloads
        # (tests and smokes register theirs at import/module scope).
        ctx = multiprocessing.get_context("fork")
        handshakes = []
        for index in range(self.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            # Non-daemon on purpose: a daemonic worker could not own
            # a process pool at jobs > 1.  Orphan protection comes
            # from the atexit terminate below instead — registered
            # *after* multiprocessing's own atexit hook, so (LIFO) it
            # runs first and the interpreter never joins on a worker
            # that was never asked to exit.
            process = ctx.Process(
                target=_worker_main,
                args=(self._runner, self._service_args, child_conn),
                name=f"repro-shard-worker-{index}", daemon=False,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            handshakes.append(parent_conn)
        self._atexit = self._terminate_workers
        atexit.register(self._atexit)
        links = []
        for index, conn in enumerate(handshakes):
            if not conn.poll(_SPAWN_TIMEOUT_S):
                self._terminate_workers()
                raise CommunicationError(
                    f"shard worker {index} did not report a port within "
                    f"{_SPAWN_TIMEOUT_S:.0f}s"
                )
            hello = conn.recv()
            conn.close()
            if "error" in hello:
                self._terminate_workers()
                raise CommunicationError(
                    f"shard worker {index} failed to start: {hello['error']}"
                )
            links.append(_WorkerLink(index, int(hello["port"])))
        return links

    def _terminate_workers(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            if process.pid is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=5.0)

    # -- chaos handles --------------------------------------------------------

    def worker_for(self, sc: Scenario) -> int:
        """Index of the worker ``sc`` currently routes to."""
        key = coalescing_key(self._runner.effective_scenario(sc), None)
        return self.router.worker_for_key(key).index

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker — no cleanup, no goodbye; the router
        heals through the death path exactly as for a real crash."""
        process = self._processes[index]
        if process.pid is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)

    def alive_workers(self) -> int:
        return sum(1 for p in self._processes if p.is_alive())


def serve_sharded(
    runner: Runner,
    workers: int,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    max_queue: int = 1024,
    max_batch: int = 32,
    batch_wait: float = 0.0,
    quota: QuotaPolicy | None = None,
) -> int:
    """Run the sharded tier until interrupted (``repro serve
    --workers N``)."""
    try:
        with ShardedServer(
            runner, workers, host, port, max_queue, max_batch, batch_wait,
            quota,
        ) as fleet:
            print(
                f"repro serve: {workers} workers behind "
                f"{fleet.host}:{fleet.port} (jobs={runner.jobs}/worker, "
                f"shared cache {fleet.cache_dir})",
                flush=True,
            )
            threading.Event().wait()  # until KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    finally:
        runner.close()
    return 0
