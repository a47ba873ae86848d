"""The async batching scheduler behind ``repro serve``.

:class:`ScenarioService` fronts a :class:`~repro.run.runner.Runner`
with the three mechanisms a long-lived scenario service needs:

* **admission control** — a bounded priority queue; once ``max_queue``
  distinct cells are waiting, a new miss is rejected with a
  ``retry_after`` hint derived from the observed service rate
  (:class:`ServeRejected`), so a traffic burst degrades into client
  backoff instead of unbounded memory growth.  An optional
  :class:`QuotaPolicy` layers per-client token buckets on top: each
  ``client_id`` gets ``burst`` tokens refilled at ``rate``/s, so one
  greedy client is throttled (``reason="quota"``) before it can crowd
  the shared queue and starve everyone else;
* **request coalescing** — requests are keyed by the *effective*
  scenario content hash (runner fault overlay included): N concurrent
  submissions of the same cell share one queue slot, one execution
  and one cache write, and all N futures resolve from the same
  :class:`~repro.run.runner.RunRecord`.  Coalescing covers both
  queued and in-flight cells — a request arriving while its twin
  executes still attaches;
* **micro-batching** — the single dispatcher drains up to
  ``max_batch`` compatible cells (same per-request trace directory)
  per cycle and hands them to :meth:`Runner.run`, whose one
  long-lived worker pool executes the batch in parallel; results
  stream back to each waiter as its batch completes.  Batches size
  themselves to the backlog: under light load a cell dispatches
  alone and immediately, under pressure batches fill up.

Everything observable is counted in one plain dict of totals
(:attr:`ScenarioService.counts`: ``serve.requests``,
``serve.coalesced``, ``serve.batch_occupancy``, ``serve.rejected`` and
friends), reported with live queue depths, p50/p99 request latency
and the runner's own snapshot by :meth:`ScenarioService.stats`.

The service never *executes* a full-fidelity cell on the event loop:
batches run in a worker thread (``asyncio.to_thread``) so the loop
stays responsive to new submissions — which is exactly what lets late
duplicates coalesce onto in-flight work.  But every untraced request
first takes the **inline path**
(:meth:`~repro.run.runner.Runner.resolve_inline`) right on the event
loop: a request the cache already holds, at any fidelity, is answered
from it, and a non-``full`` miss is resolved by the surrogate in
microseconds.  Either way the request bypasses the queue, the
micro-batcher and the thread hop entirely — there is nothing to batch
when the answer is cheaper than the queue hop — so a cached cell is
answered even while the queue is full.  Only misses queue, coalesce
and batch; a fast cell the calibrated error table cannot vouch for
transparently escalates into the normal queue (and its result carries
``escalated=True``).  A traced request (``trace_dir``, or the
runner's own) skips the cache, because tracing forces execution.

:meth:`~ScenarioService.submit` is the one entry: every request is
counted, quota-charged and keyed there.  In-process callers holding a
list of cells call :meth:`Runner.run` directly instead.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError
from repro.run.runner import Runner, RunRecord
from repro.run.scenario import Scenario

__all__ = [
    "ClientQuota",
    "QuotaPolicy",
    "ScenarioService",
    "ServeRejected",
    "ServeResult",
]


class ServeRejected(ReproError):
    """Admission control refused a request.

    ``reason`` says which limiter fired: ``"queue"`` (the bounded
    priority queue is full) or ``"quota"`` (the caller's token bucket
    is empty).  ``retry_after`` is the service's estimate (seconds) of
    when the request would be admitted — queue depth times the
    smoothed per-cell service time divided by the runner's worker
    count for a queue rejection, the bucket's refill deficit for a
    quota rejection.
    """

    def __init__(
        self, retry_after: float, depth: int, reason: str = "queue"
    ) -> None:
        self.retry_after = retry_after
        self.depth = depth
        self.reason = reason
        what = (
            f"queue full ({depth} cells deep)"
            if reason == "queue"
            else "client quota exhausted"
        )
        super().__init__(f"{what}; retry in {retry_after:.2f}s")


@dataclass(frozen=True)
class QuotaPolicy:
    """Per-client token-bucket admission policy.

    Each distinct ``client_id`` gets a bucket holding up to ``burst``
    tokens, refilled at ``rate`` tokens/second; every submission
    spends one.  A caller that stays under ``rate`` requests/s is
    never throttled; a burst up to ``burst`` is absorbed; past that
    the request is rejected with the bucket's refill deficit as the
    ``retry_after`` hint — so one greedy client backs off while
    everyone else's buckets (and the shared queue) stay healthy.

    Requests without a ``client_id`` share the ``"anonymous"`` bucket.
    ``max_clients`` bounds the bucket table (LRU eviction — an evicted
    client that returns simply starts with a fresh full bucket).
    """

    rate: float
    burst: float
    max_clients: int = 4096

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst < 1 or self.max_clients < 1:
            raise ConfigurationError(
                f"quota needs rate > 0, burst >= 1, max_clients >= 1; "
                f"got {self.rate}/{self.burst}/{self.max_clients}"
            )

    def limiter(self) -> "ClientQuota":
        return ClientQuota(self)


class ClientQuota:
    """The mutable bucket table enforcing one :class:`QuotaPolicy`."""

    #: bucket key used when a request carries no client id.
    ANONYMOUS = "anonymous"

    def __init__(self, policy: QuotaPolicy) -> None:
        self.policy = policy
        #: client id -> (tokens, last refill timestamp), LRU order.
        self._buckets: OrderedDict[str, tuple[float, float]] = OrderedDict()

    def charge(self, client_id: str | None, depth: int = 0) -> None:
        """Spend one of ``client_id``'s tokens, or raise
        :class:`ServeRejected` (``reason="quota"``) with the seconds
        until one will have refilled as the ``retry_after`` hint;
        ``depth`` is the queue depth the rejection reports."""
        policy = self.policy
        key = client_id or self.ANONYMOUS
        buckets = self._buckets
        now = time.monotonic()
        state = buckets.get(key)
        if state is None:
            tokens = policy.burst
        else:
            tokens, then = state
            tokens = min(policy.burst, tokens + (now - then) * policy.rate)
        if tokens >= 1.0:
            buckets[key] = (tokens - 1.0, now)
            buckets.move_to_end(key)
            if len(buckets) > policy.max_clients:
                buckets.popitem(last=False)
            return
        buckets[key] = (tokens, now)
        buckets.move_to_end(key)
        raise ServeRejected(
            max(0.05, (1.0 - tokens) / policy.rate), depth, reason="quota"
        )


@dataclass(frozen=True)
class ServeResult:
    """One submission's outcome (the in-process mirror of an ``ok`` /
    ``error`` protocol response)."""

    scenario: Scenario
    rows: tuple[tuple, ...] = ()
    error: str | None = None
    #: served from the runner's result cache (no execution at all).
    cached: bool = False
    #: shared an execution with an earlier identical in-flight request.
    coalesced: bool = False
    #: cell execution wall time (0 for cached/coalesced-onto results).
    duration_s: float = 0.0
    #: submit-to-resolve wall time as this caller saw it.
    latency_s: float = 0.0
    #: a non-``full`` request the surrogate could not vouch for; it
    #: ran the full path instead (see ``RunRecord.escalated``).
    escalated: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Entry:
    """One distinct cell in the queue (or in flight): the unit work is
    coalesced onto."""

    key: tuple
    #: as submitted (raw) — the runner merges its own fault overlay.
    scenario: Scenario
    trace_dir: str | None
    priority: int
    seq: int
    #: ``(future, submit time, coalesced)`` per waiting request.
    waiters: list[tuple[asyncio.Future, float, bool]] = field(
        default_factory=list
    )
    #: popped into a batch; stale heap tuples for it are skipped and
    #: new duplicates attach as in-flight coalesces.
    dispatched: bool = False


def coalescing_key(effective: Scenario, trace_dir: str | None) -> tuple:
    """The identity two requests share iff one execution answers both.

    ``effective`` is the scenario as the runner will execute it
    (:meth:`Runner.effective_scenario`).  Its content hash covers the
    fidelity tier, so an analytic submit never coalesces with a
    full-DES submit of the same cell; the tier rides along explicitly
    so that invariant is visible here.
    """
    return (effective.key(), trace_dir, effective.fidelity)


#: Cap on the retained latency samples (p50/p99 window).
_LATENCY_WINDOW = 4096


class ScenarioService:
    """Queue, coalesce and batch scenario requests against one runner.

    Single event loop, single dispatcher; the runner's process pool
    provides the parallelism.  Use as an async context manager, or
    pair :meth:`start` with :meth:`close` (close drains the queue —
    every accepted request is answered before close returns).
    """

    def __init__(
        self,
        runner: Runner | None = None,
        max_queue: int = 1024,
        max_batch: int = 32,
        batch_wait: float = 0.0,
        quota: QuotaPolicy | None = None,
    ) -> None:
        if max_queue < 1 or max_batch < 1:
            raise ConfigurationError(
                f"max_queue and max_batch must be >= 1, "
                f"got {max_queue}/{max_batch}"
            )
        self.runner = runner if runner is not None else Runner()
        self.max_queue = max_queue
        self.max_batch = max_batch
        #: per-client token-bucket admission; ``None`` = no quotas.
        self.quota = quota
        self._quota = quota.limiter() if quota is not None else None
        #: seconds the dispatcher lingers after waking so a burst of
        #: arrivals lands in one batch; 0 dispatches immediately
        #: (batches then form naturally while earlier ones execute).
        self.batch_wait = batch_wait
        #: counter totals (plus the ``serve.batch_occupancy`` gauge) by
        #: stats key; a key appears once first counted.
        self.counts: Counter[str] = Counter()
        self._heap: list[tuple[int, int, _Entry]] = []
        self._index: dict[tuple, _Entry] = {}
        self._queued = 0
        self._inflight = 0
        self._seq = itertools.count()
        self._work = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        #: latency samples per fidelity tier (p50/p99 windows).
        self._latencies: dict[str, list[float]] = {}
        #: smoothed per-cell service time (seeds the retry-after hint).
        self._cell_s = 0.05

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "ScenarioService":
        """Start the dispatcher (idempotent)."""
        if self._task is None:
            # From here on cells run on two threads: inline cells on the
            # event loop, batches on a worker thread.  Two threads that
            # first import submodules of one package at the same time can
            # deadlock on CPython's per-module import locks, which the
            # import system breaks by handing one of them a partially
            # initialised module.  Load the layers every cell shares
            # (machine, netmodel, mpi, sim, all imported by the modeled
            # forms' closed forms) and the permit policy here, on one
            # thread.
            import repro.surrogate.models  # noqa: F401

            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="repro-serve-dispatcher"
            )
        return self

    async def close(self) -> None:
        """Stop accepting work, drain the queue, stop the dispatcher."""
        self._closed = True
        self._work.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def __aenter__(self) -> "ScenarioService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- submission -----------------------------------------------------------

    async def submit(
        self,
        scenario: Scenario,
        priority: int = 0,
        trace_dir: str | None = None,
        client_id: str | None = None,
    ) -> ServeResult:
        """Run one cell and wait for its result.

        An untraced request the runner resolves inline (a cache hit,
        or a surrogate-served fast cell) is answered at once.  Misses
        queue, and identical concurrent misses coalesce: whichever
        arrives first owns the queue slot; later twins attach to it and every
        waiter resolves from the one execution.  ``priority`` orders
        the queue (lower first; FIFO within a priority); a duplicate
        carrying a better priority promotes the queued cell.  Raises
        :class:`ServeRejected` when admission control refuses the
        request — the queue is full (misses only), or ``client_id``'s
        token bucket is empty under a :class:`QuotaPolicy` (every
        request, inline ones too).
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        t_in = time.monotonic()
        # The *effective* scenario (runner fault overlay merged in)
        # picks the tier and keys coalescing; the queue carries the raw
        # scenario, because Runner.run applies the overlay itself —
        # enqueuing the merged form would apply it twice and shift the
        # cache key away from direct Runner.run.
        effective = self.runner.effective_scenario(scenario)
        fid = effective.fidelity
        counts = self.counts
        counts["serve.requests"] += 1
        counts[f"serve.requests.{fid}"] += 1
        if self._quota is not None:
            # Quota gates the inline path too: it protects the
            # service's CPU, not just the queue.
            try:
                self._quota.charge(client_id, self._queued)
            except ServeRejected:
                counts["serve.rejected"] += 1
                counts["serve.quota_rejected"] += 1
                raise
        if trace_dir is None:
            # Inline path: a cache hit (any tier) or a surrogate cell
            # is answered right here on the event loop — no queue slot,
            # no batch, no thread hop.  ``None`` means the cell needs
            # the full path: a full miss, or an escalating fast cell.
            record = self.runner.resolve_inline(effective)
            if record is not None:
                counts["serve.inline"] += 1
                counts["serve.completed" if record.ok else "serve.errors"] += 1
                return self._result(record, fid, t_in, coalesced=False)
            if fid != "full":
                counts["serve.escalated"] += 1

        key = coalescing_key(effective, trace_dir)
        future = asyncio.get_running_loop().create_future()
        entry = self._index.get(key)
        if entry is not None:
            entry.waiters.append((future, t_in, True))
            counts["serve.coalesced"] += 1
            if priority < entry.priority and not entry.dispatched:
                # Promote: push a better-ranked heap tuple; the stale
                # one is skipped at pop time via the dispatched flag
                # (the entry dispatches at most once either way).
                entry.priority = priority
                heapq.heappush(self._heap, (priority, entry.seq, entry))
            return await future
        if self._queued >= self.max_queue:
            counts["serve.rejected"] += 1
            raise ServeRejected(self.retry_after(), self._queued)
        entry = _Entry(
            key=key, scenario=scenario, trace_dir=trace_dir,
            priority=priority, seq=next(self._seq),
            waiters=[(future, t_in, False)],
        )
        self._index[key] = entry
        heapq.heappush(self._heap, (priority, entry.seq, entry))
        self._queued += 1
        self._work.set()
        return await future

    def _result(
        self, record: RunRecord, fid: str, t_in: float, coalesced: bool
    ) -> ServeResult:
        """One request's answer from its cell's record; notes the
        submit-to-resolve latency."""
        latency = time.monotonic() - t_in
        self._note_latency(fid, latency)
        return ServeResult(
            scenario=record.scenario,
            rows=record.rows,
            error=record.error,
            cached=record.cached,
            coalesced=coalesced,
            duration_s=record.duration_s,
            latency_s=latency,
            escalated=record.escalated,
        )

    def _note_latency(self, fidelity: str, latency: float) -> None:
        samples = self._latencies.setdefault(fidelity, [])
        samples.append(latency)
        if len(samples) > _LATENCY_WINDOW:
            del samples[: -_LATENCY_WINDOW // 2]

    def retry_after(self) -> float:
        """Backoff hint for a rejected request (seconds)."""
        backlog = self._queued + self._inflight
        return max(
            0.05, backlog * self._cell_s / max(1, self.runner.jobs)
        )

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Counter totals, latency percentiles and live depths, merged
        with the runner's :meth:`~repro.run.runner.Runner.snapshot`.

        Latency percentiles come combined (``serve.latency_p50_s`` /
        ``..._p99_s``, the pre-fidelity keys) *and* per tier
        (``serve.analytic.latency_p50_s``, ...) for every tier that
        has served at least one request; per-tier request counts are
        the ``serve.requests.<fidelity>`` counters, and every request,
        rejected ones too, counts in its tier and in
        ``serve.requests``.  ``serve.inline`` counts the requests
        answered on the event loop (cache hits at any fidelity, and
        surrogate-served misses); ``serve.escalated`` counts the
        non-``full`` requests that fell through to the queue.  The
        runner and cache counters let a remote stats call prove the
        execution story: executed-exactly-once shows up as
        ``runner.executed`` == distinct cells.  ``cache.misses``
        counts probes, not cells: a served miss is probed on submit
        and again by :meth:`Runner.run` at dispatch (so a cell another
        process stored meanwhile is still a hit), hence counted twice.
        """
        out = {name: float(n) for name, n in sorted(self.counts.items())}

        def pct(samples: list[float], p: float) -> float:
            if not samples:
                return 0.0
            return samples[min(len(samples) - 1, int(p * len(samples)))]

        combined: list[float] = []
        for fid, samples in sorted(self._latencies.items()):
            ordered = sorted(samples)
            combined.extend(ordered)
            out[f"serve.{fid}.latency_p50_s"] = pct(ordered, 0.50)
            out[f"serve.{fid}.latency_p99_s"] = pct(ordered, 0.99)
        combined.sort()
        out["serve.queue_depth"] = float(self._queued)
        out["serve.inflight"] = float(self._inflight)
        out["serve.latency_p50_s"] = pct(combined, 0.50)
        out["serve.latency_p99_s"] = pct(combined, 0.99)
        out.update(self.runner.snapshot())
        return out

    # -- dispatch -------------------------------------------------------------

    def _form_batch(self) -> list[_Entry]:
        """Drain up to ``max_batch`` compatible entries, best priority
        first.  Compatibility = same per-request trace directory (a
        traced cell and an untraced one cannot share a
        :meth:`Runner.run` call); incompatible pops go straight
        back on the heap for the next cycle."""
        batch: list[_Entry] = []
        holdover: list[tuple[int, int, _Entry]] = []
        trace_dir: str | None = None
        while self._heap and len(batch) < self.max_batch:
            item = heapq.heappop(self._heap)
            entry = item[2]
            if entry.dispatched:
                continue  # stale tuple left by a priority promotion
            if batch and entry.trace_dir != trace_dir:
                holdover.append(item)
                continue
            trace_dir = entry.trace_dir
            entry.dispatched = True
            self._queued -= 1
            batch.append(entry)
        for item in holdover:
            heapq.heappush(self._heap, item)
        if not self._heap:
            self._work.clear()
        return batch

    async def _dispatch_loop(self) -> None:
        counts = self.counts
        while True:
            await self._work.wait()
            if self.batch_wait > 0.0 and not self._closed:
                # Linger so a burst of arrivals packs into one batch.
                await asyncio.sleep(self.batch_wait)
            batch = self._form_batch()
            if not batch:
                if self._closed:
                    break
                continue
            self._inflight += len(batch)
            counts["serve.batches"] += 1
            counts["serve.batch_cells"] += len(batch)
            counts["serve.batch_occupancy"] = len(batch) / self.max_batch
            t_batch = time.monotonic()
            try:
                records = await asyncio.to_thread(
                    self.runner.run,
                    [entry.scenario for entry in batch],
                    batch[0].trace_dir,
                )
            except BaseException as exc:  # scheduler must survive runner bugs
                self._resolve(batch, None, exc)
                if isinstance(exc, asyncio.CancelledError):
                    # Answer the waiters, then honor the cancellation —
                    # swallowing it would park a cancelled task on
                    # _work.wait() and stall event-loop teardown.
                    raise
            else:
                elapsed = time.monotonic() - t_batch
                self._cell_s = (
                    0.8 * self._cell_s + 0.2 * elapsed / len(batch)
                )
                self._resolve(batch, records, None)

    def _resolve(
        self,
        batch: list[_Entry],
        records: list[RunRecord] | None,
        exc: BaseException | None,
    ) -> None:
        """Answer every waiter of every entry in a completed batch.

        Runs on the event loop with no awaits, so removal from the
        coalescing index and future resolution are atomic: a duplicate
        arriving after this either found the in-flight entry (and is
        answered here) or misses the index and queues a fresh cell —
        never both, never neither.
        """
        counts = self.counts
        for i, entry in enumerate(batch):
            del self._index[entry.key]
            self._inflight -= 1
            record = records[i] if records is not None else None
            if record is not None and record.ok:
                counts["serve.completed"] += 1
            else:
                counts["serve.errors"] += 1
            if record is not None and record.escalated:
                # counted once per *cell*; serve.escalated (submit
                # side) counts per request that fell through inline.
                counts["serve.escalated_cells"] += 1
            fid = entry.key[2]
            for future, t_in, coalesced in entry.waiters:
                if future.cancelled():
                    continue
                if record is not None:
                    future.set_result(
                        self._result(record, fid, t_in, coalesced)
                    )
                else:
                    future.set_exception(
                        exc if exc is not None
                        else ConfigurationError("batch produced no record")
                    )
