"""Simulated-time spans: the tracer at the heart of ``repro.obs``.

A :class:`Tracer` records what every simulated rank (and OpenMP
thread) was doing and when, in *simulated* seconds: nested spans with
a category (``compute``, ``send``, ``wait``, ``collective``,
``omp_region``, ``barrier``, ``cache_lookup``), message records with
send/arrival times, and counters (:mod:`repro.obs.counters`).

Track layout
------------
Spans are attributed to ``(rank, thread)`` tracks.  Thread ``0`` is a
rank's main program flow (compute segments, collectives, OpenMP
regions); OpenMP worker threads use ``1..T-1``.  Because sends and
receives are *asynchronous* — an injection can still be draining, or
several receives can be outstanding, while the main flow computes —
they are placed on dedicated per-rank lanes (:data:`SEND_LANE` and
:data:`RECV_LANE` upward) chosen so spans on any single track never
overlap except by proper nesting.  That invariant is what makes the
Chrome trace render correctly and the critical-path walk well-defined.

Fast path
---------
Instrumented layers hold a tracer reference that is ``None`` when
tracing is off, so the untraced hot path costs one attribute load and
an ``is None`` branch per operation.  :class:`NullTracer` exists for
call sites that want an always-valid object; all of its methods are
no-ops and it buffers nothing.

Ambient tracing
---------------
:func:`use_tracer` installs a process-wide current tracer that
``MPIWorld``/``run_mpi``/``run_parallel_for`` pick up by default —
this is how the run pipeline captures per-cell traces without
threading a tracer argument through every workload signature.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Any, NamedTuple

from repro.errors import ObservabilityError
from repro.obs.counters import CounterSet, EngineSampler
from repro.obs.messages import MessageRecord

__all__ = [
    "CATEGORIES",
    "NULL_TRACER",
    "NullTracer",
    "RECV_LANE",
    "SEND_LANE",
    "Span",
    "Tracer",
    "current_tracer",
    "use_tracer",
]

#: Span categories the exporters and the critical-path walk understand.
CATEGORIES = frozenset(
    ("compute", "send", "recv", "wait", "collective", "omp_region",
     "barrier", "cache_lookup", "retry")
)

#: First per-rank lane (Perfetto ``tid``) carrying send-injection
#: spans; concurrent outstanding sends spill to SEND_LANE+2, +4, ...
SEND_LANE = 64
#: First per-rank lane carrying receive-wait spans; overlapping
#: outstanding receives spill to RECV_LANE+2, +4, ...  (send lanes are
#: even, receive lanes odd, so both families grow without colliding).
RECV_LANE = 65


def _free_lane(lanes: list[float], base: int, t0: float, t1: float) -> int:
    """First lane of a family free over ``[t0, t1]``; marks it busy.

    ``lanes`` holds a busy-until time per allocated slot; slot ``i``
    maps to track ``base + 2*i`` (send and receive families interleave
    on even/odd tids so both can grow unboundedly).
    """
    for i, busy_until in enumerate(lanes):
        if busy_until <= t0:
            lanes[i] = t1
            return base + 2 * i
    lanes.append(t1)
    return base + 2 * (len(lanes) - 1)


class Span(NamedTuple):
    """One closed simulated-time span on a ``(rank, thread)`` track."""

    rank: int
    thread: int
    cat: str
    name: str
    t0: float
    t1: float
    args: dict | None = None


class Tracer:
    """Collects spans, message records and counters for one run.

    ``capacity`` bounds the span buffer (a ring: oldest spans drop
    first, counted in :attr:`dropped_spans`); ``None`` means
    unbounded.  ``counter_interval`` limits counter sampling density
    in simulated seconds.
    """

    enabled = True

    def __init__(
        self,
        capacity: int | None = None,
        counter_interval: float = 0.0,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.spans: deque[Span] = deque(maxlen=capacity)
        self.messages: list[MessageRecord] = []
        self.counters = CounterSet(interval=counter_interval)
        self.dropped_spans = 0
        #: open begin/end stacks per (rank, thread) track.
        self._stacks: dict[tuple[int, int], list] = defaultdict(list)
        #: in-flight message ids per (source, dest, tag), FIFO — the
        #: same matching order the mailbox uses, so wait spans pair
        #: with the send that actually satisfied them.
        self._msg_fifo: dict[tuple[int, int, int], deque[int]] = defaultdict(deque)
        #: per-rank lane occupancy (busy-until time per lane slot) for
        #: the send and receive lane families, so concurrent
        #: outstanding operations never partially overlap on a track.
        self._send_lanes: dict[int, list[float]] = defaultdict(list)
        self._recv_lanes: dict[int, list[float]] = defaultdict(list)

    # -- spans ---------------------------------------------------------------

    def _append(self, span: Span) -> None:
        if self.capacity is not None and len(self.spans) == self.capacity:
            self.dropped_spans += 1
        self.spans.append(span)

    def begin(self, rank: int, cat: str, name: str, t: float,
              thread: int = 0, args: dict | None = None) -> list:
        """Open a nested span; returns a handle for :meth:`end`."""
        handle = [rank, thread, cat, name, t, args]
        self._stacks[(rank, thread)].append(handle)
        return handle

    def end(self, handle: list, t: float) -> None:
        """Close a span opened with :meth:`begin` at time ``t``.

        Out-of-order closes (a parent closed while children are still
        open, e.g. generators torn down after a simulated deadlock)
        implicitly close the children at the same instant; closing a
        handle twice is an error.
        """
        rank, thread, cat, name, t0, args = handle
        stack = self._stacks[(rank, thread)]
        if not any(entry is handle for entry in stack):
            raise ObservabilityError(
                f"span {name!r} on track ({rank}, {thread}) ended twice "
                f"or never begun"
            )
        while stack:
            top = stack.pop()
            r, th, c, n, start, a = top
            if t < start:
                raise ObservabilityError(
                    f"span {n!r} ends at {t} before it began at {start}"
                )
            self._append(Span(r, th, c, n, start, t, a))
            if top is handle:
                break

    def complete(self, rank: int, cat: str, name: str, t0: float, t1: float,
                 thread: int = 0, args: dict | None = None) -> None:
        """Record an already-closed span (no nesting stack involved)."""
        if t1 < t0:
            raise ObservabilityError(
                f"span {name!r} ends at {t1} before it began at {t0}"
            )
        self._append(Span(rank, thread, cat, name, t0, t1, args))

    def instant(self, rank: int, cat: str, name: str, t: float,
                thread: int = 0, args: dict | None = None) -> None:
        """Record a zero-duration marker."""
        self._append(Span(rank, thread, cat, name, t, t, args))

    # -- MPI hooks -----------------------------------------------------------

    def record_send(
        self,
        t: float,
        source: int,
        dest: int,
        tag: int,
        nbytes: float,
        inject_start: float,
        inject_end: float,
        arrival: float,
        link_class: str | None = None,
        hops: int = 0,
    ) -> int:
        """Record one message injection; returns the message id.

        The send span covers the *actual* injection window
        ``[inject_start, inject_end]`` (injections serialize behind
        the rank's link); when the send queued behind an earlier one
        (``inject_start > t``), the queueing delay is recorded as a
        ``wait`` span on the send lane.
        """
        msg_id = len(self.messages)
        self.messages.append(
            MessageRecord(t, source, dest, tag, nbytes, arrival)
        )
        self._msg_fifo[(source, dest, tag)].append(msg_id)
        args = {"msg": msg_id, "bytes": nbytes, "tag": tag}
        lane = _free_lane(self._send_lanes[source], SEND_LANE, t, inject_end)
        if t < inject_start:
            self._append(Span(source, lane, "wait", "inject_queue",
                              t, inject_start, {"msg": msg_id}))
        self._append(Span(source, lane, "send", f"send->{dest}",
                          inject_start, inject_end, args))
        counters = self.counters
        counters.add("mpi.messages", 1, t)
        counters.add("mpi.bytes", nbytes, t)
        if link_class is not None:
            counters.add(f"mpi.bytes.{link_class}", nbytes, t)
        if hops:
            counters.add("net.router_hops", hops, t)
        return msg_id

    def _wait_lane(self, rank: int, t0: float, t1: float) -> int:
        """First receive lane free over ``[t0, t1]`` for ``rank``."""
        return _free_lane(self._recv_lanes[rank], RECV_LANE, t0, t1)

    def on_recv_posted(self, rank: int, source: int, tag: int,
                       t_post: float, event) -> None:
        """Arm a posted receive: when ``event`` fires, a ``wait`` span
        from post to completion is recorded and paired with the
        message that satisfied it."""

        def completed(ev) -> None:
            msg = ev.value
            t1 = ev.sim.now
            msg_id: int | None = None
            if msg is not None:
                fifo = self._msg_fifo.get((msg.source, rank, msg.tag))
                if fifo:
                    msg_id = fifo.popleft()
            lane = self._wait_lane(rank, t_post, t1)
            args = None if msg_id is None else {"msg": msg_id}
            name = f"recv<-{msg.source}" if msg is not None else "recv"
            self._append(Span(rank, lane, "wait", name, t_post, t1, args))
            self.counters.add("mpi.recvs", 1, t1)

        event.add_callback(completed)

    # -- engine hook ---------------------------------------------------------

    def attach_engine(self, sim, interval: float = 0.0) -> None:
        """Sample engine gauges from ``sim`` as its clock advances."""
        sim.observer = EngineSampler(self.counters, interval=interval)

    # -- queries -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def elapsed(self) -> float:
        """Latest span end / message arrival seen (0 for an empty trace)."""
        latest = 0.0
        for s in self.spans:
            if s.t1 > latest:
                latest = s.t1
        for m in self.messages:
            if m.arrival > latest:
                latest = m.arrival
        return latest

    def ranks(self) -> list[int]:
        """Ranks that recorded at least one span."""
        return sorted({s.rank for s in self.spans})

    def spans_for(self, rank: int, thread: int | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.rank == rank and (thread is None or s.thread == thread)
        ]

    def by_category(self) -> dict[str, int]:
        """Span counts per category."""
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.cat] += 1
        return dict(sorted(out.items()))

    def message_summary(self) -> str:
        from repro.obs import messages as mstats

        return mstats.summary(self.messages)


class NullTracer:
    """A tracer that records nothing and allocates nothing.

    Satisfies the full :class:`Tracer` API so call sites can hold an
    always-valid object; its buffers are permanently empty.  Layers
    that instead keep ``None`` for "off" (the MPI hot path) never even
    reach these methods.
    """

    enabled = False
    spans: tuple = ()
    messages: tuple = ()
    dropped_spans = 0
    capacity = 0

    def __init__(self) -> None:
        self.counters = CounterSet()

    def begin(self, rank, cat, name, t, thread=0, args=None):
        return None

    def end(self, handle, t) -> None:
        pass

    def complete(self, rank, cat, name, t0, t1, thread=0, args=None) -> None:
        pass

    def instant(self, rank, cat, name, t, thread=0, args=None) -> None:
        pass

    def record_send(self, t, source, dest, tag, nbytes, inject_start,
                    inject_end, arrival, link_class=None, hops=0) -> int:
        return -1

    def on_recv_posted(self, rank, source, tag, t_post, event) -> None:
        pass

    def attach_engine(self, sim, interval: float = 0.0) -> None:
        pass

    @property
    def span_count(self) -> int:
        return 0

    @property
    def elapsed(self) -> float:
        return 0.0

    def ranks(self) -> list[int]:
        return []

    def spans_for(self, rank, thread=None) -> list:
        return []

    def by_category(self) -> dict:
        return {}

    def message_summary(self) -> str:
        return "trace: no messages"


#: Shared no-op tracer for callers that want a default object.
NULL_TRACER = NullTracer()

class _Ambient(threading.local):
    #: this thread's tracer installed by :func:`use_tracer` (None = off).
    tracer: Tracer | NullTracer | None = None


_current = _Ambient()


def current_tracer() -> Tracer | NullTracer | None:
    """This thread's ambient tracer, or ``None`` when tracing is off."""
    return _current.tracer


@contextmanager
def use_tracer(tracer: Tracer | NullTracer | None):
    """Install ``tracer`` as this thread's ambient tracer for the
    ``with`` body.

    Instrumented layers constructed inside the body (``MPIWorld``,
    ``run_parallel_for``, ``mlp_step_time``) record into it without
    any explicit argument threading.
    """
    previous = _current.tracer
    _current.tracer = tracer
    try:
        yield tracer
    finally:
        _current.tracer = previous
