"""The simulated MPI communicator.

Timing model per message (LogGP-flavored):

* the sender is occupied for the injection time ``size / bandwidth``
  (its ``send`` completes then — eager protocol);
* the message lands in the receiver's mailbox at
  ``latency + size / bandwidth`` after the send started;
* a ``recv`` posted before arrival blocks until arrival; a ``recv``
  posted after arrival returns at the posting time (plus a small
  matching overhead folded into latency already).

Path latency/bandwidth come from :class:`~repro.netmodel.costs.NetworkModel`,
i.e. from the machine model and the placement.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Generator, NamedTuple

from repro.errors import CommunicationError
from repro.faults.context import current_injector
from repro.faults.injector import _CHUNK
from repro.netmodel.costs import NetworkModel
from repro.obs.spans import current_tracer
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.process import SimEvent, Timeout

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "Message", "MPIWorld", "MPIComm", "check_os_noise",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: ``tuple.__new__`` bound once: building a NamedTuple through its
#: generated ``__new__`` costs an extra Python frame per message.
_msg_new = tuple.__new__
#: pre-bound allocator for the per-message completion event — skips
#: the ``Timeout.__new__`` attribute lookup on every isend.
_timeout_new = Timeout.__new__


def check_os_noise(os_noise: float) -> None:
    """Reject an OS-noise amplitude no world can run: negative, NaN or
    infinite, with :class:`~repro.errors.CommunicationError`."""
    if not 0.0 <= os_noise < math.inf:
        raise CommunicationError(
            f"os_noise must be finite and >= 0, got {os_noise}")


class Message(NamedTuple):
    """An in-flight or delivered simulated MPI message.

    A named tuple rather than a dataclass: one is allocated per
    simulated message, and tuple construction is several times
    cheaper than a frozen dataclass ``__init__``.
    """

    source: int
    dest: int
    tag: int
    nbytes: float
    payload: Any = None


class MPIWorld:
    """Shared state of one simulated MPI job (all ranks).

    ``brick_contention=True`` switches injection serialization from
    per-rank to per-C-Brick: all CPUs of a brick share the brick's
    NUMAlink link, so their concurrent sends queue behind each other —
    the more physical (and more pessimistic) model, used to study
    dense patterns.
    """

    def __init__(
        self,
        sim: Simulator,
        network: NetworkModel,
        brick_contention: bool = False,
        os_noise: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.size = network.placement.n_ranks
        #: rank -> mailbox, created by :meth:`mailbox` when a rank first
        #: receives or is first sent to, so setup scales with the ranks
        #: that communicate rather than with the placement size.
        self.mailboxes: dict[int, Channel] = {}
        self.brick_contention = brick_contention
        #: OS-noise amplitude: each compute segment is stretched by an
        #: exponentially distributed factor with this mean (0 = quiet
        #: machine).  Models the system-software interference behind
        #: the §4.6.2 boot-cpuset observation: at scale, collectives
        #: wait for whichever rank the OS delayed this time.
        check_os_noise(os_noise)
        self.os_noise = os_noise
        self._noise_rng = None
        if os_noise > 0:
            from repro.sim.rng import make_rng

            self._noise_rng = make_rng(noise_seed)
        #: injection serialization slots: one per rank, or one per
        #: (node, brick) when brick contention is on.  A slot is added
        #: when the first handle using it is built (:meth:`comm`), so
        #: the per-message lookup is still a plain subscript.
        self.inject_busy_until: dict = {}
        #: per-rank handles built by :meth:`comm`; the message
        #: counters live on them (slot ints beat instance-dict
        #: read-modify-writes on the per-send path) and are summed on
        #: demand by the ``messages_sent``/``bytes_sent`` properties.
        self._comms: list[MPIComm] = []
        #: optional :class:`repro.obs.spans.Tracer` recording spans,
        #: message edges and counters.  Defaults to the ambient tracer
        #: (:func:`repro.obs.spans.use_tracer`), so per-cell trace
        #: capture needs no signature changes anywhere; ``None`` keeps
        #: every per-message check a plain load + branch.  A disabled
        #: tracer (NullTracer) normalizes to ``None`` so "off" is off.
        obs = current_tracer()
        self._obs = obs if (obs is not None and obs.enabled) else None
        #: optional :class:`repro.faults.FaultInjector` acting on the
        #: DES per-message/compute path (drops, flaps, stragglers,
        #: jitter).  Same normalization discipline as the tracer: an
        #: injector with no DES-relevant faults becomes ``None``, so
        #: the healthy hot path pays one load + branch.  Static path
        #: faults don't need this hook — they arrive pre-applied in
        #: the NetworkModel's route table.
        faults = current_injector()
        self._faults = (
            faults
            if faults is not None and faults.has_des_faults
            else None
        )

    def link_info(self, rank_a: int, rank_b: int) -> tuple[str, int]:
        """``(link_class, router_hops)`` between two ranks' home CPUs.

        Classes: ``self`` (same rank), ``intra_brick``, ``intra_node``
        (crossing NUMAlink routers inside a node), ``inter_node``.
        InfiniBand crossings report 0 hops — the switch is not a
        NUMAlink router.
        """
        if rank_a == rank_b:
            return ("self", 0)
        placement = self.network.placement
        cluster = placement.cluster
        cpu_a = placement.cpu_of(rank_a)
        cpu_b = placement.cpu_of(rank_b)
        na = cluster.node_of(cpu_a)
        nb = cluster.node_of(cpu_b)
        if na != nb:
            if cluster.fabric == "numalink4":
                from repro.machine.router import tree_depth

                hops = tree_depth(cluster.nodes[na].n_bricks) + tree_depth(
                    cluster.nodes[nb].n_bricks
                )
            else:
                hops = 0
            return ("inter_node", hops)
        node = cluster.nodes[na]
        hops = node.hops(cluster.local_cpu(cpu_a), cluster.local_cpu(cpu_b))
        return ("intra_brick" if hops == 0 else "intra_node", hops)

    def mailbox(self, rank: int) -> Channel:
        """``rank``'s mailbox, created on first use."""
        box = self.mailboxes.get(rank)
        if box is None:
            box = self.mailboxes[rank] = Channel(self.sim)
        return box

    def _injection_key(self, rank: int):
        if not self.brick_contention:
            return rank
        placement = self.network.placement
        cluster = placement.cluster
        cpu = placement.cpu_of(rank)
        node_idx = cluster.node_of(cpu)
        node = cluster.nodes[node_idx]
        return ("brick", node_idx, node.brick_of(cluster.local_cpu(cpu)))

    @property
    def messages_sent(self) -> int:
        """Total messages sent (for tests and IB connection accounting)."""
        return sum(c._msgs for c in self._comms)

    @property
    def bytes_sent(self) -> float:
        """Total bytes sent across all ranks."""
        return sum(c._nbytes for c in self._comms)

    def comm(self, rank: int) -> "MPIComm":
        """Build the per-rank handle, picking the implementation once.

        The injector consult happens *here*, not per event: a world
        with DES faults hands out :class:`_FaultedMPIComm` (whose
        ``isend``/``compute`` carry the fault machinery), a healthy
        world hands out plain :class:`MPIComm` — so the healthy hot
        path contains no fault branches at all.
        """
        if self._faults is not None:
            return _FaultedMPIComm(self, rank)
        return MPIComm(self, rank)


class MPIComm:
    """Per-rank MPI handle passed to simulated rank programs."""

    __slots__ = ("world", "rank", "_sim", "_mailbox", "_inject_key", "_busy",
                 "_obs", "_msgs", "_nbytes", "_paths", "_links")

    def __init__(self, world: MPIWorld, rank: int) -> None:
        if not 0 <= rank < world.size:
            raise CommunicationError(f"rank {rank} outside world of {world.size}")
        self.world = world
        self.rank = rank
        # Hot-path caches: one isend/irecv runs per simulated message,
        # so indirection through world/network is hoisted here.
        self._sim = world.sim
        self._mailbox = world.mailbox(rank)
        self._inject_key = key = world._injection_key(rank)
        self._busy = world.inject_busy_until
        self._busy.setdefault(key, 0.0)
        #: the world's tracer is normalized once at construction and
        #: never reassigned, so the per-send check can read a slot.
        self._obs = world._obs
        self._msgs = 0
        self._nbytes = 0.0
        world._comms.append(self)
        #: dest -> (latency, bandwidth, mailbox put) of this rank's
        #: outgoing paths; the bound put avoids re-creating a method
        #: object per delivered message.
        self._paths: dict[int, tuple] = {}
        #: dest -> (link_class, hops), filled only while tracing.
        self._links: dict[int, tuple] = {}

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    @property
    def now(self) -> float:
        """Current simulated time (for rank-side timing)."""
        return self.world.sim.now

    @property
    def inject_free_at(self) -> float:
        """When this rank's injection slot (its brick's, under brick
        contention) is next free.

        Settable, so a rank can resume from a recorded state: b_eff
        runs its barrier once and starts every ring world from each
        rank's snapshot of this value and its barrier exit time.
        """
        return self._busy[self._inject_key]

    @inject_free_at.setter
    def inject_free_at(self, when: float) -> None:
        self._busy[self._inject_key] = when

    # -- local work ---------------------------------------------------------

    def compute(self, seconds: float) -> Timeout:
        """Occupy this rank with local computation for ``seconds``.

        On a noisy world, the segment stretches by a random factor
        ``1 + Exp(os_noise)`` — system-software interference.
        """
        world = self.world
        if world._noise_rng is not None and seconds > 0:
            seconds *= 1.0 + world._noise_rng.exponential(world.os_noise)
        obs = self._obs
        if obs is not None:
            now = self._sim.now
            obs.complete(self.rank, "compute", "compute", now, now + seconds)
        return Timeout(self.sim, seconds)

    # -- point to point ------------------------------------------------------

    def isend(
        self, dest: int, nbytes: float, tag: int = 0, payload: Any = None
    ) -> SimEvent:
        """Start a send; the event triggers when injection completes.

        The message arrives in ``dest``'s mailbox after the full path
        time.  Non-blocking in the MPI sense: the caller may yield the
        returned event later (or not at all, for fire-and-forget).

        This is the *healthy* implementation — no fault checks at all;
        a world with DES faults hands out :class:`_FaultedMPIComm`
        instead (see :meth:`MPIWorld.comm`).
        """
        world = self.world
        path = self._paths.get(dest)
        if path is None:
            if not 0 <= dest < world.size:
                raise CommunicationError(f"bad destination rank {dest}")
            spec = world.network.path(self.rank, dest)
            path = (spec.latency, spec.bandwidth, world.mailbox(dest).put)
            self._paths[dest] = path
            obs = self._obs
            if obs is not None:
                now = self._sim.now
                obs.instant(self.rank, "cache_lookup", f"path_miss->{dest}",
                            now, args={"dest": dest})
                obs.counters.add("mpi.path_cache_miss", 1, now)
        if nbytes < 0:
            raise CommunicationError(f"negative message size {nbytes}")
        latency, bandwidth, mailbox_put = path
        # Serialize injection: outgoing messages share this rank's (or
        # this brick's, under brick contention) link into the fabric —
        # the two directions of a ring exchange cannot each run at
        # full path bandwidth.
        sim = self._sim
        now = sim.now
        busy = self._busy
        key = self._inject_key
        start = busy[key]
        if start < now:
            start = now
        finish = start + nbytes / bandwidth
        busy[key] = finish
        inject = finish - now
        self._msgs += 1
        self._nbytes += nbytes
        obs = self._obs
        if obs is not None:
            # Link classification is only priced when tracing is on —
            # tree-depth/topology math has no place on the untraced
            # per-message path.
            link = self._links.get(dest)
            if link is None:
                link = self._links[dest] = world.link_info(self.rank, dest)
            obs.record_send(now, self.rank, dest, tag, nbytes,
                            start, finish, finish + latency,
                            link[0], link[1])
        # Injection-completion event, built without re-entering
        # Timeout.__init__ (one per message).
        done = _timeout_new(Timeout)
        done.sim = sim
        done.triggered = False
        done.value = None
        done._callbacks = None
        # Schedule the mailbox delivery (arg-carrying, no closure) and
        # the completion directly into the engine's timestamp buckets:
        # two timed inserts per simulated message make even the
        # schedule_call frames measurable.  Mirrors
        # Simulator.schedule_call exactly (delays here are >= 0, and
        # latency > 0 keeps the delivery off the zero-delay lane).  In
        # the common rendezvous pattern many messages share a delivery
        # timestamp, so the bucket usually exists and the insert is a
        # dict hit plus a flat append — no heap push at all.
        buckets = sim._buckets
        seq = sim._seq + 1
        when = now + inject + latency
        bucket = buckets.get(when)
        if bucket is None:
            bpool = sim._bpool
            bucket = bpool.pop() if bpool else []
            buckets[when] = bucket
            heappush(sim._theap, when)
            if when < sim._next_timed:
                sim._next_timed = when
        bucket += (seq, mailbox_put,
                   _msg_new(Message, (self.rank, dest, tag, nbytes, payload)))
        seq += 1
        if inject == 0.0:
            sim._fifo.append((seq, done._fire, None))
        else:
            when = now + inject
            bucket = buckets.get(when)
            if bucket is None:
                bpool = sim._bpool
                bucket = bpool.pop() if bpool else []
                buckets[when] = bucket
                heappush(sim._theap, when)
                if when < sim._next_timed:
                    sim._next_timed = when
            bucket += (seq, done._fire, None)
        sim._seq = seq
        return done

    def send(
        self, dest: int, nbytes: float, tag: int = 0, payload: Any = None
    ) -> Generator[SimEvent, Any, None]:
        """Blocking send (generator — use ``yield from``)."""
        yield self.isend(dest, nbytes, tag, payload)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> SimEvent:
        """Post a receive; the event triggers with the :class:`Message`."""
        event = self._mailbox.get_matching(source, tag)
        obs = self._obs
        if obs is not None:
            obs.on_recv_posted(self.rank, source, tag, self._sim.now, event)
        return event

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[SimEvent, Any, Message]:
        """Blocking receive (generator — use ``yield from``).

        Returns the received :class:`Message`.
        """
        msg = yield self.irecv(source, tag)
        return msg

    def sendrecv(
        self,
        dest: int,
        nbytes: float,
        source: int = ANY_SOURCE,
        tag: int = 0,
        payload: Any = None,
    ) -> Generator[SimEvent, Any, Message]:
        """Simultaneous send+receive (the ring-benchmark primitive)."""
        self.isend(dest, nbytes, tag, payload)
        msg = yield self.irecv(source, tag)
        return msg


class _FaultedMPIComm(MPIComm):
    """Per-rank handle on a world with active DES faults.

    :meth:`MPIWorld.comm` selects this class once at setup, so the
    per-event "is an injector active?" consult is gone from the inner
    loop; everything rank- or path-static about the faults is hoisted
    to construction (straggler product) or to the per-dest path cache
    (flap windows for the link class), leaving per message only:

    * the flap duty-cycle check — a float modulo against precomputed
      ``(period, phase, down_time, factor)`` windows;
    * the drop lottery — one buffered uniform per message from the
      drop's private chunked substream (list subscript, no RNG call),
      with the retry/backoff slow path taken only on an actual drop;
      the waits delay both the sender's completion and the delivery,
      and are surfaced as ``retry`` spans plus an ``mpi.retries``
      counter when tracing is on.  A message that exhausts its
      retries raises :class:`~repro.errors.CommunicationError`.
    """

    __slots__ = ("_faults", "_straggler", "_jitter_streams", "_drop_streams")

    def __init__(self, world: MPIWorld, rank: int) -> None:
        super().__init__(world, rank)
        faults = world._faults
        self._faults = faults
        #: static straggler product for this rank (1.0 = untouched).
        self._straggler = faults.straggler_factor(world, rank)
        self._jitter_streams = faults._jitter_streams
        self._drop_streams = faults._drop_streams

    def compute(self, seconds: float) -> Timeout:
        world = self.world
        if world._noise_rng is not None and seconds > 0:
            seconds *= 1.0 + world._noise_rng.exponential(world.os_noise)
        straggler = self._straggler
        if straggler != 1.0:
            seconds *= straggler
        if self._jitter_streams and seconds > 0:
            for stream in self._jitter_streams:
                seconds *= 1.0 + stream.next()
        obs = self._obs
        if obs is not None:
            now = self._sim.now
            obs.complete(self.rank, "compute", "compute", now, now + seconds)
        return Timeout(self.sim, seconds)

    def isend(
        self, dest: int, nbytes: float, tag: int = 0, payload: Any = None
    ) -> SimEvent:
        world = self.world
        path = self._paths.get(dest)
        if path is None:
            if not 0 <= dest < world.size:
                raise CommunicationError(f"bad destination rank {dest}")
            spec = world.network.path(self.rank, dest)
            link = self._links.get(dest)
            if link is None:
                link = self._links[dest] = world.link_info(self.rank, dest)
            # Flap windows matching this dest's link class, resolved
            # once per (comm, dest) instead of per message.
            path = (spec.latency, spec.bandwidth, world.mailbox(dest).put,
                    self._faults.flap_windows(link[0]))
            self._paths[dest] = path
            obs = self._obs
            if obs is not None:
                now = self._sim.now
                obs.instant(self.rank, "cache_lookup", f"path_miss->{dest}",
                            now, args={"dest": dest})
                obs.counters.add("mpi.path_cache_miss", 1, now)
        if nbytes < 0:
            raise CommunicationError(f"negative message size {nbytes}")
        latency, bandwidth, mailbox_put, flap_windows = path
        sim = self._sim
        now = sim.now
        for period, phase, down_time, factor in flap_windows:
            if (now - phase) % period < down_time:
                latency *= factor
        # The drop lottery runs before injection starts: every failed
        # attempt waits out its timeout, so the payload's injection
        # slot (and hence its delivery) is pushed back by the total.
        # The no-drop case — one buffered uniform per stream — is
        # inlined (_DropStream.next, keep in sync); an actual drop
        # falls back to the stream's method calls.
        obs = self._obs
        retry_wait = 0.0
        n_retries = 0
        faults = self._faults
        for stream in self._drop_streams:
            probability = stream.probability
            i = stream.i
            buf = stream.buf
            if i >= len(buf):
                buf = stream.buf = stream.rng.random(_CHUNK).tolist()
                i = 0
            stream.i = i + 1
            if buf[i] < probability:
                fails = 0
                while True:
                    if fails >= stream.max_retries:
                        faults.dropped_messages += 1
                        raise CommunicationError(
                            f"message of {nbytes:.0f} bytes dropped after "
                            f"{stream.max_retries} retries (MessageDrop "
                            f"p={probability})"
                        )
                    wait = stream.timeout * stream.backoff ** fails
                    if obs is not None:
                        t = now + retry_wait
                        obs.complete(self.rank, "retry", f"retry->{dest}",
                                     t, t + wait)
                    retry_wait += wait
                    n_retries += 1
                    fails += 1
                    if stream.next() >= probability:
                        break
        if n_retries:
            faults.retries += n_retries
            if obs is not None:
                obs.counters.add("mpi.retries", n_retries, now)
        busy = self._busy
        key = self._inject_key
        start = busy[key]
        if start < now:
            start = now
        start += retry_wait
        finish = start + nbytes / bandwidth
        busy[key] = finish
        inject = finish - now
        self._msgs += 1
        self._nbytes += nbytes
        if obs is not None:
            link = self._links.get(dest)
            if link is None:
                link = self._links[dest] = world.link_info(self.rank, dest)
            obs.record_send(now, self.rank, dest, tag, nbytes,
                            start, finish, finish + latency,
                            link[0], link[1])
        # Same inlined bucket scheduling as the healthy isend.
        done = _timeout_new(Timeout)
        done.sim = sim
        done.triggered = False
        done.value = None
        done._callbacks = None
        buckets = sim._buckets
        seq = sim._seq + 1
        when = now + inject + latency
        bucket = buckets.get(when)
        if bucket is None:
            bpool = sim._bpool
            bucket = bpool.pop() if bpool else []
            buckets[when] = bucket
            heappush(sim._theap, when)
            if when < sim._next_timed:
                sim._next_timed = when
        bucket += (seq, mailbox_put,
                   _msg_new(Message, (self.rank, dest, tag, nbytes, payload)))
        seq += 1
        if inject == 0.0:
            sim._fifo.append((seq, done._fire, None))
        else:
            when = now + inject
            bucket = buckets.get(when)
            if bucket is None:
                bpool = sim._bpool
                bucket = bpool.pop() if bpool else []
                buckets[when] = bucket
                heappush(sim._theap, when)
                if when < sim._next_timed:
                    sim._next_timed = when
            bucket += (seq, done._fire, None)
        sim._seq = seq
        return done
