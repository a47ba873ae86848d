"""The fault injector: applies a :class:`FaultSpec` to a simulation.

One injector is built per experiment cell (see
:func:`repro.run.runner.execute_scenario`), seeded from
``sha256(spec payload | salt | spec.seed)`` — the same ``(scenario,
fault spec, seed)`` always draws the same random stream, so injected
runs are bit-identical between sequential and parallel sweeps.

Hook points (all no-ops on a healthy machine, where the ambient
injector is ``None`` and none of this code runs):

* :func:`adjust_paths` — static path faults (link degradation, router
  failover, the released-MPT latency, the injector's
  :attr:`~FaultInjector.path_faults`), applied to each path array the
  network cost model's route table prices, which is keyed on those
  faults' content;
* :meth:`compute_seconds` — stragglers and OS jitter, applied per
  compute span in :meth:`repro.mpi.comm.MPIComm.compute`;
* :meth:`flap_factor` / :meth:`send_plan` — time-dependent link flaps
  and drop-with-retry, applied per message in the MPI send path;
* :meth:`boot_cpuset_penalty` / :meth:`mpt_anomaly` — the §4.6.2
  degraded modes consumed by the analytic timing models.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import CommunicationError
from repro.faults.spec import (
    BootCpuset,
    FaultSpec,
    LinkDegradation,
    LinkFlap,
    MessageDrop,
    MptAnomaly,
    OsJitter,
    RouterFailover,
    Straggler,
)

__all__ = ["FaultInjector", "adjust_paths", "build_injector"]

#: Random draws fetched per RNG refill.  Each randomness-consuming
#: fault owns an independent substream (see ``_derive_seed``'s tag),
#: so uniforms/exponentials can be prefetched in chunks — a NumPy
#: ``Generator`` produces bit-identical values whether drawn one at a
#: time or as an array, so chunking changes cost, not the stream.
_CHUNK = 256


def _derive_seed(spec: FaultSpec, salt: str, tag: str = "") -> int:
    blob = json.dumps(spec.payload(), sort_keys=True) + "|" + salt
    if tag:
        blob += "|" + tag
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big")


class _DropStream:
    """One :class:`MessageDrop`'s private uniform stream, chunked.

    The per-message lottery consumes one uniform in the (overwhelmingly
    common) no-drop case; buffering ``_CHUNK`` draws turns the per-send
    RNG call into a list subscript.  The MPI fast path inlines
    :meth:`next` — keep the field layout in sync with
    ``repro.mpi.comm._FaultedMPIComm.isend``.
    """

    __slots__ = ("probability", "timeout", "max_retries", "backoff",
                 "rng", "buf", "i")

    def __init__(self, fault: MessageDrop, seed: int) -> None:
        from repro.sim.rng import make_rng

        self.probability = fault.probability
        self.timeout = fault.timeout
        self.max_retries = fault.max_retries
        self.backoff = fault.backoff
        self.rng = make_rng(seed)
        self.buf: list[float] = []
        self.i = 0

    def next(self) -> float:
        i = self.i
        buf = self.buf
        if i >= len(buf):
            buf = self.buf = self.rng.random(_CHUNK).tolist()
            i = 0
        self.i = i + 1
        return buf[i]


class _JitterStream:
    """One :class:`OsJitter`'s private exponential stream, chunked."""

    __slots__ = ("amplitude", "rng", "buf", "i")

    def __init__(self, fault: OsJitter, seed: int) -> None:
        from repro.sim.rng import make_rng

        self.amplitude = fault.amplitude
        self.rng = make_rng(seed)
        self.buf: list[float] = []
        self.i = 0

    def next(self) -> float:
        i = self.i
        buf = self.buf
        if i >= len(buf):
            buf = self.buf = self.rng.exponential(self.amplitude, _CHUNK).tolist()
            i = 0
        self.i = i + 1
        return buf[i]


class FaultInjector:
    """Deterministic application of one :class:`FaultSpec`."""

    def __init__(self, spec: FaultSpec, salt: str = "") -> None:
        self.spec = spec
        self.salt = salt
        self._rng = None  # built lazily: most faults never draw
        #: the static path faults, in spec order: with the cluster, the
        #: whole input of :func:`adjust_paths` (which draws no random
        #: numbers), so equal tuples price every path the same.
        self.path_faults = tuple(
            f for f in spec.faults
            if isinstance(f, (LinkDegradation, RouterFailover, MptAnomaly))
        )
        self._flaps = tuple(f for f in spec.faults if isinstance(f, LinkFlap))
        self._stragglers = tuple(
            f for f in spec.faults if isinstance(f, Straggler)
        )
        self._jitters = tuple(f for f in spec.faults if isinstance(f, OsJitter))
        self._drops = tuple(
            f for f in spec.faults if isinstance(f, MessageDrop)
        )
        self._boot = next(
            (f for f in spec.faults if isinstance(f, BootCpuset)), None
        )
        self._mpt = next(
            (f for f in spec.faults if isinstance(f, MptAnomaly)), None
        )
        #: independent chunked substreams, one per randomness-consuming
        #: fault — seeded from the spec/salt plus a per-fault tag, so a
        #: drop lottery and a jitter draw never interleave on one
        #: stream (which is what lets both be prefetched in chunks).
        #: Zero-probability drops draw nothing and get no stream,
        #: mirroring the ``send_plan`` skip.
        self._drop_streams = tuple(
            _DropStream(f, _derive_seed(spec, salt, f"drop#{i}"))
            for i, f in enumerate(self._drops)
            if f.probability > 0.0
        )
        self._jitter_streams = tuple(
            _JitterStream(f, _derive_seed(spec, salt, f"jitter#{i}"))
            for i, f in enumerate(self._jitters)
        )
        #: link_class -> precomputed flap windows, filled on first use.
        self._flap_windows: dict = {}
        #: observability: totals a workload (or test) can read back.
        self.retries = 0
        self.dropped_messages = 0

    # -- classification --------------------------------------------------------

    @property
    def has_des_faults(self) -> bool:
        """Does this injector act on the DES per-message/compute path?"""
        return bool(
            self._flaps or self._stragglers or self._jitters or self._drops
        )

    def rng(self):
        if self._rng is None:
            from repro.sim.rng import make_rng

            self._rng = make_rng(_derive_seed(self.spec, self.salt))
        return self._rng

    # -- §4.6.2 degraded modes (analytic models) -------------------------------

    def boot_cpuset_penalty(self) -> float:
        """Compute multiplier for a placement that occupies the boot
        cpuset (the occupancy condition is the placement's to check)."""
        return self._boot.penalty if self._boot is not None else 1.0

    def mpt_anomaly(self) -> MptAnomaly | None:
        """The released-MPT anomaly spec, if injected."""
        return self._mpt

    # -- DES hooks -------------------------------------------------------------

    def straggler_factor(self, world, rank: int) -> float:
        """Combined straggler stretch for one rank (1.0 = untouched).

        Rank- and node-targeted stragglers are static for a given
        placement, so the per-rank comm handle computes this product
        once at construction instead of per compute span.
        """
        factor = 1.0
        for fault in self._stragglers:
            if fault.rank is not None:
                if fault.rank == rank:
                    factor *= fault.factor
            else:
                placement = world.network.placement
                node = placement.cluster.node_of(placement.cpu_of(rank))
                if node == fault.node:
                    factor *= fault.factor
        return factor

    def compute_seconds(self, world, rank: int, seconds: float) -> float:
        """Stretch one compute span by straggler factors and jitter."""
        for fault in self._stragglers:
            if fault.rank is not None:
                if fault.rank == rank:
                    seconds *= fault.factor
            else:
                placement = world.network.placement
                node = placement.cluster.node_of(placement.cpu_of(rank))
                if node == fault.node:
                    seconds *= fault.factor
        if self._jitter_streams and seconds > 0:
            for stream in self._jitter_streams:
                seconds *= 1.0 + stream.next()
        return seconds

    def flap_windows(self, link_class: str) -> tuple:
        """Precomputed ``(period, phase, down_time, latency_factor)``
        rows of every flap matching ``link_class``.

        The link-class filter runs once per (comm, dest); the
        per-message check is then a float modulo against the window —
        the flap duty cycle is periodic, so the closed form replaces
        any per-message window search.
        """
        windows = self._flap_windows.get(link_class)
        if windows is None:
            windows = self._flap_windows[link_class] = tuple(
                (f.period, f.phase, f.down_time, f.latency_factor)
                for f in self._flaps
                if f.link_class in ("any", link_class)
            )
        return windows

    def flap_factor(self, link_class: str, now: float) -> float:
        """Latency multiplier from flaps currently in a down window."""
        factor = 1.0
        for period, phase, down_time, latency_factor in self.flap_windows(
            link_class
        ):
            if (now - phase) % period < down_time:
                factor *= latency_factor
        return factor

    def send_plan(self, nbytes: float) -> tuple[float, ...]:
        """Per-failed-attempt wait times for one message (empty: no drop).

        Draws the per-attempt drop lottery; each failed attempt waits
        ``timeout * backoff**attempt`` before the retransmission.  A
        message that exhausts ``max_retries`` raises
        :class:`~repro.errors.CommunicationError` (the cell fails, and
        the runner reports it).
        """
        delays: list[float] = []
        for stream in self._drop_streams:
            probability = stream.probability
            fails = 0
            while stream.next() < probability:
                if fails >= stream.max_retries:
                    self.dropped_messages += 1
                    raise CommunicationError(
                        f"message of {nbytes:.0f} bytes dropped after "
                        f"{stream.max_retries} retries (MessageDrop "
                        f"p={probability})"
                    )
                delays.append(stream.timeout * stream.backoff ** fails)
                fails += 1
        self.retries += len(delays)
        return tuple(delays)


def adjust_paths(
    faults: tuple, cluster, node_a, local_a, node_b, local_b,
    latency, bandwidth,
) -> None:
    """Apply static path faults to ``latency``/``bandwidth`` arrays
    in place.

    Element ``k`` is the path between CPU ``(node_a[k], local_a[k])``
    and ``(node_b[k], local_b[k])`` of ``cluster`` (the form
    :meth:`~repro.machine.cluster.Cluster.locate` returns).
    ``faults`` is a :attr:`FaultInjector.path_faults` tuple, applied
    in order with the same float operations per element as a scalar
    loop would.  Called by the pricing kernel of a route table keyed
    on ``faults``, once per priced array, so the classification cost
    here is off the per-message path.
    """
    import numpy as np

    inter = node_a != node_b
    # Zero router hops exactly when both CPUs share a C-Brick.
    per_brick = np.array([node.brick.cpus for node in cluster.nodes])
    same_brick = ~inter & (
        local_a // per_brick[node_a] == local_b // per_brick[node_b]
    )
    links = {
        "any": np.ones_like(inter),
        "inter_node": inter,
        "intra_brick": same_brick,
        "intra_node": ~inter & ~same_brick,
    }
    for fault in faults:
        if isinstance(fault, LinkDegradation):
            sel = links[fault.link_class]
            latency[sel] = latency[sel] * fault.latency_factor + fault.extra_latency
            bandwidth[sel] = bandwidth[sel] * fault.bandwidth_factor
        elif isinstance(fault, RouterFailover):
            # The detour takes extra hops through this node's router
            # fabric, priced with its per-hop parameters.
            sel = ((node_a == fault.node) | (node_b == fault.node)) & (
                inter | links["intra_node"]
            )
            ic = cluster.nodes[fault.node % len(cluster.nodes)].interconnect
            latency[sel] += fault.extra_hops * ic.per_hop_latency
            bandwidth[sel] /= 1.0 + fault.extra_hops * ic.per_hop_bw_derate
        else:  # MptAnomaly
            if cluster.fabric == "infiniband":
                from repro.machine.infiniband import MPTVersion

                if cluster.mpt is MPTVersion.MPT_1_11R:
                    latency[inter] += fault.extra_latency


def build_injector(spec: FaultSpec, salt: str = "") -> FaultInjector:
    """Convenience constructor (mirrors the context-manager path)."""
    return FaultInjector(spec, salt=salt)
