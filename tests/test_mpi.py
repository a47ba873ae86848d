"""Tests for the simulated MPI layer."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CommunicationError, DeadlockError
from repro.faults import parse_faults, use_faults
from repro.machine.cluster import multinode, single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.mpi import ANY_SOURCE, run_mpi
from repro.mpi.collectives import (
    allgather,
    allreduce,
    allreduce_times,
    alltoall,
    barrier,
    broadcast,
)
from repro.mpi.job import compute_ready_times
from repro.netmodel.costs import NetworkModel
from repro.obs.spans import Tracer, use_tracer


def placement(n_ranks, n_cpus=256, **kw):
    return Placement(single_node(NodeType.BX2B, n_cpus), n_ranks=n_ranks, **kw)


class TestPointToPoint:
    def test_send_recv_payload(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 100, tag=7, payload={"x": 1})
            else:
                msg = yield from comm.recv(0, tag=7)
                assert msg.payload == {"x": 1}
                assert msg.nbytes == 100
            return None

        run_mpi(placement(2), prog)

    def test_pingpong_time_is_two_one_way_latencies(self):
        def prog(comm):
            if comm.rank == 0:
                t0 = comm.now
                yield from comm.send(1, 0)
                yield from comm.recv(1)
                return comm.now - t0
            yield from comm.recv(0)
            yield from comm.send(0, 0)
            return None

        pl = placement(2)
        rtt = run_mpi(pl, prog).values[0]
        from repro.netmodel.costs import NetworkModel

        lat = NetworkModel(pl).path(0, 1).latency
        assert rtt == pytest.approx(2 * lat, rel=1e-6)

    def test_large_message_dominated_by_bandwidth(self):
        size = 64 * 1024 * 1024

        def prog(comm):
            if comm.rank == 0:
                t0 = comm.now
                yield from comm.send(1, size)
                yield from comm.recv(1)
                return comm.now - t0
            yield from comm.recv(0)
            yield from comm.send(0, size)
            return None

        pl = placement(2)
        rtt = run_mpi(pl, prog).values[0]
        from repro.netmodel.costs import NetworkModel

        path = NetworkModel(pl).path(0, 1)
        expected = 2 * (path.latency + size / path.bandwidth)
        assert rtt == pytest.approx(expected, rel=1e-6)

    def test_tag_matching(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 10, tag=1, payload="first")
                yield from comm.send(1, 10, tag=2, payload="second")
            else:
                msg2 = yield from comm.recv(0, tag=2)
                msg1 = yield from comm.recv(0, tag=1)
                return (msg1.payload, msg2.payload)
            return None

        result = run_mpi(placement(2), prog)
        assert result.values[1] == ("first", "second")

    def test_any_source(self):
        def prog(comm):
            if comm.rank == 2:
                got = set()
                for _ in range(2):
                    msg = yield from comm.recv(ANY_SOURCE)
                    got.add(msg.source)
                return got
            yield from comm.send(2, 8)
            return None

        result = run_mpi(placement(3), prog)
        assert result.values[2] == {0, 1}

    def test_unmatched_recv_deadlocks(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.recv(1)  # never sent
            return None

        with pytest.raises(DeadlockError):
            run_mpi(placement(2), prog)

    def test_bad_destination_rejected(self):
        def prog(comm):
            yield from comm.send(99, 10)

        with pytest.raises(CommunicationError):
            run_mpi(placement(2), prog)

    def test_message_accounting(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 1000)
            else:
                yield from comm.recv(0)
            return None

        result = run_mpi(placement(2), prog)
        assert result.messages_sent == 1
        assert result.bytes_sent == 1000

    def test_compute_occupies_rank(self):
        def prog(comm):
            yield comm.compute(1.0)
            return comm.now

        result = run_mpi(placement(4), prog)
        assert all(v == pytest.approx(1.0) for v in result.values)
        assert result.elapsed == pytest.approx(1.0)


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 16, 23])
    def test_allreduce_sums_everywhere(self, p):
        def prog(comm):
            v = yield from allreduce(comm, 8, value=float(comm.rank + 1))
            return v

        result = run_mpi(placement(p), prog)
        expected = sum(range(1, p + 1))
        assert all(v == pytest.approx(expected) for v in result.values)

    @pytest.mark.parametrize("p", [1, 2, 5, 8, 16])
    @pytest.mark.parametrize("root", [0, 1])
    def test_broadcast_reaches_all(self, p, root):
        if root >= p:
            pytest.skip("root outside world")

        def prog(comm):
            v = yield from broadcast(comm, 64, root=root, payload="data" if comm.rank == root else None)
            return v

        result = run_mpi(placement(p), prog)
        assert all(v == "data" for v in result.values)

    @pytest.mark.parametrize("p", [1, 2, 6, 16])
    def test_allgather_collects_in_order(self, p):
        def prog(comm):
            g = yield from allgather(comm, 8, value=comm.rank * 10)
            return g

        result = run_mpi(placement(p), prog)
        expected = [r * 10 for r in range(p)]
        assert all(v == expected for v in result.values)

    @pytest.mark.parametrize("p", [2, 4, 9])
    def test_barrier_synchronizes(self, p):
        def prog(comm):
            # Stagger arrival; everyone must leave after the latest arriver.
            yield comm.compute(0.01 * comm.rank)
            yield from barrier(comm)
            return comm.now

        result = run_mpi(placement(p), prog)
        latest_arrival = 0.01 * (p - 1)
        assert all(v >= latest_arrival for v in result.values)

    def test_alltoall_message_count(self):
        p = 8

        def prog(comm):
            yield from alltoall(comm, 100)
            return None

        result = run_mpi(placement(p), prog)
        assert result.messages_sent == p * (p - 1)

    def test_alltoall_slower_on_infiniband(self):
        """Fig. 10/11 mechanism: dense patterns suffer on IB."""

        def prog(comm):
            yield from alltoall(comm, 64 * 1024)
            return None

        nl = Placement(multinode(2, fabric="numalink4", n_cpus=32), n_ranks=64)
        ib = Placement(multinode(2, fabric="infiniband", n_cpus=32), n_ranks=64)
        t_nl = run_mpi(nl, prog).elapsed
        t_ib = run_mpi(ib, prog).elapsed
        assert t_ib > 1.5 * t_nl


class TestDeterminism:
    @settings(deadline=None, max_examples=10)
    @given(p=st.integers(2, 12))
    def test_repeated_runs_identical(self, p):
        def prog(comm):
            yield comm.compute(1e-6 * comm.rank)
            v = yield from allreduce(comm, 8, value=float(comm.rank))
            yield from alltoall(comm, 128)
            return v

        r1 = run_mpi(placement(p), prog)
        r2 = run_mpi(placement(p), prog)
        assert r1.elapsed == r2.elapsed
        assert r1.values == r2.values
        assert r1.messages_sent == r2.messages_sent


class TestActiveRanks:
    @staticmethod
    def _pingpong(a, b, nbytes, worlds=None):
        def prog(comm):
            if worlds is not None:
                worlds.append(comm.world)
            if comm.rank == a:
                t0 = comm.now
                yield from comm.send(b, nbytes)
                yield from comm.recv(b)
                return comm.now - t0
            if comm.rank == b:
                yield from comm.recv(a)
                yield from comm.send(a, nbytes)
                return comm.now
            return None

        return prog

    @pytest.mark.parametrize("pair", [(0, 1), (3, 40), (63, 17)])
    def test_pair_run_matches_all_ranks_run(self, pair):
        """Idle ranks report None at 0.0, as a program that returns at
        once does, so the whole result equals the all-ranks run."""
        pl = placement(64)
        prog = self._pingpong(*pair, 2_000_000)
        full = run_mpi(pl, prog)
        pair_only = run_mpi(pl, prog, ranks=pair)
        assert pair_only == full
        assert pair_only.values[pair[0]] > 0
        assert pair_only.messages_sent == 2

    def test_two_talking_ranks_create_two_mailboxes(self):
        worlds = []
        run_mpi(placement(256), self._pingpong(7, 200, 8, worlds),
                ranks=(7, 200))
        world = worlds[0]
        assert sorted(world.mailboxes) == [7, 200]
        assert sorted(world.inject_busy_until) == [7, 200]

    def test_idle_destination_gets_a_mailbox_on_first_send(self):
        worlds = []

        def prog(comm):
            worlds.append(comm.world)
            comm.isend(9, 8)  # nobody receives: buffered, no deadlock
            yield comm.compute(1e-6)

        run_mpi(placement(16), prog, ranks=(3,))
        assert sorted(worlds[0].mailboxes) == [3, 9]
        assert worlds[0].mailboxes[9].buffered == 1

    @pytest.mark.parametrize("ranks", [(0, 8), (-1, 2), (1, 1), (2, 3, 2)])
    def test_bad_ranks_rejected(self, ranks):
        with pytest.raises(CommunicationError):
            run_mpi(placement(8), self._pingpong(0, 1, 8), ranks=ranks)


def _fabric_placement(kind, p):
    if kind == "single":
        return placement(p)
    cluster = multinode(2, fabric=kind, n_cpus=256)
    return Placement(cluster, n_ranks=p, spread_nodes=True)


#: static path faults: priced into the route table, the world stays healthy.
_DEGRADE = ("degrade:link_class=intra_node,latency_factor=2,bandwidth_factor=0.5;"
            "degrade:link_class=inter_node,latency_factor=3,bandwidth_factor=0.25")


def _compute_allreduce(work, nbytes):
    def prog(comm):
        yield comm.compute(work)
        yield from allreduce(comm, nbytes, 1.0)
        return None

    return prog


class TestAllreduceRecurrence:
    """ext_noise's step runs no DES world on a healthy machine: the
    noise draws and the allreduce recurrence must be bit-for-bit the
    compute+allreduce world, rank by rank."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["single", "numalink4", "infiniband"]),
        p=st.integers(1, 96),
        noise=st.sampled_from([0.0, 0.25, 1.0]),
        seed=st.integers(0, 2**16),
        work=st.sampled_from([0.0, 1e-9, 1e-3]),
        nbytes=st.sampled_from([8, 65_536, 2_000_000]),
        faults=st.sampled_from([None, _DEGRADE]),
    )
    @example(kind="single", p=1, noise=0.25, seed=0, work=1e-3, nbytes=8,
             faults=None)
    @example(kind="numalink4", p=96, noise=1.0, seed=3, work=1e-3, nbytes=8,
             faults=_DEGRADE)
    @example(kind="infiniband", p=37, noise=0.0, seed=0, work=0.0,
             nbytes=65_536, faults=None)
    # A second send queued on a busy slot lands at ``now + (finish -
    # now) + latency``, which here differs from ``finish + latency``.
    @example(kind="single", p=3, noise=0.25, seed=0, work=1e-9,
             nbytes=2_000_000, faults=None)
    @example(kind="single", p=9, noise=0.0, seed=0, work=0.0, nbytes=65_536,
             faults=None)
    def test_equals_compute_allreduce_world(self, kind, p, noise, seed, work,
                                            nbytes, faults):
        pl = _fabric_placement(kind, p)
        with use_faults(parse_faults(faults) if faults else None):
            want = run_mpi(pl, _compute_allreduce(work, nbytes),
                           os_noise=noise, noise_seed=seed).finish_times
            ready = compute_ready_times(p, work, noise, seed)
            got = allreduce_times(NetworkModel(pl), ready, nbytes)
        assert tuple(got.tolist()) == want

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -0.5])
    def test_bad_noise_rejected_by_both_paths(self, noise):
        with pytest.raises(CommunicationError, match="os_noise"):
            run_mpi(placement(4), _compute_allreduce(1e-3, 8), os_noise=noise)
        with pytest.raises(CommunicationError, match="os_noise"):
            compute_ready_times(4, 1e-3, noise)

    def test_ext_noise_step_rejects_bad_noise(self):
        from repro.core.experiments.ext_noise import _step_time

        for noise in (math.nan, math.inf):
            with pytest.raises(CommunicationError, match="os_noise"):
                _step_time(8, noise, 0)


class TestExtNoiseStep:
    def test_healthy_step_starts_no_world(self, worlds):
        from repro.core.experiments.ext_noise import _step_time

        with use_faults(parse_faults(_DEGRADE)):
            assert _step_time(16, 0.25, 1) > 1e-3
        assert worlds == []

    @pytest.mark.parametrize("faults", ["drop:probability=0.2,timeout=1us",
                                        "jitter:amplitude=0.05"])
    def test_des_faults_start_worlds(self, faults, worlds):
        from repro.core.experiments.ext_noise import _step_time

        with use_faults(parse_faults(faults), salt="ext-noise-des"):
            _step_time(16, 0.25, 1)
        assert len(worlds) == 1

    def test_traced_step_records_its_messages(self, worlds):
        from repro.core.experiments.ext_noise import _step_time
        from repro.mpi.collectives import expected_messages

        tracer = Tracer()
        with use_tracer(tracer):
            traced = _step_time(16, 0.25, 1)
        assert len(worlds) == 1
        assert len(tracer.messages) == expected_messages("allreduce", 16)
        assert traced == _step_time(16, 0.25, 1)
        assert len(worlds) == 1
