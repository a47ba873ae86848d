"""Tests for the HPCC microbenchmark implementations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import parse_faults, use_faults
from repro.hpcc import (
    natural_ring,
    pingpong,
    predict_dgemm,
    predict_stream,
    random_ring,
    run_dgemm,
    run_stream,
)
from repro.hpcc.beff import (
    BANDWIDTH_BYTES,
    LATENCY_BYTES,
    PingPongResult,
    RingResult,
    _barrier_recurrence,
    _pair_sample,
    _ring_exchange,
)
from repro.hpcc.dgemm import dgemm_problem_size
from repro.machine.cluster import multinode, single_node
from repro.machine.node import NodeType, build_node
from repro.machine.placement import Placement
from repro.mpi import run_mpi
from repro.mpi.collectives import barrier
from repro.mpi.comm import MPIWorld
from repro.netmodel.contention import (
    cross_node_flow_factor,
    random_permutation_factor,
)
from repro.netmodel.costs import NetworkModel
from repro.obs.spans import Tracer, use_tracer
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.units import GIB, to_gb_per_s


def placement(p, node_type=NodeType.BX2B, **kw):
    return Placement(single_node(node_type), n_ranks=p, **kw)


class TestDGEMM:
    def test_real_run_produces_rate(self):
        r = run_dgemm(128, repeats=1)
        assert r.gflops_per_cpu > 0.01

    def test_real_run_verifies(self):
        # Verification happens inside; a normal run must not raise.
        run_dgemm(64, repeats=1)

    def test_tiny_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            run_dgemm(1)

    def test_problem_size_uses_75_percent(self):
        n = dgemm_problem_size(1 * GIB)
        assert 3 * 8 * n * n <= 0.75 * GIB
        assert 3 * 8 * (n + 50) * (n + 50) > 0.75 * GIB

    def test_prediction_matches_paper_rates(self):
        assert predict_dgemm(build_node(NodeType.BX2B)).gflops_per_cpu == pytest.approx(5.76, abs=0.01)
        assert predict_dgemm(build_node(NodeType.A3700)).gflops_per_cpu == pytest.approx(5.40, abs=0.01)

    def test_total_scales_with_cpus(self):
        node = build_node(NodeType.BX2B)
        r = predict_dgemm(node, placement(16))
        assert r.total_gflops == pytest.approx(16 * r.gflops_per_cpu)


class TestSTREAM:
    def test_real_run_produces_rates(self):
        r = run_stream(200_000, repeats=1)
        for op in ("copy", "scale", "add", "triad"):
            assert r[op] > 0.01

    def test_real_run_verifies_values(self):
        run_stream(50_000, repeats=2)  # raises on corruption

    def test_short_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            run_stream(10)

    def test_unknown_op_rejected(self):
        r = predict_stream(build_node(NodeType.BX2B))
        with pytest.raises(ConfigurationError):
            r["swizzle"]

    def test_prediction_single_vs_dense(self):
        node = build_node(NodeType.BX2B)
        single = predict_stream(node)  # no placement -> 1 CPU per bus
        dense = predict_stream(node, placement(8))
        assert single.triad > 1.8 * dense.triad

    def test_copy_at_least_triad(self):
        r = predict_stream(build_node(NodeType.A3700))
        assert r.copy >= r.triad


class TestBeff:
    def test_pingpong_needs_two_ranks(self):
        with pytest.raises(ConfigurationError):
            pingpong(placement(1))

    @pytest.mark.parametrize("max_pairs", [0, -3])
    def test_pingpong_needs_a_pair(self, max_pairs):
        with pytest.raises(ConfigurationError, match="max_pairs"):
            pingpong(placement(16), max_pairs=max_pairs)

    def test_pingpong_latency_in_microsecond_range(self):
        r = pingpong(placement(16), max_pairs=8)
        assert 0.5e-6 < r.avg_latency < 20e-6

    def test_rings_report_positive_rates(self):
        pl = placement(16)
        for ring in (natural_ring(pl), random_ring(pl, trials=1)):
            assert ring.latency > 0
            assert ring.bandwidth_per_cpu > 0
            assert ring.n_cpus == 16

    def test_random_ring_no_better_than_natural(self):
        pl = placement(128)
        nat = natural_ring(pl)
        rnd = random_ring(pl, trials=2)
        assert rnd.bandwidth_per_cpu <= nat.bandwidth_per_cpu * 1.01

    def test_random_ring_deterministic_per_seed(self):
        pl = placement(32)
        a = random_ring(pl, trials=2, seed=9)
        b = random_ring(pl, trials=2, seed=9)
        assert a == b

    def test_ring_bandwidth_declines_with_cpus_on_3700(self):
        small = random_ring(placement(8, NodeType.A3700), trials=1)
        large = random_ring(placement(256, NodeType.A3700), trials=1)
        assert large.bandwidth_per_cpu < small.bandwidth_per_cpu

    def test_multinode_infiniband_rings_collapse(self):
        """Fig. 10's 'severe problems with scalability of InfiniBand'."""
        nl = Placement(multinode(2, fabric="numalink4", n_cpus=64), n_ranks=128, spread_nodes=True)
        ib = Placement(multinode(2, fabric="infiniband", n_cpus=64), n_ranks=128, spread_nodes=True)
        r_nl = random_ring(nl, trials=1)
        r_ib = random_ring(ib, trials=1)
        assert r_ib.bandwidth_per_cpu < 0.5 * r_nl.bandwidth_per_cpu
        assert r_ib.latency > r_nl.latency


# -- reference b_eff: every world runs every rank, every ring world runs
# its own barrier.  The production patterns skip that idle work and
# must still return exactly (==, not approx) these results.


def _ref_pingpong(placement, max_pairs=64, seed=0):
    def prog_for(pair, nbytes):
        a, b = pair

        def prog(comm):
            if comm.rank == a:
                t0 = comm.now
                yield from comm.send(b, nbytes)
                yield from comm.recv(b)
                return (comm.now - t0) / 2.0
            elif comm.rank == b:
                yield from comm.recv(a)
                yield from comm.send(a, nbytes)
            return None

        return prog

    latencies, bandwidths = [], []
    for pair in _pair_sample(placement.n_ranks, max_pairs, seed):
        latencies.append(run_mpi(placement, prog_for(pair, LATENCY_BYTES)).values[pair[0]])
        oneway = run_mpi(placement, prog_for(pair, BANDWIDTH_BYTES)).values[pair[0]]
        bandwidths.append(BANDWIDTH_BYTES / oneway)
    return PingPongResult(placement.total_cpus, float(np.mean(latencies)),
                          float(np.mean(bandwidths)))


def _ref_ring_times(placement, order, nbytes):
    p = placement.n_ranks
    pos = {rank: k for k, rank in enumerate(order)}

    def prog(comm):
        k = pos[comm.rank]
        right = order[(k + 1) % p]
        left = order[(k - 1) % p]
        yield from barrier(comm)
        t0 = comm.now
        comm.isend(right, nbytes, tag=1)
        comm.isend(left, nbytes, tag=2)
        yield comm.irecv(left, tag=1)
        yield comm.irecv(right, tag=2)
        return comm.now - t0

    return np.asarray(run_mpi(placement, prog).values, dtype=float)


def _ref_natural_ring(placement):
    p = placement.n_ranks
    order = list(range(p))
    lat = float(np.max(_ref_ring_times(placement, order, LATENCY_BYTES)))
    bw_times = _ref_ring_times(placement, order, BANDWIDTH_BYTES)
    cross = cross_node_flow_factor(placement, concurrent_fraction=2.0 / max(2, p))
    per_cpu = float(np.mean(2.0 * BANDWIDTH_BYTES / bw_times)) / cross
    return RingResult(placement.total_cpus, lat, per_cpu)


def _ref_random_ring(placement, trials=3, seed=1):
    p = placement.n_ranks
    rng = make_rng(seed)
    lats, bws = [], []
    cross = cross_node_flow_factor(placement, concurrent_fraction=1.0)
    cross *= random_permutation_factor(p / placement.n_nodes_used())
    for _ in range(max(1, trials)):
        order = [int(r) for r in rng.permutation(p)]
        lats.append(float(np.mean(_ref_ring_times(placement, order, LATENCY_BYTES))))
        bw_times = _ref_ring_times(placement, order, BANDWIDTH_BYTES)
        bws.append(float(np.mean(2.0 * BANDWIDTH_BYTES / bw_times)) / cross)
    geo = lambda xs: float(math.exp(np.mean(np.log(xs))))
    return RingResult(placement.total_cpus, geo(lats), geo(bws))


def _beff_placement(kind, p):
    if kind == "single":
        return Placement(single_node(NodeType.BX2B), n_ranks=p)
    cluster = multinode(2, fabric=kind, n_cpus=256)
    return Placement(cluster, n_ranks=p, spread_nodes=True)


#: degrades a link class in each placement kind (static path faults:
#: priced into the route table, no DES hook).
_DEGRADE = ("degrade:link_class=intra_node,latency_factor=2,bandwidth_factor=0.5;"
            "degrade:link_class=inter_node,latency_factor=3,bandwidth_factor=0.25")


class TestBeffMatchesReference:
    @pytest.mark.parametrize("faults", [None, _DEGRADE], ids=["healthy", "degrade"])
    @pytest.mark.parametrize("p", [2, 3, 64, 256])
    @pytest.mark.parametrize("kind", ["single", "numalink4", "infiniband"])
    def test_patterns_equal_reference(self, kind, p, faults):
        pl = _beff_placement(kind, p)
        spec = parse_faults(faults) if faults else None
        with use_faults(spec, salt="beff-oracle"):
            got = (pingpong(pl, max_pairs=6), natural_ring(pl),
                   random_ring(pl, trials=2, seed=4))
        with use_faults(spec, salt="beff-oracle"):
            want = (_ref_pingpong(pl, max_pairs=6), _ref_natural_ring(pl),
                    _ref_random_ring(pl, trials=2, seed=4))
        assert got == want


def _ref_barrier(placement):
    def prog(comm):
        yield from barrier(comm)
        return comm.now, comm.inject_free_at

    return run_mpi(placement, prog).values


class TestRecurrencesMatchDES:
    """The healthy ring patterns run no DES world: the barrier and ring
    recurrences must be bit-for-bit the one-world DES reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["single", "numalink4", "infiniband"]),
        p=st.integers(1, 96),
        seed=st.integers(0, 2**16),
        faults=st.sampled_from([None, _DEGRADE]),
    )
    @example(kind="single", p=1, seed=0, faults=None)
    @example(kind="numalink4", p=2, seed=0, faults=_DEGRADE)
    @example(kind="infiniband", p=3, seed=5, faults=None)
    @example(kind="infiniband", p=96, seed=7, faults=_DEGRADE)
    def test_barrier_and_ring_times_equal_one_world_des(self, kind, p, seed, faults):
        pl = _beff_placement(kind, p)
        order = [int(r) for r in make_rng(seed).permutation(p)]
        with use_faults(parse_faults(faults) if faults else None):
            exits = _barrier_recurrence(NetworkModel(pl))
            got = _ring_exchange(pl, order, exits)
            want_exits = _ref_barrier(pl)
            want = [_ref_ring_times(pl, order, nbytes)
                    for nbytes in (LATENCY_BYTES, BANDWIDTH_BYTES)]
        assert tuple(zip(exits[0].tolist(), exits[1].tolist())) == want_exits
        for times, ref in zip(got, want):
            assert times.tolist() == ref.tolist()

    #: The fast-sweep cells whose healthy rows come from the four
    #: recurrence twins (ring, barrier, ping-pong, allreduce step), and
    #: a span their DES run records.  fig10's 512-CPU cells (about
    #: 1.5 s each traced) are left out.
    @pytest.mark.parametrize("experiment,max_cpus", [
        ("fig5", 64), ("fig10", 64), ("sec42_stride", None),
        ("ext_noise", None),
    ])
    def test_traced_rows_equal_untraced_rows(self, experiment, max_cpus,
                                             monkeypatch):
        """An enabled tracer forces the DES, and an untraced healthy
        cell starts no DES world, so equal rows show on real cells that
        the recurrences equal the DES."""
        import repro.core  # noqa: F401  (registers the experiments)
        from repro.core.registry import resolve_experiment
        from repro.obs.spans import Tracer, use_tracer
        from repro.run.runner import execute_scenario

        worlds = []
        world_init = MPIWorld.__init__

        def counted(self, *args, **kwargs):
            worlds.append(1)
            world_init(self, *args, **kwargs)

        monkeypatch.setattr(MPIWorld, "__init__", counted)
        span = "allreduce" if experiment == "ext_noise" else "barrier"
        cells = [c for c in resolve_experiment(experiment).scenarios(fast=True)
                 if max_cpus is None or dict(c.params)["cpus"] <= max_cpus]
        assert cells
        for cell in cells:
            worlds.clear()
            untraced = execute_scenario(cell)
            assert not worlds, cell
            tracer = Tracer()
            with use_tracer(tracer):
                traced = execute_scenario(cell)
            assert worlds and any(s.name == span for s in tracer.spans), cell
            assert traced == untraced, cell


def _link_classes(placement, pairs):
    world = MPIWorld(Simulator(), NetworkModel(placement))
    return {world.link_info(a, b)[0] for a, b in pairs}


#: DES faults: a per-message drop lottery and compute jitter.
_DES_FAULTS = ("drop:probability=0.2,timeout=1us", "jitter:amplitude=0.05")


class TestPingPongMatchesDES:
    """A healthy ping-pong runs no DES world: its averages must be
    bit-for-bit the all-ranks DES reference."""

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["single", "numalink4", "infiniband"]),
        p=st.integers(2, 96),
        max_pairs=st.integers(1, 64),
        seed=st.integers(0, 2**16),
        faults=st.sampled_from([None, _DEGRADE]),
    )
    @example(kind="single", p=2, max_pairs=1, seed=0, faults=None)
    @example(kind="numalink4", p=96, max_pairs=64, seed=3, faults=_DEGRADE)
    @example(kind="infiniband", p=17, max_pairs=64, seed=5, faults=None)
    def test_pingpong_equals_reference(self, kind, p, max_pairs, seed, faults):
        pl = _beff_placement(kind, p)
        with use_faults(parse_faults(faults) if faults else None):
            got = pingpong(pl, max_pairs=max_pairs, seed=seed)
            want = _ref_pingpong(pl, max_pairs=max_pairs, seed=seed)
        assert got == want

    @pytest.mark.parametrize("faults", [None, _DEGRADE], ids=["healthy", "degrade"])
    @pytest.mark.parametrize("kind,p", [("single", 12), ("numalink4", 48),
                                        ("infiniband", 48)])
    def test_every_link_class_equals_reference(self, kind, p, faults, worlds):
        pl = _beff_placement(kind, p)
        pairs = _pair_sample(p, 64, 0)
        want_classes = {"intra_brick", "intra_node"}
        if kind != "single":
            want_classes.add("inter_node")
        assert _link_classes(pl, pairs) == want_classes
        before = len(worlds)
        with use_faults(parse_faults(faults) if faults else None):
            got = pingpong(pl, max_pairs=64)
            assert len(worlds) == before
            assert got == _ref_pingpong(pl, max_pairs=64)


class TestDESPathsStayOnTheDES:
    """Under DES faults or an enabled tracer, ping-pong and the rings
    still run on the DES."""

    @pytest.mark.parametrize("faults", _DES_FAULTS)
    def test_des_faults_start_worlds(self, faults, worlds):
        pl = _beff_placement("numalink4", 8)
        with use_faults(parse_faults(faults), salt="beff-des"):
            pingpong(pl, max_pairs=3)
            assert len(worlds) == 2 * 3
            natural_ring(pl)
        assert len(worlds) > 2 * 3

    def test_traced_pingpong_records_its_messages(self, worlds):
        pl = _beff_placement("infiniband", 8)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = pingpong(pl, max_pairs=3)
        assert len(worlds) == 2 * 3
        # Each game is one message there and one back.
        assert len(tracer.messages) == 2 * 2 * 3
        assert traced == pingpong(pl, max_pairs=3)
        assert len(worlds) == 2 * 3
