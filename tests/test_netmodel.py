"""Tests for the network cost models (paths, contention, collectives)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import (
    FaultSpec,
    LinkDegradation,
    MptAnomaly,
    RouterFailover,
    use_faults,
)
from repro.machine.cluster import multinode, single_node
from repro.machine.infiniband import MPTVersion
from repro.machine.interconnect import NUMALINK4
from repro.machine.node import MPI_MEMCPY_BANDWIDTH, NodeType
from repro.machine.placement import Placement
from repro.machine.router import tree_depth
from repro.machine.zoo import build_machine
from repro.netmodel.collectives import CollectiveModel
from repro.netmodel.contention import (
    concurrent_flow_factor,
    cross_node_flow_factor,
    random_pair_cross_fraction,
    random_permutation_factor,
)
from repro.netmodel.costs import NetworkModel, PathSpec, PathStats, _RouteTable


def placement(p, node_type=NodeType.BX2B, **kw):
    return Placement(single_node(node_type), n_ranks=p, **kw)


class TestPathSpec:
    def test_time_is_latency_plus_transfer(self):
        p = PathSpec(latency=1e-6, bandwidth=1e9)
        assert p.time(0) == pytest.approx(1e-6)
        assert p.time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            PathSpec(latency=-1e-6, bandwidth=1e9)
        with pytest.raises(ConfigurationError):
            PathSpec(latency=1e-6, bandwidth=0)

    @given(
        lat=st.floats(0, 1e-3),
        bw=st.floats(1e6, 1e10),
        a=st.floats(0, 1e6),
        b=st.floats(0, 1e6),
    )
    def test_time_monotone_in_size(self, lat, bw, a, b):
        p = PathSpec(lat, bw)
        lo, hi = min(a, b), max(a, b)
        assert p.time(lo) <= p.time(hi)


class TestNetworkModel:
    def test_paths_symmetric(self):
        net = NetworkModel(placement(64))
        for a, b in ((0, 5), (3, 60), (10, 40)):
            assert net.path(a, b) == net.path(b, a)

    def test_self_path_is_fastest(self):
        net = NetworkModel(placement(64))
        self_path = net.path(7, 7)
        other = net.path(7, 8)
        assert self_path.latency < other.latency

    def test_nearby_ranks_beat_distant_ranks(self):
        net = NetworkModel(placement(512))
        near = net.path(0, 1)
        far = net.path(0, 511)
        assert near.latency < far.latency
        assert near.bandwidth >= far.bandwidth

    def test_stats_fields_consistent(self):
        net = NetworkModel(placement(64))
        s = net.stats()
        assert 0 < s.mean_latency <= s.max_latency
        assert 0 < s.min_bandwidth <= s.mean_bandwidth
        assert s.cross_node_fraction == 0.0  # single node

    def test_stats_cross_node_fraction(self):
        c = multinode(2, n_cpus=64)
        pl = Placement(c, n_ranks=128)
        s = NetworkModel(pl).stats()
        assert 0.3 < s.cross_node_fraction < 0.7  # ~half the pairs

    def test_single_rank_stats_are_the_self_path(self):
        net = NetworkModel(placement(1))
        p = net.path(0, 0)
        assert net.stats() == PathStats(
            p.latency, p.latency, p.bandwidth, p.bandwidth, 0.0)

    def test_sampled_stats_deterministic(self):
        net = NetworkModel(placement(256))
        assert net.stats(max_samples=100) == net.stats(max_samples=100)


class TestRouteTableSharing:
    """Route tables and path statistics are keyed on placement content
    (cluster value + home CPU of every rank), never on the instance."""

    def test_equal_placements_share_one_route_table(self):
        a = NetworkModel(Placement(multinode(2, n_cpus=64), n_ranks=96))
        b = NetworkModel(Placement(multinode(2, n_cpus=64), n_ranks=96))
        assert a.placement is not b.placement
        assert a._table is b._table
        assert a.stats() is b.stats()

    def test_equivalent_layouts_share_one_route_table(self):
        # Paths read only the home CPUs: an explicit cpu_list equal to
        # the default layout, or stride 2 vs 2 threads per rank, is
        # the same content.
        default = Placement(single_node(NodeType.BX2B), n_ranks=16)
        listed = Placement(default.cluster, n_ranks=16,
                           cpu_list=tuple(range(16)))
        assert NetworkModel(default)._table is NetworkModel(listed)._table
        strided = Placement(default.cluster, n_ranks=16, stride=2)
        threaded = Placement(default.cluster, n_ranks=16, threads_per_rank=2)
        assert NetworkModel(strided)._table is NetworkModel(threaded)._table

    def test_different_stride_or_cpu_list_do_not_share(self):
        cluster = single_node(NodeType.BX2B)
        base = NetworkModel(Placement(cluster, n_ranks=64))
        strided = NetworkModel(Placement(cluster, n_ranks=64, stride=4))
        listed = NetworkModel(Placement(
            cluster, n_ranks=64, cpu_list=tuple(range(511, 447, -1))))
        tables = {id(m._table) for m in (base, strided, listed)}
        assert len(tables) == 3
        assert base.stats() != strided.stats()
        assert base.path(0, 63) != strided.path(0, 63)

    def test_different_clusters_do_not_share(self):
        ib = Placement(multinode(2, fabric="infiniband", n_cpus=64), n_ranks=128)
        nl = Placement(multinode(2, fabric="numalink4", n_cpus=64), n_ranks=128)
        assert ib.content_key != nl.content_key
        assert NetworkModel(ib)._table is not NetworkModel(nl)._table
        assert NetworkModel(ib).stats() != NetworkModel(nl).stats()

    def test_out_of_range_rank_rejected(self):
        net = NetworkModel(placement(8))
        with pytest.raises(ConfigurationError):
            net.path(0, 8)
        with pytest.raises(ConfigurationError):
            net.message_time(-1, 0, 8)
        # The bulk path prices nothing into the per-pair tables.
        stored = dict(net._table.paths)
        net.path_arrays([0, 1, 4], [2, 3, 4])
        assert net._table.paths == stored

    def test_content_key_survives_pickling(self):
        import pickle

        pl = Placement(multinode(2, n_cpus=64), n_ranks=128, spread_nodes=True)
        key = pl.content_key
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and hash(clone) == hash(key)


def mixed_cluster():
    """``fat_numa`` with its last node cut to 512 CPUs: node sizes
    1024, 1024, 1024, 512."""
    fat = build_machine("fat_numa")
    small = build_machine("fat_numa", (("nodes.0.node.n_cpus", 512),)).nodes[0]
    return dataclasses.replace(fat, nodes=fat.nodes[:3] + (small,))


class TestMixedSizeStats:
    """Path statistics on a cluster whose nodes differ in size, where
    ``cpus_per_node`` is undefined."""

    def test_one_rank_per_node(self):
        pl = Placement(mixed_cluster(), n_ranks=4, cpu_list=(0, 1024, 2048, 3072))
        s = NetworkModel(pl).stats()
        assert s.cross_node_fraction == 1.0
        assert CollectiveModel(pl).allreduce(8) > 0

    def test_cross_node_fraction_is_exact(self):
        # Ranks 0-1 share node 0 and ranks 2-3 share the small node 3:
        # 2 of the 6 pairs stay on a node.
        pl = Placement(mixed_cluster(), n_ranks=4,
                       cpu_list=(0, 1, 3072, 3583))
        assert NetworkModel(pl).stats().cross_node_fraction == 4 / 6


# -- reference oracle: per-pair path pricing, one scalar at a time -----------


def oracle_point_to_point(cluster, cpu_a, cpu_b):
    """Scalar ``(latency, bandwidth)`` between two global CPUs, from
    the interconnect specs and the closed-form hop count."""
    na, nb = cluster.node_of(cpu_a), cluster.node_of(cpu_b)
    if na == nb:
        node = cluster.nodes[na]
        hops = node.hops(cluster.local_cpu(cpu_a), cluster.local_cpu(cpu_b))
        speed = node.processor.clock_hz / 1.5e9
        lat, bw = node.interconnect.point_to_point(hops)
        return lat / speed, min(bw, MPI_MEMCPY_BANDWIDTH * speed)
    if cluster.fabric == "numalink4":
        hops = (tree_depth(cluster.nodes[na].n_bricks)
                + tree_depth(cluster.nodes[nb].n_bricks))
        return NUMALINK4.point_to_point(hops, internode=True)
    return cluster.infiniband.point_to_point(len(cluster.nodes))


def oracle_adjust(faults, cluster, cpu_a, cpu_b, latency, bandwidth):
    """Scalar static-path-fault adjustment of one path."""
    na, nb = cluster.node_of(cpu_a), cluster.node_of(cpu_b)
    if na != nb:
        link = "inter_node"
    else:
        hops = cluster.nodes[na].hops(
            cluster.local_cpu(cpu_a), cluster.local_cpu(cpu_b)
        )
        link = "intra_brick" if hops == 0 else "intra_node"
    for fault in faults:
        if isinstance(fault, LinkDegradation):
            if fault.link_class in ("any", link):
                latency = latency * fault.latency_factor + fault.extra_latency
                bandwidth = bandwidth * fault.bandwidth_factor
        elif isinstance(fault, RouterFailover):
            if fault.node in (na, nb) and (na != nb or link == "intra_node"):
                ic = cluster.nodes[fault.node % len(cluster.nodes)].interconnect
                latency += fault.extra_hops * ic.per_hop_latency
                bandwidth /= 1.0 + fault.extra_hops * ic.per_hop_bw_derate
        else:
            if (link == "inter_node" and cluster.fabric == "infiniband"
                    and cluster.mpt is MPTVersion.MPT_1_11R):
                latency += fault.extra_latency
    return latency, bandwidth


def oracle_path(placement, faults, rank_a, rank_b):
    cluster = placement.cluster
    cpu_a, cpu_b = placement.cpu_of(rank_a), placement.cpu_of(rank_b)
    if rank_a == rank_b:
        node = cluster.nodes[cluster.node_of(cpu_a)]
        lat, bw = node.interconnect.point_to_point(0)
        return lat * 0.5, bw * 2.0
    lat, bw = oracle_point_to_point(cluster, cpu_a, cpu_b)
    return oracle_adjust(faults, cluster, cpu_a, cpu_b, lat, bw)


def _placements():
    ib = dict(fabric="infiniband", n_cpus=64)
    return {
        "3700": Placement(single_node(NodeType.A3700), n_ranks=512),
        "BX2a": Placement(single_node(NodeType.BX2A), n_ranks=512),
        "BX2b": Placement(single_node(NodeType.BX2B), n_ranks=256, stride=2),
        "numalink4": Placement(multinode(4, n_cpus=64), n_ranks=256,
                               spread_nodes=True),
        "ib-mpt1.11b": Placement(multinode(3, **ib), n_ranks=96,
                                 spread_nodes=True),
        "ib-mpt1.11r": Placement(
            multinode(3, mpt=MPTVersion.MPT_1_11R, **ib), n_ranks=96,
            spread_nodes=True),
        "mixed": Placement(mixed_cluster(), n_ranks=8, cpu_list=(
            0, 7, 8, 1023, 1024, 2500, 3072, 3583)),
    }


PLACEMENTS = _placements()

PATH_FAULTS = [
    (),
    *(
        (LinkDegradation(link_class=cls, latency_factor=3.0,
                         bandwidth_factor=0.4, extra_latency=1.5e-6),)
        for cls in ("any", "intra_brick", "intra_node", "inter_node")
    ),
    (RouterFailover(node=0, extra_hops=3),),
    (RouterFailover(node=1, extra_hops=2),),
    (RouterFailover(node=6, extra_hops=2),),  # out of range: the modulo
    (MptAnomaly(),),
    (LinkDegradation(link_class="any", latency_factor=2.0),
     RouterFailover(node=1), MptAnomaly()),
]


class TestPathKernelExactness:
    """The bulk kernel, the scalar ``path()`` and the per-pair oracle
    agree with ``==`` on every pair, self-pairs included."""

    @pytest.mark.parametrize("faults", PATH_FAULTS)
    @pytest.mark.parametrize("name", sorted(PLACEMENTS))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_path_arrays_equal_the_oracle(self, name, faults, data):
        pl = PLACEMENTS[name]
        rank = st.integers(0, pl.n_ranks - 1)
        pairs = data.draw(st.lists(
            st.one_of(st.tuples(rank, rank), rank.map(lambda r: (r, r))),
            min_size=1, max_size=40,
        ))
        src, dst = (list(side) for side in zip(*pairs))
        with use_faults(FaultSpec(faults)):
            net = NetworkModel(pl)
        lat, bw = net.path_arrays(src, dst)
        for k, (a, b) in enumerate(pairs):
            want = oracle_path(pl, faults, a, b)
            assert (lat[k], bw[k]) == want, (a, b)
            spec = net.path(a, b)
            assert (spec.latency, spec.bandwidth) == want, (a, b)
        times = net.message_times(src, dst, 4096.0)
        assert times.tolist() == [
            lat_ + 4096.0 / bw_ for lat_, bw_ in (
                oracle_path(pl, faults, a, b) for a, b in pairs)
        ]

    def test_scalar_point_to_point_equals_the_oracle(self):
        cluster = mixed_cluster()
        for a, b in ((0, 7), (0, 8), (5, 1000), (1023, 1024), (0, 3583),
                     (3072, 3583), (2048, 3100)):
            assert cluster.point_to_point(a, b) == oracle_point_to_point(
                cluster, a, b)


class TestPathChecks:
    """The checks the per-pair path made hold for every entry point."""

    @pytest.mark.parametrize("bad", [8, -1, 100, -9])
    def test_out_of_range_rank_rejected(self, bad):
        net = NetworkModel(placement(8))
        with pytest.raises(ConfigurationError, match="outside"):
            net.path(0, bad)
        with pytest.raises(ConfigurationError, match="outside"):
            net.path_arrays([0, 1], [2, bad])
        with pytest.raises(ConfigurationError, match="outside"):
            net.message_times([bad], [0], 8.0)

    def test_shape_mismatch_rejected(self):
        net = NetworkModel(placement(8))
        with pytest.raises(ConfigurationError, match="shape"):
            net.path_arrays([0, 1], [2])

    @pytest.mark.parametrize("field, value, match", [
        ("extra_latency", -1.0, "latency=-"),
        ("bandwidth_factor", -0.5, "bandwidth=-"),
    ])
    def test_bad_bulk_path_rejected(self, field, value, match):
        # A fault past its spec's own validation: the path check must
        # still catch the bad path in every bulk-priced array.
        fault = LinkDegradation(link_class="intra_node")
        object.__setattr__(fault, field, value)
        pl = placement(64)
        table = _RouteTable((pl.content_key, (fault,)))
        with pytest.raises(ConfigurationError, match=match):
            table.price(np.arange(8), np.arange(8) + 32)
        with pytest.raises(ConfigurationError, match=match):
            table.path(0, 63)
        # Self-paths are exempt from link faults.
        lat, bw = table.price([5], [5])
        assert lat[0] > 0 and bw[0] > 0


class TestContention:
    def test_concurrent_flow_factor_floor_is_one(self):
        assert concurrent_flow_factor(1, 8) == 1.0
        assert concurrent_flow_factor(16, 8) == 2.0

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            concurrent_flow_factor(-1, 8)
        with pytest.raises(ConfigurationError):
            concurrent_flow_factor(1, 0)
        with pytest.raises(ConfigurationError):
            random_pair_cross_fraction(0)
        with pytest.raises(ConfigurationError):
            random_permutation_factor(0)

    def test_cross_fraction_grows_with_nodes(self):
        fracs = [random_pair_cross_fraction(n) for n in (1, 2, 4, 8)]
        assert fracs == sorted(fracs)
        assert fracs[0] == 0.0

    def test_single_node_no_cross_factor(self):
        assert cross_node_flow_factor(placement(64)) == 1.0

    def test_infiniband_contends_harder_than_numalink4(self):
        nl = Placement(multinode(4, fabric="numalink4"), n_ranks=2048, spread_nodes=True)
        ib = Placement(multinode(4, fabric="infiniband"), n_ranks=2048, spread_nodes=True)
        assert cross_node_flow_factor(ib) > cross_node_flow_factor(nl)

    @given(r=st.floats(1.0, 4096.0))
    def test_permutation_factor_bounded(self, r):
        f = random_permutation_factor(r)
        assert 1.0 <= f < 3.0


class TestCollectiveModel:
    @pytest.fixture(scope="class")
    def coll(self):
        return CollectiveModel(placement(64))

    def test_single_rank_costs_nothing(self):
        c = CollectiveModel(placement(1))
        assert c.barrier() == 0.0
        assert c.broadcast(1024) == 0.0
        assert c.allreduce(8) == 0.0
        assert c.alltoall(1024) == 0.0
        assert c.allgather(1024) == 0.0
        assert c.halo_exchange(1024) == 0.0

    def test_costs_positive(self, coll):
        assert coll.barrier() > 0
        assert coll.broadcast(1024) > 0
        assert coll.allreduce(8) > 0
        assert coll.alltoall(1024) > 0
        assert coll.allgather(1024) > 0
        assert coll.halo_exchange(1024) > 0

    @pytest.mark.parametrize("op", ["broadcast", "allreduce", "alltoall", "allgather"])
    def test_monotone_in_message_size(self, coll, op):
        fn = getattr(coll, op)
        sizes = [64, 1024, 65536, 1 << 20]
        costs = [fn(s) for s in sizes]
        assert costs == sorted(costs)

    def test_barrier_grows_logarithmically(self):
        b8 = CollectiveModel(placement(8)).barrier()
        b64 = CollectiveModel(placement(64)).barrier()
        b512 = CollectiveModel(placement(512)).barrier()
        assert b8 < b64 < b512
        # log growth: doubling from 64 to 512 is < 3 rounds more.
        assert b512 < 3 * b64

    def test_alltoall_cheaper_on_numalink4(self):
        c37 = CollectiveModel(placement(256, NodeType.A3700))
        cbx = CollectiveModel(placement(256, NodeType.BX2A))
        assert cbx.alltoall(65536) < c37.alltoall(65536)

    def test_alltoall_grows_with_ranks(self):
        costs = [
            CollectiveModel(placement(p)).alltoall(4096) for p in (8, 64, 256)
        ]
        assert costs == sorted(costs)

    def test_halo_exchange_uses_neighbor_paths(self):
        """Halo exchanges between adjacent ranks should be much
        cheaper than the same volume through an alltoall."""
        coll = CollectiveModel(placement(256))
        assert coll.halo_exchange(65536, 6) < coll.alltoall(65536)
