"""Tests for the network cost models (paths, contention, collectives)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.machine.cluster import multinode, single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.netmodel.collectives import CollectiveModel
from repro.netmodel.contention import (
    concurrent_flow_factor,
    cross_node_flow_factor,
    random_pair_cross_fraction,
    random_permutation_factor,
)
from repro.netmodel.costs import NetworkModel, PathSpec


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

    def test_content_key_survives_pickling(self):
        import pickle

        pl = Placement(multinode(2, n_cpus=64), n_ranks=128, spread_nodes=True)
        key = pl.content_key
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and hash(clone) == hash(key)


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
