"""Tests for router topology, nodes and clusters."""

from functools import cache

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster, columbia, multinode, single_node
from repro.machine.infiniband import MPTVersion
from repro.machine.node import NodeType, build_node
from repro.machine.router import bisection_links, hop_count, tree_depth


@cache
def fat_tree(n_bricks: int) -> nx.Graph:
    """Explicit binary fat-tree graph over ``n_bricks`` leaf bricks: the
    oracle for the closed-form :func:`hop_count`.

    Leaves are ``("brick", i)``; the router at ``("router", level, j)``
    covers leaves ``[j * 2**level, (j + 1) * 2**level)``, with level 1
    just above the leaves.  Built once per brick count, so a Hypothesis
    example pays only for its shortest-path query.
    """
    g = nx.Graph()
    g.add_nodes_from(("brick", i) for i in range(n_bricks))
    for level in range(1, tree_depth(n_bricks) + 1):
        n_children = -(-n_bricks // (1 << (level - 1)))
        for j in range(n_children):
            child = ("brick", j) if level == 1 else ("router", level - 1, j)
            g.add_edge(("router", level, j // 2), child)
    return g



class TestFatTree:
    def test_same_brick_zero_hops(self):
        assert hop_count(5, 5) == 0

    def test_adjacent_bricks_two_hops(self):
        assert hop_count(0, 1) == 2

    def test_distance_grows_logarithmically(self):
        assert hop_count(0, 1) < hop_count(0, 2) < hop_count(0, 64)

    def test_symmetry(self):
        for a, b in [(0, 3), (7, 120), (1, 2)]:
            assert hop_count(a, b) == hop_count(b, a)

    @given(st.integers(0, 511), st.integers(0, 511))
    def test_hop_count_matches_explicit_graph(self, a, b):
        g = fat_tree(512)
        assert nx.shortest_path_length(
            g, ("brick", a), ("brick", b)
        ) == hop_count(a, b)

    def test_hop_count_matches_bfs_over_every_pair(self):
        # The closed form is the whole runtime model of the fabric:
        # check it against BFS for all 512 x 512 pairs of a full node.
        g = fat_tree(512)
        for a in range(512):
            hops = nx.single_source_shortest_path_length(g, ("brick", a))
            assert all(
                hops[("brick", b)] == hop_count(a, b) for b in range(512)
            ), a

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_triangle_inequality(self, a, b, c):
        assert hop_count(a, c) <= hop_count(a, b) + hop_count(b, c)

    def test_tree_depth(self):
        assert tree_depth(1) == 1
        assert tree_depth(2) == 1
        assert tree_depth(64) == 6
        assert tree_depth(128) == 7

    def test_bisection_scales_linearly(self):
        # Paper §2: bisection bandwidth scales linearly with CPUs.
        assert bisection_links(128) == 2 * bisection_links(64)

    def test_graph_is_connected(self):
        for n_bricks in (1, 5, 64, 512):
            g = fat_tree(n_bricks)
            assert nx.is_connected(g)
            # n leaves plus the routers of a binary tree: a tree has
            # one edge fewer than it has nodes.
            assert g.number_of_edges() == g.number_of_nodes() - 1


class TestNode:
    def test_bx2_is_double_density(self):
        # §2: BX2 C-Brick has 8 CPUs vs the 3700's 4.
        assert build_node(NodeType.A3700).brick.cpus == 4
        assert build_node(NodeType.BX2A).brick.cpus == 8
        assert build_node(NodeType.BX2B).brick.cpus == 8

    def test_3700_has_more_bricks(self):
        assert build_node(NodeType.A3700).n_bricks == 128
        assert build_node(NodeType.BX2B).n_bricks == 64

    def test_bx2_has_shorter_average_distance(self):
        """Double-density packing -> fewer bricks -> fewer hops (§4.1.2)."""
        n3700 = build_node(NodeType.A3700)
        nbx2 = build_node(NodeType.BX2B)
        cpus = range(0, 512, 37)
        mean = lambda node: sum(
            node.hops(a, b) for a in cpus for b in cpus if a != b
        ) / (len(list(cpus)) * (len(list(cpus)) - 1))
        assert mean(nbx2) < mean(n3700)

    def test_node_peak_matches_table1(self):
        assert build_node(NodeType.A3700).peak_flops == pytest.approx(3.072e12)
        assert build_node(NodeType.BX2B).peak_flops == pytest.approx(3.2768e12)

    def test_bx2_latency_and_bandwidth_beat_3700(self):
        n3700 = build_node(NodeType.A3700)
        nbx2 = build_node(NodeType.BX2B)
        lat_3700, bw_3700 = n3700.point_to_point(0, 300)
        lat_bx2, bw_bx2 = nbx2.point_to_point(0, 300)
        assert lat_bx2 < lat_3700
        assert bw_bx2 > bw_3700

    def test_cpu_bounds_checked(self):
        node = build_node(NodeType.A3700)
        with pytest.raises(ConfigurationError):
            node.brick_of(512)
        with pytest.raises(ConfigurationError):
            node.hops(-1, 0)

    def test_small_test_nodes(self):
        node = build_node(NodeType.BX2B, 32)
        assert node.n_bricks == 4
        assert node.peak_flops == pytest.approx(32 * 6.4e9)


class TestCluster:
    def test_columbia_inventory(self):
        c = columbia()
        assert len(c.nodes) == 20
        kinds = [n.node_type for n in c.nodes]
        assert kinds.count(NodeType.A3700) == 12
        assert kinds.count(NodeType.BX2A) == 3
        assert kinds.count(NodeType.BX2B) == 5
        assert c.total_cpus == 10240  # the paper's headline number

    def test_numalink4_limited_to_four_nodes(self):
        multinode(4, fabric="numalink4")  # fine (§2)
        with pytest.raises(ConfigurationError):
            multinode(5, fabric="numalink4")

    def test_infiniband_allows_many_nodes(self):
        c = multinode(8, fabric="infiniband")
        assert c.total_cpus == 8 * 512

    def test_intra_node_beats_inter_node(self):
        c = multinode(2, fabric="numalink4", n_cpus=64)
        lat_in, bw_in = c.point_to_point(0, 63)
        lat_out, bw_out = c.point_to_point(0, 64)
        assert lat_in < lat_out

    def test_infiniband_much_slower_than_numalink4(self):
        nl = multinode(2, fabric="numalink4", n_cpus=64)
        ib = multinode(2, fabric="infiniband", n_cpus=64)
        lat_nl, bw_nl = nl.point_to_point(0, 64)
        lat_ib, bw_ib = ib.point_to_point(0, 64)
        assert lat_ib > 1.8 * lat_nl
        assert bw_ib < bw_nl / 2

    def test_mpt_release_adds_latency(self):
        from repro.faults import COLUMBIA_DEGRADED, MPT_ANOMALY_LATENCY, use_faults
        from repro.machine.placement import Placement
        from repro.netmodel.costs import NetworkModel

        rel = multinode(2, fabric="infiniband", n_cpus=64, mpt=MPTVersion.MPT_1_11R)
        beta = multinode(2, fabric="infiniband", n_cpus=64, mpt=MPTVersion.MPT_1_11B)
        # A healthy machine prices both libraries identically — the
        # released library's extra latency is a fault, not a property
        # of the fabric.
        lat_rel, _ = rel.point_to_point(0, 64)
        lat_beta, _ = beta.point_to_point(0, 64)
        assert lat_rel == lat_beta
        # Under the Columbia degraded spec the released-MPT inter-node
        # path picks up the +14us; the beta library does not.
        with use_faults(COLUMBIA_DEGRADED):
            # spread placements round-robin ranks over nodes, so rank
            # 0 -> node 0 and rank 1 -> node 1: an inter-node pair.
            p_rel = NetworkModel(
                Placement(rel, n_ranks=128, spread_nodes=True)
            ).path(0, 1)
            p_beta = NetworkModel(
                Placement(beta, n_ranks=128, spread_nodes=True)
            ).path(0, 1)
        assert p_rel.latency == pytest.approx(
            p_beta.latency + MPT_ANOMALY_LATENCY
        )

    def test_ib_degrades_with_node_count(self):
        two = multinode(2, fabric="infiniband", n_cpus=64)
        four = multinode(4, fabric="infiniband", n_cpus=64)
        lat2, bw2 = two.point_to_point(0, 64)
        lat4, bw4 = four.point_to_point(0, 64)
        assert lat4 > lat2  # Fig. 10: worse across four nodes
        assert bw4 < bw2

    def test_node_of_and_local_cpu(self):
        c = multinode(3, fabric="infiniband", n_cpus=128)
        assert c.node_of(0) == 0
        assert c.node_of(255) == 1
        assert c.local_cpu(255) == 127
        with pytest.raises(ConfigurationError):
            c.node_of(999)

    def test_mixed_sizes_allowed_with_offset_geometry(self):
        # PR 10: heterogeneous (machine-zoo) clusters are legal; the
        # geometry runs on a per-node offset table.
        mixed = Cluster(
            nodes=(build_node(NodeType.A3700, 64), build_node(NodeType.A3700, 128))
        )
        assert not mixed.uniform
        assert mixed.total_cpus == 192
        assert [mixed.node_of(c) for c in (0, 63, 64, 191)] == [0, 0, 1, 1]
        assert mixed.local_cpu(64) == 0 and mixed.local_cpu(191) == 127
        # Uniform-only layers must fail loudly, never misplace CPUs.
        with pytest.raises(ConfigurationError, match="heterogeneous"):
            mixed.cpus_per_node
        uniform = Cluster(
            nodes=(build_node(NodeType.A3700, 64), build_node(NodeType.A3700, 64))
        )
        assert uniform.uniform and uniform.cpus_per_node == 64

    def test_bad_fabric_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nodes=(build_node(NodeType.A3700, 64),), fabric="ethernet")
