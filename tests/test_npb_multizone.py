"""Tests for multi-zone problems, load balancing and the hybrid model."""

from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import COLUMBIA_DEGRADED, use_faults
from repro.machine.cluster import multinode, single_node
from repro.machine.infiniband import MPTVersion
from repro.machine.node import NodeType
from repro.machine.placement import Placement, PinningMode
from repro.npb.hybrid import MZTimingModel, mz_gflops_per_cpu, thread_efficiency
from repro.npb.loadbalance import (
    Assignment, _finish, bin_pack, block_partition, round_robin)
from repro.npb.multizone import MZ_CLASSES, MZProblem, mz_problem, zone_sizes_1d


class TestZones:
    def test_class_e_matches_paper(self):
        """§3.2: Class E = 4096 zones, 4224 x 3456 x 92 aggregate."""
        p = mz_problem("bt-mz", "E")
        assert len(p.zones) == 4096
        assert p.total_points == 4224 * 3456 * 92

    def test_class_f_matches_paper(self):
        """§3.2: Class F = 16384 zones, 12032 x 8960 x 250 aggregate."""
        spec = MZ_CLASSES["F"]
        assert spec.n_zones == 16384
        assert (spec.agg_x, spec.agg_y, spec.agg_z) == (12032, 8960, 250)

    def test_class_e_aggregate_is_1_3_billion(self):
        """§4.6.2: 'the Class E problem (4096 zones, 1.3 billion
        aggregated grid points)'."""
        p = mz_problem("sp-mz", "E")
        assert p.total_points == pytest.approx(1.3e9, rel=0.05)

    def test_btmz_zones_uneven_spmz_even(self):
        bt = mz_problem("bt-mz", "C")
        sp = mz_problem("sp-mz", "C")
        assert bt.size_imbalance > 10  # ~20x by spec
        assert sp.size_imbalance == 1.0

    def test_zone_points_sum_to_aggregate(self):
        for bm in ("bt-mz", "sp-mz"):
            for cls in ("S", "C", "E"):
                p = mz_problem(bm, cls)
                spec = p.spec
                assert p.total_points == spec.agg_x * spec.agg_y * spec.agg_z

    @pytest.mark.parametrize("bm, cls", [
        (bm, cls) for bm in ("bt-mz", "sp-mz") for cls in MZ_CLASSES])
    def test_cached_sums_equal_direct_sums(self, bm, cls):
        """The closed-form sums equal the sums over the zones, for
        every class."""
        p = mz_problem(bm, cls)
        assert [z.index for z in p.zones] == list(range(p.spec.n_zones))
        assert p.total_points == sum(z.nx * z.ny * z.nz for z in p.zones)
        assert p.total_boundary_points == sum(
            2 * (z.nx + z.ny) * z.nz for z in p.zones)
        pts = [z.points for z in p.zones]
        assert p.size_imbalance == max(pts) / min(pts)
        # Cached on the problem: a second read is the same object.
        assert p.total_points is p.total_points
        assert p.total_boundary_points is p.total_boundary_points

    def test_lpt_weights_are_the_zone_points(self):
        from repro.npb import hybrid

        p = mz_problem("bt-mz", "C")
        weights = [float(z.points) for z in p.zones]
        assert (hybrid._lpt_assignment.__wrapped__("bt-mz", "C", 64)
                == bin_pack(weights, 64))

    def test_healthy_fig11_sweep_builds_no_zone_objects(self, monkeypatch):
        """The timing model reads closed-form sums and the LPT reads
        one outer product: a cold fig11 sweep materializes no Zone."""
        from repro.core.registry import resolve_experiment
        from repro.memo import clear_memos
        from repro.run import Runner

        built = []
        zones = MZProblem.__dict__["zones"]
        monkeypatch.setattr(MZProblem, "zones", property(
            lambda self: built.append(self) or zones.func(self)))
        clear_memos()
        try:
            result = resolve_experiment("fig11").run(runner=Runner(jobs=1))
        finally:
            clear_memos()
        assert result.rows and built == []

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            mz_problem("lu-mz", "C")
        with pytest.raises(ConfigurationError):
            mz_problem("bt-mz", "Z")

    @given(
        total=st.integers(100, 5000),
        n=st.integers(1, 20),
        ratio=st.floats(1.0, 30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_zone_sizes_sum_exactly(self, total, n, ratio):
        if total < 3 * n:
            return
        sizes = zone_sizes_1d(total, n, ratio)
        assert sum(sizes) == total
        assert all(s >= 3 for s in sizes)

    def test_zone_sizes_respect_ratio(self):
        sizes = zone_sizes_1d(10000, 16, 4.47)
        assert max(sizes) / min(sizes) == pytest.approx(4.47, rel=0.15)


def reference_bin_pack(weights, n_bins):
    """LPT with a ``-w`` sort key and ``heappop``/``heappush``, kept as
    the oracle for :func:`bin_pack`."""
    order = sorted(range(len(weights)), key=lambda z: -weights[z])
    heap = [(0.0, b) for b in range(n_bins)]
    bins = [[] for _ in range(n_bins)]
    for z in order:
        load, b = heappop(heap)
        bins[b].append(z)
        heappush(heap, (load + weights[z], b))
    return Assignment(bins=tuple(tuple(b) for b in bins),
                      loads=tuple(sum(weights[z] for z in b) for b in bins))


@st.composite
def lpt_inputs(draw):
    """Multi-round LPT inputs: up to ~2,000 zones into up to ~300
    bins, with heavy ties, zeros, one heavy zone over many tiny ones,
    and geometric and lognormal weights."""
    n = draw(st.integers(1, 2000))
    n_bins = draw(st.integers(1, min(n, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(
        ["ties", "zeros", "heavy", "geometric", "lognormal", "mixed"]))
    if shape == "ties":
        w = rng.integers(0, draw(st.integers(1, 4)), n).astype(float)
    elif shape == "zeros":
        w = np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), 0.0,
                     rng.random(n))
    elif shape == "heavy":
        w = np.full(n, draw(st.sampled_from([1e-3, 1.0, 0.0])))
        w[rng.integers(n)] = 1e6
    elif shape == "geometric":
        w = draw(st.floats(0.3, 0.999)) ** np.arange(n, dtype=float)
        rng.shuffle(w)
    elif shape == "lognormal":
        w = rng.lognormal(0.0, draw(st.floats(0.1, 4.0)), n)
    else:
        w = rng.choice([0.0, 0.5, 1.0, 3.0, 1e16, 5e-324], n)
    return w.tolist(), n_bins


class TestLoadBalance:
    WEIGHTS = [100, 90, 40, 40, 30, 20, 10, 5, 5, 1]

    def test_bin_pack_assigns_every_zone_once(self):
        a = bin_pack(self.WEIGHTS, 3)
        seen = sorted(z for b in a.bins for z in b)
        assert seen == list(range(len(self.WEIGHTS)))

    def test_bin_pack_beats_naive_strategies(self):
        lpt = bin_pack(self.WEIGHTS, 3).imbalance
        rr = round_robin(self.WEIGHTS, 3).imbalance
        blk = block_partition(self.WEIGHTS, 3).imbalance
        assert lpt <= rr
        assert lpt <= blk

    def test_perfect_balance_with_equal_zones(self):
        a = bin_pack([10.0] * 16, 4)
        assert a.imbalance == pytest.approx(1.0)

    def test_more_bins_than_zones_rejected(self):
        with pytest.raises(ConfigurationError):
            bin_pack([1.0, 2.0], 3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            bin_pack([1.0, -2.0, 3.0], 2)

    @pytest.mark.parametrize("pack", [bin_pack, round_robin, block_partition])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, pack, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            pack([bad, 1.0, 2.0], 2)

    @given(
        weights=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                      st.integers(0, 5).map(float),
                      st.floats(0.0, 1e6)),
            min_size=1, max_size=80),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bin_pack_matches_reference_lpt(self, weights, data):
        n_bins = data.draw(st.integers(1, len(weights)))
        assert bin_pack(weights, n_bins) == reference_bin_pack(weights, n_bins)

    @given(lpt_inputs())
    @settings(max_examples=150, deadline=None)
    def test_batched_rounds_match_reference_lpt(self, case):
        weights, n_bins = case
        assert bin_pack(weights, n_bins) == reference_bin_pack(weights, n_bins)

    @pytest.mark.parametrize("weights, n_bins", [
        ([0.0] * 16384, 2560),
        ([float(1 + z % 7) for z in range(3000)] + [0.0] * 16384, 2560),
        ([1.0] * 100 + [0.0] * 16384, 300),
    ], ids=["all-zero", "positive-then-zeros", "equal-then-zeros"])
    def test_zero_tails_match_reference_lpt(self, weights, n_bins):
        assert bin_pack(weights, n_bins) == reference_bin_pack(weights, n_bins)

    @pytest.mark.parametrize("weights, n_bins", [
        ([0.0, 0.0, 0.0, 0.0], 3),
        ([2.0, 0.0, 0.0, 1.0], 3),
        ([3, 1, 2, 2], 2),
        ([5.0, 1.0, 1.0, 1.0, 0.5], 4),
    ])
    def test_loads_match_finish_in_value_and_type(self, weights, n_bins):
        a = bin_pack(weights, n_bins)
        want = _finish([list(b) for b in a.bins], weights).loads
        assert a.loads == want
        assert [type(x) for x in a.loads] == [type(x) for x in want]
        for load, members in zip(a.loads, a.bins):
            if not members:  # only zero weights leave a bin empty
                assert load == 0 and type(load) is int

    def test_bin_of(self):
        a = bin_pack(self.WEIGHTS, 3)
        for z in range(len(self.WEIGHTS)):
            assert z in a.bins[a.bin_of(z)]

    @given(
        weights=st.lists(st.floats(1.0, 100.0), min_size=4, max_size=60),
        n_bins=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_bin_pack_invariants(self, weights, n_bins):
        if len(weights) < n_bins:
            return
        a = bin_pack(weights, n_bins)
        assert a.n_bins == n_bins
        assert sum(a.loads) == pytest.approx(sum(weights))
        assert 1.0 <= a.imbalance <= n_bins
        # LPT guarantee: max load <= mean + max_weight.
        mean = sum(weights) / n_bins
        assert a.max_load <= mean + max(weights) + 1e-9


class TestThreadEfficiency:
    def test_one_thread_is_perfect(self):
        assert thread_efficiency(1) == 1.0

    def test_two_threads_strong(self):
        """Fig. 9: two threads scale well."""
        assert thread_efficiency(2) > 0.85

    def test_drops_quickly_beyond_two(self):
        """Fig. 9: 'except for two threads, OpenMP performance drops
        quickly as the number of threads increases'."""
        assert thread_efficiency(8) < 0.55
        assert thread_efficiency(32) < 0.25

    def test_monotone_decreasing(self):
        effs = [thread_efficiency(t) for t in (1, 2, 4, 8, 16, 32, 64)]
        assert effs == sorted(effs, reverse=True)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            thread_efficiency(0)


class TestHybridModel:
    def bx2b(self, **kw):
        return Placement(single_node(NodeType.BX2B), **kw)

    def test_more_ranks_than_zones_rejected(self):
        with pytest.raises(ConfigurationError):
            MZTimingModel("bt-mz", "S", self.bx2b(n_ranks=5))

    def test_mpi_scales_nearly_linearly_until_imbalance(self):
        """Fig. 9 left: 'MPI scales very well, almost linearly up to
        the point where load imbalancing becomes a problem'."""
        def total(p):
            m = MZTimingModel("bt-mz", "C", self.bx2b(n_ranks=p))
            return m.total_gflops()

        assert total(64) > 3.4 * total(16)  # near-linear early
        assert total(256) < 2.0 * total(64)  # imbalance bites at 1 zone/rank

    def test_threads_recover_load_balance_at_high_cpu_counts(self):
        """§4.6.2: threads needed for BT-MZ balance as CPUs grow."""
        flat = MZTimingModel("bt-mz", "C", self.bx2b(n_ranks=256))
        hybrid = MZTimingModel("bt-mz", "C", self.bx2b(n_ranks=128, threads_per_rank=2))
        assert hybrid.imbalance() < flat.imbalance()
        assert hybrid.total_gflops() > flat.total_gflops()

    def test_spmz_dips_at_768(self):
        """Fig. 11: SP-MZ drops at 768/1536 CPUs (4096 % 768 != 0)."""
        c = multinode(2)
        even = mz_gflops_per_cpu("sp-mz", "E", Placement(c, n_ranks=512, spread_nodes=True))
        dip = mz_gflops_per_cpu("sp-mz", "E", Placement(c, n_ranks=768, spread_nodes=True))
        recover = mz_gflops_per_cpu("sp-mz", "E", Placement(c, n_ranks=1024, spread_nodes=True))
        assert dip < 0.95 * even
        assert recover > dip

    def test_infiniband_close_to_numalink4_for_btmz(self):
        """§4.6.2: 'The InfiniBand results are only about 7% worse'."""
        nl = multinode(4, fabric="numalink4")
        ib = multinode(4, fabric="infiniband")
        r_nl = mz_gflops_per_cpu("bt-mz", "E", Placement(nl, n_ranks=1024, threads_per_rank=2, spread_nodes=True))
        r_ib = mz_gflops_per_cpu("bt-mz", "E", Placement(ib, n_ranks=1024, threads_per_rank=2, spread_nodes=True))
        assert 0.85 < r_ib / r_nl < 1.0

    def test_mpt_anomaly_hits_spmz_on_released_library(self):
        """§4.6.2: released MPT 40% slower at 256 CPUs over IB,
        improving with CPU count; beta library close to NL4.  The
        anomaly is a degraded mode — present only under the Columbia
        fault spec, never on a healthy machine."""
        def rate(mpt, cpus):
            c = multinode(4, fabric="infiniband", mpt=mpt)
            pl = Placement(c, n_ranks=cpus, spread_nodes=True)
            return mz_gflops_per_cpu("sp-mz", "E", pl)

        with use_faults(COLUMBIA_DEGRADED):
            rel_256 = rate(MPTVersion.MPT_1_11R, 256)
            beta_256 = rate(MPTVersion.MPT_1_11B, 256)
            assert rel_256 < 0.75 * beta_256  # ~40% slower
            # anomaly fades at larger counts
            rel_2048 = rate(MPTVersion.MPT_1_11R, 2048)
            beta_2048 = rate(MPTVersion.MPT_1_11B, 2048)
            assert rel_2048 / beta_2048 > rel_256 / beta_256
        # healthy machine: the released library behaves
        assert rate(MPTVersion.MPT_1_11R, 256) == pytest.approx(beta_256)

    def test_anomaly_does_not_hit_btmz(self):
        def rate(mpt):
            c = multinode(4, fabric="infiniband", mpt=mpt)
            pl = Placement(c, n_ranks=512, spread_nodes=True)
            return mz_gflops_per_cpu("bt-mz", "E", pl)

        # Even under the Columbia fault spec, BT-MZ sees nothing like
        # SP-MZ's 40% hit.
        with use_faults(COLUMBIA_DEGRADED):
            assert rate(MPTVersion.MPT_1_11R) == pytest.approx(
                rate(MPTVersion.MPT_1_11B), rel=0.03
            )

    def test_boot_cpuset_penalty_at_512(self):
        """§4.6.2: full-node 512-CPU runs drop 10-15%; 508 recovers.
        Another injected degraded mode (the paper's Columbia ran job
        CPUs inside the boot cpuset; a healthy config does not)."""
        with use_faults(COLUMBIA_DEGRADED):
            full = mz_gflops_per_cpu("bt-mz", "E", self.bx2b(n_ranks=512))
            reduced = mz_gflops_per_cpu("bt-mz", "E", self.bx2b(n_ranks=508))
        assert 1.05 < reduced / full < 1.20  # per-CPU rate 10-15% better at 508
        # healthy machine: 512 and 508 within the load-balance noise
        healthy_full = mz_gflops_per_cpu("bt-mz", "E", self.bx2b(n_ranks=512))
        assert healthy_full > full

    def test_pinning_matters_for_hybrid(self):
        """Fig. 7: hybrid runs suffer badly without pinning."""
        pinned = mz_gflops_per_cpu(
            "sp-mz", "C", self.bx2b(n_ranks=16, threads_per_rank=8)
        )
        unpinned = mz_gflops_per_cpu(
            "sp-mz", "C",
            self.bx2b(n_ranks=16, threads_per_rank=8, pinning=PinningMode.UNPINNED),
        )
        assert unpinned < 0.7 * pinned

    def test_pure_process_mode_less_pinning_sensitive(self):
        """Fig. 7: 64x1 is less influenced by pinning."""
        def ratio(threads):
            ranks = 64 // threads
            pinned = mz_gflops_per_cpu("sp-mz", "C", self.bx2b(n_ranks=ranks, threads_per_rank=threads))
            unpinned = mz_gflops_per_cpu(
                "sp-mz", "C",
                self.bx2b(n_ranks=ranks, threads_per_rank=threads, pinning=PinningMode.UNPINNED),
            )
            return pinned / unpinned

        assert ratio(1) < ratio(16)
