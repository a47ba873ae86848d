"""Tests for placement, pinning, stride, compilers and InfiniBand limits."""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import CommunicationError, ConfigurationError
from repro.machine.cluster import multinode, single_node
from repro.machine.compilers import COMPILER_CODES, Compiler, compiler_factor
from repro.machine.infiniband import INFINIBAND, max_mpi_procs_per_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement, PinningMode, unpinned_penalty


def bx2b(n_cpus=512):
    return single_node(NodeType.BX2B, n_cpus)


class TestPlacement:
    def test_dense_layout(self):
        pl = Placement(bx2b(), n_ranks=8, threads_per_rank=4)
        assert pl.cpu_of(0, 0) == 0
        assert pl.cpu_of(0, 3) == 3
        assert pl.cpu_of(1, 0) == 4
        assert pl.total_cpus == 32

    def test_strided_layout(self):
        pl = Placement(bx2b(), n_ranks=4, stride=2)
        assert pl.cpus() == [0, 2, 4, 6]
        assert pl.total_cpus_used == 7

    def test_stride_frees_the_fsb(self):
        # §4.2: stride 2 gives each active CPU a private memory bus.
        dense = Placement(bx2b(), n_ranks=8)
        strided = Placement(bx2b(), n_ranks=8, stride=2)
        assert dense.active_per_fsb() == 2
        assert strided.active_per_fsb() == 1

    def test_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            Placement(bx2b(64), n_ranks=65)
        with pytest.raises(ConfigurationError):
            Placement(bx2b(64), n_ranks=33, stride=2)

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            Placement(bx2b(), n_ranks=0)
        with pytest.raises(ConfigurationError):
            Placement(bx2b(), n_ranks=1, threads_per_rank=0)
        with pytest.raises(ConfigurationError):
            Placement(bx2b(), n_ranks=1, stride=0)

    def test_rank_bounds_checked(self):
        pl = Placement(bx2b(), n_ranks=4)
        with pytest.raises(ConfigurationError):
            pl.cpu_of(4)
        with pytest.raises(ConfigurationError):
            pl.cpu_of(0, 1)

    def test_multinode_spill(self):
        c = multinode(2, n_cpus=64)
        pl = Placement(c, n_ranks=96)
        assert pl.n_nodes_used() == 2
        assert pl.ranks_per_node() == 64

    @given(
        n_ranks=st.integers(1, 64),
        threads=st.integers(1, 4),
        stride=st.integers(1, 4),
    )
    def test_no_two_slots_collide(self, n_ranks, threads, stride):
        if n_ranks * threads * stride > 512:
            return
        pl = Placement(bx2b(), n_ranks=n_ranks, threads_per_rank=threads, stride=stride)
        cpus = pl.cpus()
        assert len(set(cpus)) == len(cpus)
        assert all(0 <= c < 512 for c in cpus)


def _reference_home_cpus(pl):
    """Every rank's thread-0 CPU through the validated ``cpu_of``: the
    oracle for the closed-form content key."""
    return tuple(pl.cpu_of(r) for r in range(pl.n_ranks))


def _outcome(fn, pl):
    try:
        return fn(pl)
    except ConfigurationError as exc:
        return ("error", str(exc))


class TestClosedFormHomeCpus:
    @given(
        n_nodes=st.integers(1, 4),
        node_cpus=st.sampled_from([8, 16, 64]),
        n_ranks=st.integers(1, 80),
        threads=st.integers(1, 4),
        stride=st.integers(1, 4),
        spread=st.booleans(),
        pinned=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_packed_strided_spread_threaded(self, n_nodes, node_cpus, n_ranks,
                                            threads, stride, spread, pinned):
        cluster = (bx2b(node_cpus) if n_nodes == 1
                   else multinode(n_nodes, n_cpus=node_cpus))
        try:
            pl = Placement(cluster, n_ranks=n_ranks, threads_per_rank=threads,
                           stride=stride, spread_nodes=spread,
                           pinning=PinningMode.PINNED if pinned else PinningMode.UNPINNED)
        except ConfigurationError:
            assume(False)
        assert pl._home_cpus() == _reference_home_cpus(pl)
        assert pl.content_key.cpus == _reference_home_cpus(pl)

    @given(
        n_nodes=st.integers(1, 3),
        threads=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_cpu_list(self, n_nodes, threads, data):
        cluster = bx2b(16) if n_nodes == 1 else multinode(n_nodes, n_cpus=16)
        n_ranks = data.draw(st.integers(1, cluster.total_cpus // threads))
        cpus = data.draw(st.permutations(range(cluster.total_cpus)))
        pl = Placement(cluster, n_ranks=n_ranks, threads_per_rank=threads,
                       cpu_list=tuple(cpus[: n_ranks * threads]))
        assert pl._home_cpus() == _reference_home_cpus(pl)

    @pytest.mark.parametrize("n_ranks,threads,stride", [
        (17, 1, 1), (9, 2, 1), (7, 1, 3), (12, 3, 2),
    ])
    def test_rank_that_does_not_fit_raises_as_cpu_of(self, n_ranks, threads, stride):
        # A validated placement always fits (it needs no more slots
        # than the cluster has), so build one past __post_init__.
        fits = Placement(multinode(2, n_cpus=8), n_ranks=1, spread_nodes=True)
        pl = object.__new__(Placement)
        for f in dataclasses.fields(Placement):
            object.__setattr__(pl, f.name, getattr(fits, f.name))
        object.__setattr__(pl, "n_ranks", n_ranks)
        object.__setattr__(pl, "threads_per_rank", threads)
        object.__setattr__(pl, "stride", stride)
        expected = _outcome(_reference_home_cpus, pl)
        assert expected[0] == "error"
        assert _outcome(Placement._home_cpus, pl) == expected


class TestPinning:
    def test_pinned_has_no_penalty(self):
        pl = Placement(bx2b(), n_ranks=8, threads_per_rank=8)
        assert pl.locality_penalty() == 1.0

    def test_unpinned_hybrid_pays(self):
        pl = Placement(
            bx2b(), n_ranks=8, threads_per_rank=8, pinning=PinningMode.UNPINNED
        )
        assert pl.locality_penalty() > 1.3

    def test_penalty_grows_with_threads(self):
        # Fig. 7: pinning matters most when processes spawn many threads.
        def penalty(threads):
            return Placement(
                bx2b(),
                n_ranks=64 // threads,
                threads_per_rank=threads,
                pinning=PinningMode.UNPINNED,
            ).locality_penalty()

        assert penalty(1) < penalty(4) < penalty(16) < penalty(64)

    def test_penalty_grows_with_total_cpus(self):
        # Fig. 7: "the impact becomes even more profound as the number
        # of CPUs increases".
        def penalty(total):
            return Placement(
                bx2b(),
                n_ranks=total // 8,
                threads_per_rank=8,
                pinning=PinningMode.UNPINNED,
            ).locality_penalty()

        assert penalty(64) < penalty(128) < penalty(256)

    def test_pure_process_mode_least_affected(self):
        # Fig. 7: "Pure process mode (e.g. 64x1) is less influenced".
        hybrid = Placement(
            bx2b(), n_ranks=8, threads_per_rank=8, pinning=PinningMode.UNPINNED
        )
        pure = Placement(
            bx2b(), n_ranks=64, threads_per_rank=1, pinning=PinningMode.UNPINNED
        )
        assert pure.locality_penalty() < hybrid.locality_penalty()

    @given(threads=st.integers(1, 128), total=st.integers(2, 2048))
    def test_unpinned_penalty_bounded(self, threads, total):
        p = unpinned_penalty(threads, total)
        assert 1.0 <= p < 10.0


class TestCompilers:
    def test_all_codes_have_factors(self):
        for code in COMPILER_CODES:
            for comp in Compiler:
                f = compiler_factor(comp, code, 16)
                assert 0.4 < f < 1.5

    def test_unknown_code_rejected(self):
        with pytest.raises(ConfigurationError):
            compiler_factor(Compiler.V7_1, "nonsense")

    def test_cg_insensitive(self):
        # §4.4: "All the compilers gave similar results on the CG".
        factors = [compiler_factor(c, "cg", 32) for c in Compiler]
        assert max(factors) - min(factors) < 0.05

    def test_ft_likes_90beta(self):
        # §4.4: "The beta version of 9.0 performed very well on FT".
        assert compiler_factor(Compiler.V9_0B, "ft", 32) > compiler_factor(
            Compiler.V7_1, "ft", 32
        )

    def test_80_is_usually_worst(self):
        for code in ("ft", "bt"):
            worst = min(Compiler, key=lambda c: compiler_factor(c, code, 32))
            assert worst is Compiler.V8_0

    def test_mg_crossover_with_threads(self):
        # §4.4: below 32 threads 7.1 is 20-30% better; between 32 and
        # 128, 8.1/9.0b outperform.
        assert compiler_factor(Compiler.V7_1, "mg", 16) > compiler_factor(
            Compiler.V8_1, "mg", 16
        )
        assert compiler_factor(Compiler.V8_1, "mg", 64) > compiler_factor(
            Compiler.V7_1, "mg", 64
        )
        # "The scaling also turns around above 128 threads."
        assert compiler_factor(Compiler.V7_1, "mg", 256) > compiler_factor(
            Compiler.V8_1, "mg", 256
        )

    def test_ins3d_negligible_difference(self):
        # Table 4.
        f71 = compiler_factor(Compiler.V7_1, "ins3d", 36)
        f81 = compiler_factor(Compiler.V8_1, "ins3d", 36)
        assert abs(f71 - f81) < 0.02

    def test_overflow_71_beats_81_at_small_counts(self):
        # Table 4: 20-40% below 64 processors, identical above.
        small = compiler_factor(Compiler.V8_1, "overflow", 8)
        large = compiler_factor(Compiler.V8_1, "overflow", 128)
        assert small < 0.85  # 7.1 wins by >= 20%
        assert large > 0.98


class TestInfiniBandLimits:
    def test_paper_formula_values(self):
        # §2 with N_cards=8, N_connections=64K.
        assert max_mpi_procs_per_node(2) == 724
        assert max_mpi_procs_per_node(3) == 512
        assert max_mpi_procs_per_node(4) == 418

    def test_pure_mpi_ok_up_to_three_nodes(self):
        # §2: "a pure MPI code can only fully utilize up to three
        # Altix nodes".
        INFINIBAND.check_pure_mpi(3, 512)
        with pytest.raises(CommunicationError):
            INFINIBAND.check_pure_mpi(4, 512)

    def test_hybrid_fits_on_four_nodes(self):
        INFINIBAND.check_pure_mpi(4, 256)  # 256 procs x 2 threads

    def test_single_node_unconstrained(self):
        INFINIBAND.check_pure_mpi(1, 512)

    def test_bad_node_count_rejected(self):
        with pytest.raises(ConfigurationError):
            max_mpi_procs_per_node(1)
