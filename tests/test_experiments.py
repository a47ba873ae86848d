"""Integration tests: every registered experiment runs and reproduces
the paper's shape claims end-to-end."""

import pytest

from repro.core import list_experiments, run_experiment
from repro.core.paper import paper_value
from repro.errors import ConfigurationError


class TestRegistry:
    def test_every_experiment_runs_fast(self):
        for eid, _ in list_experiments():
            result = run_experiment(eid, fast=True)
            assert result.rows, f"{eid} produced no rows"
            assert result.experiment_id == eid

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("table99")

    def test_format_renders(self):
        r = run_experiment("table1")
        text = r.format()
        assert "BX2b" in text and "NUMAlink4" in text

    def test_duplicate_id_with_different_declaration_raises(self):
        # Re-declaring the same experiment (module re-import) is a
        # no-op; a different declaration under a taken id is a bug.
        from repro.core.registry import EXPERIMENTS, experiment

        def sweep_a(fast=False):
            return []

        def sweep_b(fast=False):
            return []

        for fn, mod in ((sweep_a, "mod_a"), (sweep_b, "mod_b")):
            fn.__qualname__ = "scenarios"
            fn.__module__ = f"repro.core.experiments.{mod}"

        eid = "test_dup_guard"
        declared = dict(anchor="extension", title="first", heading="h",
                        columns=("a",), scenarios=sweep_a)
        try:
            spec = experiment(eid, **declared)
            assert experiment(eid, **declared) is spec
            for change in (dict(title="second"), dict(columns=("b",)),
                           dict(scenarios=sweep_b)):
                with pytest.raises(ConfigurationError,
                                   match="registered twice"):
                    experiment(eid, **{**declared, **change})
            assert EXPERIMENTS[eid] is spec
        finally:
            EXPERIMENTS.pop(eid, None)

    def test_chart_must_name_declared_columns(self):
        from repro.core.registry import EXPERIMENTS, experiment

        with pytest.raises(ConfigurationError, match="unknown columns"):
            experiment("test_bad_chart", anchor="extension", title="t",
                       heading="h", columns=("cpus", "rate"),
                       scenarios=lambda fast=False: [],
                       chart=("cpus", "rate", "kind", ()))
        assert "test_bad_chart" not in EXPERIMENTS

    def test_fig7_notes_name_the_class_c_step_count(self):
        from repro.core.registry import resolve_experiment
        from repro.npb.multizone import MZ_CLASSES

        notes = resolve_experiment("fig7").notes
        assert f"({MZ_CLASSES['C'].steps} steps)" in notes

    def test_result_accessors(self):
        r = run_experiment("table1")
        assert r.value("interconnect", node_type="3700") == "NUMAlink3"
        assert len(r.column("node_type")) == 3
        with pytest.raises(ConfigurationError):
            r.column("nonexistent")


class TestTable1:
    def test_matches_paper(self):
        r = run_experiment("table1")
        assert r.value("peak_tflops", node_type="3700") == pytest.approx(
            paper_value("table1", "peak_3700_tflops").value, rel=0.01
        )
        assert r.value("peak_tflops", node_type="BX2b") == pytest.approx(
            paper_value("table1", "peak_bx2b_tflops").value, rel=0.01
        )
        assert r.value("bandwidth_gb_s", node_type="BX2b") == 6.4


class TestSec411:
    def test_dgemm_bx2b_575(self):
        r = run_experiment("sec411_compute")
        d = r.value("dgemm_gflops", node_type="BX2b", setting="dense")
        assert d == pytest.approx(5.75, rel=0.01)

    def test_dgemm_6_percent_advantage(self):
        r = run_experiment("sec411_compute")
        d37 = r.value("dgemm_gflops", node_type="3700", setting="dense")
        dbx = r.value("dgemm_gflops", node_type="BX2b", setting="dense")
        assert dbx / d37 == pytest.approx(1.06, abs=0.02)

    def test_stream_3700_one_percent_better(self):
        r = run_experiment("sec411_compute")
        t37 = r.value("stream_triad", node_type="3700", setting="dense")
        tbx = r.value("stream_triad", node_type="BX2a", setting="dense")
        assert t37 / tbx == pytest.approx(1.01, abs=0.005)

    def test_internode_effect_below_half_percent(self):
        r = run_experiment("sec411_compute")
        local = r.value("dgemm_gflops", node_type="BX2b", setting="dense")
        remote = r.value("dgemm_gflops", node_type="BX2b", setting="internode")
        assert abs(local - remote) / local < 0.005
        assert r.value("stream_triad", node_type="BX2b", setting="internode") == r.value(
            "stream_triad", node_type="BX2b", setting="dense"
        )


class TestStride:
    def test_triad_1_9x_at_stride_2(self):
        r = run_experiment("sec42_stride", fast=True)
        dense = r.value("triad_gb_s", stride=1)
        strided = r.value("triad_gb_s", stride=2)
        assert strided / dense == pytest.approx(1.9, rel=0.02)

    def test_dgemm_under_half_percent(self):
        r = run_experiment("sec42_stride", fast=True)
        vals = r.column("dgemm_gflops")
        assert (max(vals) - min(vals)) / min(vals) < 0.005

    def test_pingpong_slightly_worse_spread_out(self):
        r = run_experiment("sec42_stride", fast=True)
        assert r.value("pingpong_lat_us", stride=2) >= r.value("pingpong_lat_us", stride=1)

    def test_natural_ring_bandwidth_unchanged(self):
        r = run_experiment("sec42_stride", fast=True)
        assert r.value("natring_bw_gb_s", stride=2) == pytest.approx(
            r.value("natring_bw_gb_s", stride=1), rel=0.02
        )


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig5", fast=True)

    def test_pingpong_latency_consistent_across_types(self, result):
        """§4.1.1: ping-pong latencies 'remarkably consistent'."""
        lats = [
            result.value("latency_us", node_type=nt, cpus=16, pattern="pingpong")
            for nt in ("3700", "BX2a", "BX2b")
        ]
        assert max(lats) / min(lats) < 1.6

    def test_random_ring_latency_grows_with_cpus(self, result):
        l4 = result.value("latency_us", node_type="3700", cpus=4, pattern="random_ring")
        l64 = result.value("latency_us", node_type="3700", cpus=64, pattern="random_ring")
        assert l64 > l4

    def test_bx2_better_at_high_counts(self, result):
        """§4.1.1: 'as processor counts increase, the interconnect
        network improvements in the BX2 take effect'."""
        l37 = result.value("latency_us", node_type="3700", cpus=64, pattern="random_ring")
        lbx = result.value("latency_us", node_type="BX2a", cpus=64, pattern="random_ring")
        assert lbx < l37

    def test_natural_ring_bw_tracks_processor_speed(self, result):
        """§4.1.1: natural ring bandwidth determined by CPU speed."""
        b37 = result.value("bandwidth_gb_s", node_type="3700", cpus=64, pattern="natural_ring")
        ba = result.value("bandwidth_gb_s", node_type="BX2a", cpus=64, pattern="natural_ring")
        bb = result.value("bandwidth_gb_s", node_type="BX2b", cpus=64, pattern="natural_ring")
        assert abs(ba - b37) / b37 < 0.1  # same clock -> close
        assert bb > ba  # faster clock -> faster ring


class TestTable2:
    def test_matches_paper_within_10_percent(self):
        r = run_experiment("table2")
        paper = {
            ("36x1", "t_3700_s"): 1223.0,
            ("36x2", "t_3700_s"): 796.0,
            ("36x4", "t_3700_s"): 554.2,
            ("36x8", "t_3700_s"): 454.7,
            ("36x1", "t_bx2b_s"): 825.2,
            ("36x4", "t_bx2b_s"): 331.8,
            ("36x14", "t_bx2b_s"): 247.6,
        }
        for (layout, col), expected in paper.items():
            got = r.value(col, layout=layout)
            assert got == pytest.approx(expected, rel=0.10), (layout, col)

    def test_serial_baselines_exact(self):
        r = run_experiment("table2")
        assert r.value("t_3700_s", layout="1x1") == pytest.approx(39230.0)
        assert r.value("t_bx2b_s", layout="1x1") == pytest.approx(26430.0)


class TestTable3:
    def test_shape(self):
        r = run_experiment("table3")
        eff_37 = {c: r.value("eff_3700", cpus=c) for c in (64, 128, 256, 508)}
        eff_bx = {c: r.value("eff_bx2b", cpus=c) for c in (64, 128, 256, 508)}
        # Good to 64, collapsing beyond; BX2b always well ahead.
        assert eff_37[64] > 0.7
        assert eff_37[508] < 0.13
        for c in (128, 256, 508):
            assert eff_bx[c] > 1.6 * eff_37[c]


class TestFig7:
    def test_pinning_gap_grows_with_threads(self):
        r = run_experiment("fig7", fast=True)

        def gap(threads):
            rows = r.select(total_cpus=64, threads_per_proc=threads)
            if not rows:
                return None
            _, _, pinned, unpinned = rows[0]
            return unpinned / pinned

        g1, g16 = gap(1), gap(16)
        assert g1 is not None and g16 is not None
        assert g16 > g1  # hybrid mode suffers more without pinning
        assert g16 > 1.5


class TestFig9:
    def test_mpi_scales_openmp_limited(self):
        r = run_experiment("fig9")
        # Fixed 1 thread: 16 -> 64 processes nearly linear.
        g16 = r.value("total_gflops", processes=16, threads=1)
        g64 = r.value("total_gflops", processes=64, threads=1)
        assert g64 > 3.3 * g16
        # Fixed 16 processes: 8 threads deliver << 8x.
        t1 = r.value("total_gflops", processes=16, threads=1)
        t8 = r.value("total_gflops", processes=16, threads=8)
        assert t8 / t1 < 5.0


class TestTable5:
    def test_weak_scaling(self):
        r = run_experiment("table5")
        assert r.value("particles", processors=2040) == 130_560_000
        assert r.value("efficiency", processors=2040) > 0.9
        times = r.column("time_per_step_s")
        assert max(times) / min(times) < 1.15  # flat


class TestTable6:
    def test_nl4_exec_better_ib_comm_lower(self):
        r = run_experiment("table6")
        for row in r.rows:
            nodes, cpus, nl_comm, nl_exec, ib_comm, ib_exec = row
            assert ib_exec > nl_exec  # NL4 ~10% better total
            assert ib_comm < nl_comm  # reversed comm timers (§4.6.4)
            assert ib_exec / nl_exec < 1.3


class TestAblations:
    def test_cache_ablation_isolates_mg_bt(self):
        r = run_experiment("ablation_cache", fast=True)
        mg_gain = r.value("cache_gain", benchmark="mg", cpus=64)
        cg_gain = r.value("cache_gain", benchmark="cg", cpus=64)
        assert mg_gain > 1.3  # cache-sensitive
        assert cg_gain < 1.15  # latency-bound, insensitive

    def test_clock_ablation_is_small(self):
        r = run_experiment("ablation_clock", fast=True)
        for g in r.column("clock_gain"):
            assert g < 1.08  # §4.1.2: clock impact generally small

    def test_grouping_ablation_binpack_wins(self):
        r = run_experiment("ablation_grouping", fast=True)
        for row in r.rows:
            _, conn, lpt, rr = row
            assert lpt <= rr  # size-aware packing beats round-robin

    def test_ibcards_matches_section2(self):
        r = run_experiment("ablation_ibcards")
        assert r.value("cards_8", nodes=3) == 512
        assert r.value("full_node_ok_with_8", nodes=3) is True
        assert r.value("full_node_ok_with_8", nodes=4) is False

    def test_shmem_beats_mpi_latency(self):
        r = run_experiment("ablation_shmem", fast=True)
        small = r.value("shmem_gain", message_bytes=1024)
        big = r.value("shmem_gain", message_bytes=65536)
        assert small > 1.1  # one-sided wins on small messages
        assert big < small  # bandwidth-bound messages converge
