"""The fault-injection layer: spec parsing, injector determinism,
degraded-mode pricing, and the DES drop/flap/straggler hooks."""

import pytest

import repro.core  # noqa: F401  (imported first: repro.run's harness half lives there)
from repro.errors import CommunicationError, ConfigurationError, SimulationError
from repro.faults import (
    BOOT_CPUSET_PENALTY,
    COLUMBIA_DEGRADED,
    BootCpuset,
    FaultInjector,
    FaultSpec,
    LinkDegradation,
    LinkFlap,
    MessageDrop,
    MptAnomaly,
    OsJitter,
    RouterFailover,
    Straggler,
    build_injector,
    current_injector,
    format_faults,
    parse_faults,
    use_faults,
)
from repro.machine.cluster import multinode, single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.run import Runner, scenario, workload


def _bx2b_pair():
    return Placement(single_node(NodeType.BX2B, n_cpus=8), n_ranks=2)


def _ring_prog(msgs, nbytes=1024.0, compute=1e-6):
    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for _ in range(msgs):
            comm.isend(right, nbytes)
            yield comm.irecv(source=left)
            yield comm.compute(compute)
    return prog


def _run_ring(placement, msgs=50):
    from repro.mpi import run_mpi

    return run_mpi(placement, _ring_prog(msgs)).elapsed


class TestSpecParsing:
    def test_round_trip(self):
        text = ("degrade:link_class=inter_node,latency_factor=2;"
                "drop:probability=0.05,timeout=50us;seed=3")
        spec = parse_faults(text)
        assert spec.seed == 3
        assert parse_faults(format_faults(spec)) == spec

    def test_duration_suffixes(self):
        spec = parse_faults("flap:period=1ms,down_time=100us")
        (flap,) = spec.faults
        assert flap.period == pytest.approx(1e-3)
        assert flap.down_time == pytest.approx(1e-4)

    def test_format_elides_defaults(self):
        assert format_faults(FaultSpec((MessageDrop(),))) == "drop"
        assert "seed" not in format_faults(FaultSpec((MessageDrop(),)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_faults("meteor:size=12")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_faults("drop:probabilty=0.1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_faults("drop:probability=1.5")
        with pytest.raises(ConfigurationError):
            parse_faults("degrade:link_class=warp")

    def test_straggler_needs_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            Straggler()
        with pytest.raises(ConfigurationError):
            Straggler(rank=0, node=1)
        assert parse_faults("straggler:rank=3").faults[0].rank == 3

    def test_spec_hashable_and_mergeable(self):
        a = FaultSpec((MessageDrop(probability=0.1),), seed=1)
        b = FaultSpec((OsJitter(amplitude=0.02),))
        assert hash(a) == hash(FaultSpec((MessageDrop(probability=0.1),), seed=1))
        merged = a.merge(b)
        assert merged.faults == a.faults + b.faults
        assert merged.seed == 1
        assert not FaultSpec()
        assert a

    def test_payload_round_trip(self):
        spec = parse_faults("failover:node=1,extra_hops=3;jitter:amplitude=0.1")
        assert FaultSpec.from_payload(spec.payload()) == spec


class TestScenarioIntegration:
    def test_empty_faults_leave_key_unchanged(self):
        plain = scenario("test.echo", x=1)
        assert plain.key() == scenario("test.echo", x=1, faults=FaultSpec()).key()
        assert plain.faults is None

    def test_faults_participate_in_key(self):
        plain = scenario("test.echo", x=1)
        faulted = scenario("test.echo", x=1, faults=COLUMBIA_DEGRADED)
        assert plain.key() != faulted.key()
        reseeded = scenario(
            "test.echo", x=1,
            faults=FaultSpec(COLUMBIA_DEGRADED.faults, seed=9),
        )
        assert faulted.key() != reseeded.key()

    def test_scenario_rejects_non_spec(self):
        with pytest.raises(ConfigurationError):
            scenario("test.echo", faults="drop")


class TestInjector:
    def test_same_spec_and_salt_draw_identically(self):
        spec = FaultSpec((OsJitter(amplitude=0.1),), seed=5)
        a = build_injector(spec, salt="cell").rng().random(8)
        b = build_injector(spec, salt="cell").rng().random(8)
        assert list(a) == list(b)

    def test_salt_separates_streams(self):
        spec = FaultSpec((OsJitter(amplitude=0.1),))
        a = build_injector(spec, salt="cell-a").rng().random(4)
        b = build_injector(spec, salt="cell-b").rng().random(4)
        assert list(a) != list(b)

    def test_context_manager_installs_and_restores(self):
        assert current_injector() is None
        with use_faults(COLUMBIA_DEGRADED) as inj:
            assert current_injector() is inj
            assert isinstance(inj, FaultInjector)
            with use_faults(None):
                assert current_injector() is None
            assert current_injector() is inj
        assert current_injector() is None

    def test_empty_spec_installs_nothing(self):
        with use_faults(FaultSpec()) as inj:
            assert inj is None
            assert current_injector() is None

    def test_context_is_per_thread(self):
        import threading

        inside, checked = threading.Event(), threading.Event()

        def faulted():
            with use_faults(COLUMBIA_DEGRADED):
                inside.set()
                checked.wait(timeout=30)

        thread = threading.Thread(target=faulted)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            seen = current_injector()
        finally:
            checked.set()
            thread.join(timeout=30)
        assert seen is None

    def test_drop_exhaustion_raises(self):
        inj = build_injector(
            FaultSpec((MessageDrop(probability=0.999, max_retries=2),))
        )
        with pytest.raises(CommunicationError):
            for _ in range(50):
                inj.send_plan(1024.0)
        assert inj.dropped_messages == 1


class TestPathFaults:
    def test_degrade_targets_link_class(self):
        cluster = multinode(2, fabric="numalink4", n_cpus=64)
        pl = Placement(cluster, n_ranks=128, spread_nodes=True)
        from repro.netmodel.costs import NetworkModel

        healthy = NetworkModel(pl)
        spec = FaultSpec(
            (LinkDegradation(link_class="inter_node", latency_factor=4.0,
                             bandwidth_factor=0.25),)
        )
        with use_faults(spec):
            faulted = NetworkModel(pl)
            # rank 0 -> node 0, rank 1 -> node 1 (spread round-robins)
            inter = faulted.path(0, 1)
            intra = faulted.path(0, 2)
        assert inter.latency == pytest.approx(4.0 * healthy.path(0, 1).latency)
        assert inter.bandwidth == pytest.approx(healthy.path(0, 1).bandwidth / 4)
        assert intra == healthy.path(0, 2)

    def test_failover_touches_only_the_node(self):
        cluster = multinode(2, fabric="numalink4", n_cpus=64)
        pl = Placement(cluster, n_ranks=128, spread_nodes=True)
        from repro.netmodel.costs import NetworkModel

        healthy = NetworkModel(pl)
        with use_faults(FaultSpec((RouterFailover(node=0, extra_hops=2),))):
            faulted = NetworkModel(pl)
            touched = faulted.path(0, 1)
        assert touched.latency > healthy.path(0, 1).latency

    def test_route_tables_keyed_by_injector(self):
        # A faulted model must never leak adjusted paths into a
        # healthy model of the same placement: the route table is
        # keyed on (placement content, static path-fault tuple).
        cluster = multinode(2, fabric="numalink4", n_cpus=64)
        pl = Placement(cluster, n_ranks=128, spread_nodes=True)
        from repro.netmodel.costs import NetworkModel

        spec = FaultSpec((LinkDegradation(link_class="any", latency_factor=10.0),))
        with use_faults(spec):
            faulted_lat = NetworkModel(pl).path(0, 1).latency
        healthy_lat = NetworkModel(pl).path(0, 1).latency
        assert faulted_lat == pytest.approx(10.0 * healthy_lat)

    def test_different_degradations_do_not_share_a_route_table(self):
        from repro.netmodel.costs import NetworkModel

        cluster = multinode(2, fabric="numalink4", n_cpus=64)
        models = []
        for factor in (2.0, 3.0):
            spec = FaultSpec((LinkDegradation(link_class="inter_node",
                                              latency_factor=factor),))
            with use_faults(spec):
                # a separately built, equal placement each time
                pl = Placement(cluster, n_ranks=128, spread_nodes=True)
                models.append(NetworkModel(pl))
        twice, thrice = models
        assert twice._table is not thrice._table
        assert twice.stats() != thrice.stats()
        assert thrice.path(0, 1).latency > twice.path(0, 1).latency

    def test_equal_degradations_share_a_route_table(self):
        # Path faults are keyed by content, not by injector: two cells
        # (two injectors, different salts) with the same static faults
        # price the same paths once.
        from repro.netmodel.costs import NetworkModel

        cluster = multinode(2, fabric="numalink4", n_cpus=64)
        spec = FaultSpec((LinkDegradation(link_class="inter_node",
                                          latency_factor=5.0),))
        models = []
        for salt in ("cell-a", "cell-b"):
            with use_faults(spec, salt=salt):
                pl = Placement(cluster, n_ranks=128, spread_nodes=True)
                models.append(NetworkModel(pl))
        assert models[0]._table is models[1]._table
        assert models[0].stats() is models[1].stats()


class TestDegradedModes:
    def test_boot_cpuset_penalty_requires_injector(self):
        full = Placement(single_node(NodeType.BX2B), n_ranks=512)
        assert full.uses_boot_cpuset()
        assert full.boot_cpuset_penalty() == 1.0
        with use_faults(COLUMBIA_DEGRADED):
            assert full.boot_cpuset_penalty() == BOOT_CPUSET_PENALTY
        reduced = Placement(single_node(NodeType.BX2B), n_ranks=508)
        with use_faults(COLUMBIA_DEGRADED):
            assert reduced.boot_cpuset_penalty() == 1.0

    def test_columbia_spec_contents(self):
        kinds = {f.kind for f in COLUMBIA_DEGRADED.faults}
        assert kinds == {"boot_cpuset", "mpt_anomaly"}
        (anomaly,) = [f for f in COLUMBIA_DEGRADED.faults
                      if isinstance(f, MptAnomaly)]
        assert anomaly.step_excess(256) == pytest.approx(0.40)
        assert anomaly.step_excess(1024) == pytest.approx(0.10)


class TestDESFaults:
    def test_healthy_world_normalizes_to_none(self):
        from repro.mpi.comm import MPIWorld
        from repro.netmodel.costs import NetworkModel
        from repro.sim.engine import Simulator

        w = MPIWorld(Simulator(), NetworkModel(_bx2b_pair()))
        assert w._faults is None
        # Path-only faults stay off the DES hot path too.
        with use_faults(FaultSpec((LinkDegradation(latency_factor=2.0),))):
            w = MPIWorld(Simulator(), NetworkModel(_bx2b_pair()))
        assert w._faults is None

    def test_drops_slow_the_ring_and_are_deterministic(self):
        pl = _bx2b_pair()
        healthy = _run_ring(pl)
        spec = FaultSpec((MessageDrop(probability=0.2),), seed=7)
        elapsed = []
        for _ in range(2):
            with use_faults(spec, salt="cell") as inj:
                elapsed.append(_run_ring(pl))
                assert inj.retries > 0
        assert elapsed[0] == elapsed[1]
        assert elapsed[0] > healthy

    def test_straggler_slows_its_rank(self):
        pl = _bx2b_pair()
        healthy = _run_ring(pl)
        with use_faults(FaultSpec((Straggler(rank=0, factor=5.0),))):
            slowed = _run_ring(pl)
        assert slowed > healthy

    def test_jitter_stretches_compute(self):
        pl = _bx2b_pair()
        healthy = _run_ring(pl)
        with use_faults(FaultSpec((OsJitter(amplitude=0.5),), seed=3)):
            noisy = _run_ring(pl)
        assert noisy > healthy

    def test_flap_slows_affected_windows(self):
        pl = _bx2b_pair()
        healthy = _run_ring(pl)
        flap = LinkFlap(link_class="any", period=1e-5, down_time=5e-6,
                        latency_factor=50.0)
        with use_faults(FaultSpec((flap,))):
            flapped = _run_ring(pl)
        assert flapped > healthy

    def test_faulted_beff_rows_repeat_per_seed(self):
        """Under DES faults the rings of one b_eff pattern call share one
        barrier realization; the rows stay a pure function of the seed."""
        from repro.core.experiments import fig10

        cells = [c for c in fig10.scenarios(fast=True)
                 if dict(c.params)["cpus"] == 64][:3]
        spec = parse_faults("drop:probability=0.01;seed=1")
        healthy = Runner(jobs=1).run(cells)
        runs = [Runner(jobs=1, faults=spec).run(cells) for _ in range(2)]
        assert all(r.ok for run in runs for r in run)
        assert [r.rows for r in runs[0]] == [r.rows for r in runs[1]]
        assert [r.rows for r in runs[0]] != [r.rows for r in healthy]

    def test_des_faulted_ring_runs_its_own_barrier_each_call(self, monkeypatch):
        """The shared barrier memo is for healthy and static-path-fault
        contexts only: under DES faults every pattern call draws its
        own barrier realization, as it did before the memo existed."""
        import repro.hpcc.beff as beff
        from repro.memo import clear_memos

        runs, built, worlds = [], [], []
        real = beff._run_barrier
        monkeypatch.setattr(
            beff, "_run_barrier", lambda pl: runs.append(pl) or real(pl))
        recurrence = beff._barrier_recurrence
        monkeypatch.setattr(
            beff, "_barrier_recurrence",
            lambda net: built.append(net) or recurrence(net))
        run_mpi = beff.run_mpi
        monkeypatch.setattr(
            beff, "run_mpi", lambda *a, **kw: worlds.append(a) or run_mpi(*a, **kw))
        pl = Placement(single_node(NodeType.BX2B, n_cpus=16), n_ranks=8)
        clear_memos()
        spec = FaultSpec((MessageDrop(probability=0.2),), seed=1)
        with use_faults(spec, salt="ring"):
            beff.natural_ring(pl)
            beff.natural_ring(pl)
            beff.random_ring(pl, trials=1)
        assert len(runs) == 3
        assert not built
        # Healthy: one barrier recurrence for both patterns and every
        # repeat, and no DES world for the barrier or the rings.
        worlds.clear()
        beff.natural_ring(pl)
        beff.random_ring(pl, trials=1)
        beff.natural_ring(Placement(pl.cluster, n_ranks=8))
        assert len(runs) == 3
        assert len(built) == 1
        assert worlds == []

    def test_traced_ring_runs_its_own_barrier(self, monkeypatch):
        # A cell's trace must show its own barrier, whatever ran before.
        import repro.hpcc.beff as beff
        from repro.obs.spans import Tracer, use_tracer

        runs = []
        real = beff._run_barrier
        monkeypatch.setattr(
            beff, "_run_barrier", lambda pl: runs.append(pl) or real(pl))
        pl = Placement(single_node(NodeType.BX2B, n_cpus=16), n_ranks=8)
        beff.natural_ring(pl)
        before = len(runs)
        for _ in range(2):
            tracer = Tracer()
            with use_tracer(tracer):
                beff.natural_ring(pl)
            assert any(s.name == "barrier" for s in tracer.spans)
        assert len(runs) == before + 2

    def test_retry_spans_and_counter_recorded(self):
        from repro.mpi import run_mpi
        from repro.obs.spans import Tracer, use_tracer

        pl = _bx2b_pair()
        spec = FaultSpec((MessageDrop(probability=0.3),), seed=1)
        tracer = Tracer()
        with use_faults(spec, salt="traced") as inj, use_tracer(tracer):
            run_mpi(pl, _ring_prog(50))
        retry_spans = [s for s in tracer.spans if s.cat == "retry"]
        assert len(retry_spans) == inj.retries > 0
        assert "mpi.retries" in tracer.counters.names()

    def test_exhausted_drop_fails_the_cell(self):
        (record,) = Runner(jobs=1).run([
            scenario(
                "test.faulty_ring", msgs=60,
                faults=FaultSpec(
                    (MessageDrop(probability=0.999, max_retries=1),)
                ),
            )
        ])
        assert not record.ok
        assert "CommunicationError" in record.error


class TestTimeoutClamp:
    def test_tiny_negative_delay_clamps(self):
        from repro.sim.engine import Simulator
        from repro.sim.process import Timeout

        import sys

        sim = Simulator()
        sim.schedule(1000.0, lambda: None)
        sim.run()
        # A duration reconstructed as the difference of two nearby
        # timestamps can land a few ulps below zero.
        t = Timeout(sim, -2.0 * sys.float_info.epsilon * sim.now)
        assert not t.triggered

    def test_genuinely_negative_delay_raises(self):
        from repro.sim.engine import Simulator
        from repro.sim.process import Timeout

        sim = Simulator()
        with pytest.raises(SimulationError):
            Timeout(sim, -1.0)


@workload("test.faulty_ring")
def _faulty_ring_cell(msgs=50):
    """A DES ring under the ambient fault context, reporting enough
    internals (elapsed, retries, span count) that bit-identity between
    sequential and parallel sweeps is checked end to end."""
    from repro.mpi import run_mpi
    from repro.obs.spans import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        job = run_mpi(_bx2b_pair(), _ring_prog(msgs))
    inj = current_injector()
    return [(job.elapsed, len(tracer.spans), inj.retries if inj else -1)]


class TestDeterminismAcrossBackends:
    def test_sequential_matches_parallel_bit_for_bit(self):
        spec = FaultSpec(
            (MessageDrop(probability=0.1), OsJitter(amplitude=0.05)), seed=11
        )
        cells = [
            scenario("test.faulty_ring", msgs=m, faults=spec)
            for m in (20, 35, 50)
        ]
        seq = Runner(jobs=1).run(cells)
        par = Runner(jobs="auto").run(cells)
        assert all(r.ok for r in seq + par)
        # Rows carry the elapsed float, the span count, and the retry
        # count: bit-identical rows mean the fault stream, the spans,
        # and the timing all matched.
        assert [r.rows for r in seq] == [r.rows for r in par]
