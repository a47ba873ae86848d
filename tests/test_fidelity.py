"""Fidelity tiers end to end: Scenario field, surrogate parity,
Runner dispatch/escalation, and the serve inline fast path.

The parity classes pin the tentpole's correctness claims:

* analytic collective *counters* match the DES exactly
  (``expected_messages`` / ``expected_volume`` vs the simulator's own
  ``messages_sent`` / ``bytes_sent``) — the exactness PR 1 claimed;
* exact-passthrough surrogates return rows identical to the full
  path (that is what ``exact`` means);
* the one modeled surrogate (ext_noise) stays within the committed
  calibrated bound.

The dispatch classes pin the behavioral contract: all-analytic
sweeps never build a process pool, unservable cells escalate (flagged)
or are refused per policy, and the serve tier resolves analytic
requests inline without coalescing them onto full-fidelity twins.
"""

from __future__ import annotations

import asyncio

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.machine.cluster import single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.mpi import run_mpi
from repro.mpi.collectives import (
    allgather,
    allreduce,
    alltoall,
    barrier,
    broadcast,
    expected_messages,
    expected_volume,
    gather,
    reduce,
    scan,
    scatter,
)
from repro.run import ResultCache, Runner, execute_scenario, scenario, sweep, workload
from repro.run.scenario import Fidelity, MachineSpec
from repro.run.workloads import fast_form
from repro.serve import (
    BackgroundServer,
    ScenarioService,
    ServeClient,
    scenario_from_wire,
    scenario_to_wire,
)
from repro.surrogate import ErrorTable, default_error_table, family_of
from repro.surrogate.calibrate import (
    FamilyError,
    _current_context,
    permit_scenario,
    relative_error,
)


@workload("fid_test.plain")
def _plain_cell(x: int = 0) -> list[tuple]:
    """A workload with *no* fast form: every non-full request for it
    must escalate or be refused."""
    return [(x, x + 1)]


def _zoo_model(mode: str, x: int = 0, **machine) -> list[tuple]:
    return [(x, mode)]


@workload("fid_test.zoo", fast=_zoo_model)
def _zoo_cell(cluster, x: int = 0) -> list[tuple]:
    """A modeled workload on a zoo machine; the second column says
    which form ran."""
    return [(x, "full")]


@workload("fid_test.salted", fast=_zoo_model)
def _salted_cell(x: int = 0) -> list[tuple]:
    """Reports the fault salt it ran under (the scenario key)."""
    from repro.faults.context import current_injector

    return [(x, current_injector().salt)]


def _zoo(config: str, fid: str = "analytic"):
    return scenario(
        "fid_test.zoo", x=1, machine=MachineSpec(config=config), fidelity=fid
    )


def _columbia_only_table() -> ErrorTable:
    """A fresh table that vouches for ``fid_test`` on Columbia only."""
    key = ("fid_test@columbia", "analytic")
    return ErrorTable(
        context=_current_context(),
        entries={key: FamilyError(*key, rel_err=0.1, cells=1)},
    )


def _fig9(fid: str = "full", processes: int = 16, threads: int = 1):
    return scenario(
        "fig9.cell", processes=processes, threads=threads, fidelity=fid
    )


def _ext_noise(fid: str = "full", ranks: int = 8):
    # Same parameter point the fast calibration sweep measures.
    return scenario(
        "ext_noise.cell", ranks=ranks, noise=0.25, n_seeds=2, fidelity=fid
    )


# -- the frozen field ---------------------------------------------------------


class TestFidelityField:
    def test_default_full_key_unchanged(self):
        """``fidelity="full"`` is the absent-field spelling: the cache
        key (and hence every cached PR 6 result) is byte-identical."""
        assert _fig9().fidelity == "full"
        assert _fig9().key() == _fig9("full").key()

    def test_non_default_fidelity_joins_the_key(self):
        keys = {_fig9(f).key() for f in ("full", "analytic", "hybrid")}
        assert len(keys) == 3

    def test_enum_and_string_spellings_agree(self):
        assert _fig9(Fidelity.ANALYTIC) == _fig9("analytic")
        assert _fig9(Fidelity.ANALYTIC).fidelity == "analytic"

    def test_describe_marks_non_default_tier(self):
        assert "[analytic]" in _fig9("analytic").describe()
        assert "[" not in _fig9().describe().split("(")[0]

    def test_invalid_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario("fig9.cell", processes=16, threads=1, fidelity="fast")

    def test_wire_back_compat(self):
        """Full-fidelity wire forms carry no ``fidelity`` key (old
        servers decode them unchanged); non-default tiers round-trip
        with the content hash intact."""
        assert "fidelity" not in scenario_to_wire(_fig9())
        wire = scenario_to_wire(_fig9("analytic"))
        assert wire["fidelity"] == "analytic"
        back = scenario_from_wire(wire)
        assert back.fidelity == "analytic"
        assert back.key() == _fig9("analytic").key()


# -- analytic counters vs DES counters: exact ---------------------------------

_COLLECTIVE_OPS = (
    "barrier", "broadcast", "allreduce", "reduce", "gather",
    "scatter", "allgather", "alltoall", "scan",
)


def _des_counters(op: str, p: int, nbytes: float = 512):
    builders = {
        "barrier": lambda comm: barrier(comm),
        "broadcast": lambda comm: broadcast(comm, nbytes, 0, None),
        "allreduce": lambda comm: allreduce(comm, nbytes, 1.0),
        "reduce": lambda comm: reduce(comm, nbytes, 1.0, 0),
        "gather": lambda comm: gather(comm, nbytes, 1, 0),
        "scatter": lambda comm: scatter(comm, nbytes, list(range(comm.size)), 0),
        "allgather": lambda comm: allgather(comm, nbytes, 1),
        "alltoall": lambda comm: alltoall(comm, nbytes),
        "scan": lambda comm: scan(comm, nbytes, 1.0),
    }

    def prog(comm):
        yield from builders[op](comm)
        return None

    placement = Placement(single_node(NodeType.BX2B), n_ranks=p)
    return run_mpi(placement, prog)


class TestCounterParity:
    """Where PR 1 claimed exactness, demand exactness: the closed
    forms must match the simulator's message/byte counters to the
    integer, for every op, at arbitrary rank counts."""

    @settings(max_examples=30, deadline=None)
    @given(
        op=st.sampled_from(_COLLECTIVE_OPS),
        p=st.integers(min_value=2, max_value=40),
    )
    def test_expected_messages_matches_des_exactly(self, op, p):
        result = _des_counters(op, p)
        assert result.messages_sent == expected_messages(op, p)

    @settings(max_examples=15, deadline=None)
    @given(
        op=st.sampled_from(["broadcast", "allreduce", "alltoall", "scan"]),
        p=st.integers(min_value=2, max_value=24),
        nbytes=st.sampled_from([8, 512, 4096]),
    )
    def test_expected_volume_matches_des_exactly(self, op, p, nbytes):
        result = _des_counters(op, p, nbytes)
        assert result.bytes_sent == pytest.approx(
            expected_volume(op, p, nbytes)
        )

    def test_one_rank_moves_nothing(self):
        for op in _COLLECTIVE_OPS:
            assert expected_messages(op, 1) == 0


# -- surrogate parity ---------------------------------------------------------


class TestSurrogateParity:
    def test_exact_passthrough_rows_identical(self):
        """Closed-form workloads: the analytic tier *is* the full
        path (no DES anywhere), so rows must be equal, not close."""
        full = execute_scenario(_fig9())
        for fid in ("analytic", "hybrid"):
            assert execute_scenario(_fig9(fid)) == full

    def test_committed_table_is_fresh_and_covers_ext_noise(self):
        table = default_error_table()
        assert table is not None, "committed calibration.json missing"
        assert not table.stale
        for mode in ("analytic", "hybrid"):
            assert table.permits("ext_noise", mode)
            entry = table.lookup("ext_noise", mode)
            assert not entry.exact
            assert 0.0 < entry.rel_err <= table.bound

    def test_modeled_surrogate_within_calibrated_bound(self):
        """The one genuinely modeled family: closed-form noise
        amplification vs the DES, at the calibrated parameter point."""
        table = default_error_table()
        full = execute_scenario(_ext_noise())
        for mode in ("analytic", "hybrid"):
            fast = execute_scenario(_ext_noise(mode))
            err = relative_error(full, fast)
            assert err <= table.bound
        # Hybrid executes the actual noise draws, so it sits much
        # closer to the DES than the expectation-based analytic tier.
        hybrid_err = relative_error(full, execute_scenario(_ext_noise("hybrid")))
        assert hybrid_err < 0.05

    @pytest.mark.parametrize("noise,n_seeds", [
        (0.25, 0), (0.25, -1), (float("nan"), 2), (float("inf"), 2), (-0.5, 2),
    ])
    def test_both_tiers_reject_a_cell_they_cannot_average(self, noise, n_seeds):
        """No seeds to average, or a noise amplitude no world can run:
        the full tier and both fast tiers raise the same error rather
        than one of them returning a row."""

        def cell(fid):
            return scenario("ext_noise.cell", ranks=8, noise=noise,
                            n_seeds=n_seeds, fidelity=fid)

        with pytest.raises(ConfigurationError, match="ext_noise"):
            execute_scenario(cell("full"))
        for mode in ("analytic", "hybrid"):
            with pytest.raises(ConfigurationError, match="ext_noise"):
                execute_scenario(cell(mode))

    def test_exact_families_calibrate_to_zero(self):
        table = default_error_table()
        for (family, mode), entry in table.entries.items():
            if entry.exact:
                assert entry.rel_err == 0.0, (family, mode)

    def test_no_surrogate_raises_unavailable(self):
        """A non-full cell of a workload that declared no fast form
        has nothing to run: the executor raises rather than quietly
        running the full path under a non-full key."""
        with pytest.raises(ConfigurationError, match="no surrogate declared"):
            execute_scenario(
                scenario("fid_test.plain", x=1, fidelity="analytic"))

    def test_family_of(self):
        assert family_of("ext_noise.cell") == "ext_noise"
        assert family_of("table4.ins3d") == "table4"
        assert family_of("plain") == "plain"

    def test_relative_error_shape_mismatch_is_inf(self):
        assert relative_error([(1, 2)], [(1, 2), (3, 4)]) == float("inf")
        assert relative_error([(1, "a")], [(1, "b")]) == float("inf")
        assert relative_error([(1.0, 2.0)], [(1.0, 2.2)]) == pytest.approx(0.1)

    def test_relative_error_nan_on_one_side_is_inf(self):
        """A fast form that returns NaN must not calibrate as exact."""
        nan, inf = float("nan"), float("inf")
        assert relative_error([(1.0,)], [(nan,)]) == inf
        assert relative_error([(nan,)], [(1.0,)]) == inf
        assert relative_error([(nan, 1.0)], [(nan, 1.0)]) == 0.0
        assert relative_error([(inf,)], [(inf,)]) == 0.0
        assert relative_error([(inf,)], [(1.0,)]) == inf
        assert relative_error([(1.0,)], [(inf,)]) == inf

    def test_nan_entry_is_refused_by_the_one_predicate(self):
        """``permit_scenario`` and ``ErrorTable.permits`` agree: a NaN
        error vouches for nothing."""
        table = ErrorTable(
            context=_current_context(),
            entries={("ext_noise", "analytic"): FamilyError(
                "ext_noise", "analytic", rel_err=float("nan"), cells=1)},
        )
        assert not table.permits("ext_noise", "analytic")
        permitted, reason = permit_scenario(_ext_noise("analytic"), table)
        assert not permitted
        assert "exceeds the bound" in reason


# -- Runner dispatch ----------------------------------------------------------


class TestRunnerDispatch:
    def test_analytic_sweep_matches_full_rows(self):
        cells = sweep("fig9.cell", {"processes": [4, 16], "threads": [1]})
        fast = Runner(jobs=1, cache=None, fidelity="analytic")
        full = Runner(jobs=1, cache=None)
        fast_records = fast.run(cells)
        full_records = full.run(cells)
        assert [r.rows for r in fast_records] == [r.rows for r in full_records]
        assert fast.stats.fast == 2 and fast.stats.escalated == 0
        assert all(not r.escalated for r in fast_records)
        assert fast.snapshot()["runner.fast"] == 2

    def test_all_analytic_sweep_never_builds_a_pool(self, monkeypatch):
        """Satellite 1: with jobs>1 and every cell non-full, worker
        processes must never spin up — the fast path is in-process."""

        import repro.run.runner as runner_mod

        def boom(*args, **kwargs):  # pragma: no cover - the assertion *is* the test
            raise AssertionError("process pool built for an analytic sweep")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", boom)
        runner = Runner(jobs=4, cache=None, fidelity="analytic")
        cells = sweep("fig9.cell", {"processes": [4, 9, 16], "threads": [1, 2]})
        records = runner.run(cells)
        assert all(r.ok for r in records)
        assert runner._pool is None
        assert runner.stats.fast == len(records)

    def test_unservable_cell_escalates_with_flag(self):
        runner = Runner(jobs=1, cache=None, fidelity="analytic")
        record, = runner.run([scenario("fid_test.plain", x=3)])
        assert record.ok and record.rows == ((3, 4),)
        assert record.escalated
        assert runner.stats.escalated == 1 and runner.stats.fast == 0
        assert runner.snapshot()["runner.escalated"] == 1

    def test_refuse_policy_records_error_instead(self):
        runner = Runner(
            jobs=1, cache=None, fidelity="analytic",
            surrogate_policy="refuse",
        )
        record, = runner.run([scenario("fid_test.plain", x=3)])
        assert not record.ok
        assert "no surrogate" in record.error
        assert runner.stats.errors == 1

    def test_unknown_workload_escalates_to_an_error_record(self):
        runner = Runner(jobs=1, cache=None, fidelity="analytic")
        record, = runner.run([scenario("fid_test.nope", x=1)])
        assert not record.ok and record.escalated
        assert "unknown workload 'fid_test.nope'" in record.error

    def test_stale_table_escalates_modeled_but_not_exact(self):
        stale = ErrorTable(context="some-other-version|cafebabe")
        runner = Runner(
            jobs=1, cache=None, fidelity="analytic", error_table=stale
        )
        modeled, exact = runner.run([_ext_noise(), _fig9()])
        assert modeled.ok and modeled.escalated
        assert exact.ok and not exact.escalated
        assert runner.stats.fast == 1 and runner.stats.escalated == 1

    def test_zoo_cell_without_its_machine_entry_escalates(self):
        runner = Runner(jobs=1, cache=None, fidelity="analytic",
                        error_table=_columbia_only_table())
        fat, = runner.run([_zoo("fat_numa")])
        assert fat.escalated and fat.rows == ((1, "full"),)

    def test_permit_memo_keys_on_the_machine(self):
        """A Columbia cell's permit must not carry over to a fat_numa
        cell of the same workload: the verdict depends on the machine's
        own ``family@config`` entry."""
        runner = Runner(jobs=1, cache=None, fidelity="analytic",
                        error_table=_columbia_only_table())
        columbia, fat = runner.run([_zoo("columbia"), _zoo("fat_numa")])
        assert not columbia.escalated and columbia.rows == ((1, "analytic"),)
        assert fat.escalated and fat.rows == ((1, "full"),)
        assert runner.stats.fast == 1 and runner.stats.escalated == 1

    def test_escalated_cell_runs_its_full_twin(self):
        """An escalated cell runs as its ``full`` twin: under faults it
        draws the twin's fault stream, so its rows are the twin's."""
        from repro.faults.spec import parse_faults

        cell = scenario("fid_test.salted", x=1,
                        faults=parse_faults("drop:probability=0.1"))
        full, = Runner(jobs=1, cache=None).run([cell])
        stale = ErrorTable(context="some-other-version|cafebabe")
        fast, = Runner(jobs=1, cache=None, fidelity="analytic",
                       error_table=stale).run([cell])
        assert fast.escalated
        assert fast.rows == full.rows == ((1, cell.key()),)

    def test_runner_fidelity_fills_default_only(self):
        runner = Runner(jobs=1, cache=None, fidelity="analytic")
        assert runner.effective_scenario(_fig9()).fidelity == "analytic"
        assert runner.effective_scenario(_fig9("hybrid")).fidelity == "hybrid"
        assert Runner(jobs=1).effective_scenario(_fig9()).fidelity == "full"

    def test_fidelity_tiers_do_not_share_cache_entries(self):
        cache = ResultCache(memory_only=True)
        runner = Runner(jobs=1, cache=cache)
        first, = runner.run([_fig9("analytic")])
        second, = runner.run([_fig9()])  # full: distinct key, executes
        third, = runner.run([_fig9("analytic")])  # warm analytic hit
        assert not first.cached and not second.cached and third.cached
        assert first.rows == second.rows == third.rows
        assert runner.stats.cached == 1 and runner.stats.executed == 2

    def test_analytic_rows_survive_disk_cache_round_trip(self, tmp_path):
        cells = sweep("fig9.cell", {"processes": [1, 4, 16], "threads": [1, 2]})

        def analytic_runner():
            return Runner(
                jobs=1, cache=ResultCache(cache_dir=tmp_path), fidelity="analytic"
            )

        cold = analytic_runner().run(cells)
        warm_runner = analytic_runner()
        warm = warm_runner.run(cells)
        assert warm_runner.stats.cached == len(cells)
        assert warm_runner.stats.executed == 0
        assert [r.rows for r in warm] == [r.rows for r in cold]

    def test_bad_runner_fidelity_rejected(self):
        with pytest.raises(ConfigurationError):
            Runner(fidelity="quick")
        with pytest.raises(ConfigurationError):
            Runner(surrogate_policy="panic")


# -- serve: the inline fast path ----------------------------------------------


def _drive(coro):
    return asyncio.run(coro)


class TestServeInline:
    def test_analytic_submit_resolves_inline(self):
        async def drive():
            service = ScenarioService(Runner(jobs=1, cache=None))
            async with service:
                result = await service.submit(_fig9("analytic"))
            return service, result

        service, result = _drive(drive())
        assert result.ok and not result.escalated
        assert result.rows == execute_scenario(_fig9())
        stats = service.stats()
        assert stats["serve.inline"] == 1
        assert stats["serve.requests.analytic"] == 1
        assert stats["serve.analytic.latency_p50_s"] >= 0.0
        assert stats.get("serve.batches", 0) == 0  # never touched the queue

    def test_analytic_burst_through_submit_is_all_inline(self):
        burst = sweep(
            "fig9.cell", {"processes": [1, 2, 4, 8, 16], "threads": [1, 2]},
            fidelity="analytic",
        )
        runner = Runner(jobs=1, cache=None)

        async def drive():
            service = ScenarioService(runner)
            async with service:
                results = await asyncio.gather(
                    *(service.submit(sc) for sc in burst)
                )
            return service, results

        service, results = _drive(drive())
        assert all(r.ok and not r.escalated for r in results)
        assert runner.stats.fast == len(burst)
        stats = service.stats()
        assert stats["serve.inline"] == len(burst)
        assert stats.get("serve.batches", 0) == 0

    def test_analytic_and_full_twins_do_not_coalesce(self):
        async def drive():
            runner = Runner(jobs=1, cache=None)
            service = ScenarioService(runner)
            async with service:
                results = await asyncio.gather(
                    service.submit(_fig9("analytic")),
                    service.submit(_fig9()),
                )
            return runner, service, results

        runner, service, (fast, full) = _drive(drive())
        assert fast.ok and full.ok and fast.rows == full.rows
        assert not fast.coalesced and not full.coalesced
        assert runner.stats.executed == 2 and runner.stats.fast == 1
        stats = service.stats()
        assert stats["serve.requests.analytic"] == 1
        assert stats["serve.requests.full"] == 1

    def test_unservable_analytic_escalates_through_queue(self):
        async def drive():
            service = ScenarioService(Runner(jobs=1, cache=None))
            async with service:
                result = await service.submit(
                    scenario("fid_test.plain", x=9, fidelity="analytic")
                )
            return service, result

        service, result = _drive(drive())
        assert result.ok and result.escalated
        assert result.rows == ((9, 10),)
        stats = service.stats()
        assert stats["serve.escalated"] == 1
        assert stats["serve.escalated_cells"] == 1

    def test_runner_fidelity_applies_to_served_cells(self):
        async def drive():
            runner = Runner(jobs=1, cache=None, fidelity="analytic")
            service = ScenarioService(runner)
            async with service:
                result = await service.submit(_fig9())  # submitted as full
            return runner, result

        runner, result = _drive(drive())
        assert result.ok
        assert runner.stats.fast == 1  # overlay routed it inline


class TestServeTCP:
    def test_fidelity_override_and_stats_over_the_wire(self):
        runner = Runner(jobs=1, cache=ResultCache(memory_only=True))
        with BackgroundServer(runner) as server:
            with ServeClient(port=server.port) as client:
                reply = client.submit(_fig9(), fidelity="analytic")
                assert reply.ok and not reply.escalated
                assert reply.rows == execute_scenario(_fig9())
                warm = client.submit(_fig9("analytic"))
                assert warm.ok and warm.cached
                stats = client.stats()
        assert stats["serve.inline"] == 2
        assert stats["serve.requests.analytic"] == 2
        assert "serve.analytic.latency_p99_s" in stats

    def test_escalated_flag_crosses_the_wire(self):
        with BackgroundServer(Runner(jobs=1, cache=None)) as server:
            with ServeClient(port=server.port) as client:
                reply = client.submit(
                    scenario("fid_test.plain", x=2), fidelity="analytic"
                )
        assert reply.ok and reply.escalated
        assert reply.rows == ((2, 3),)

    def test_submit_many_per_request_overrides(self):
        cells = sweep("fig9.cell", {"processes": [4, 9, 16], "threads": [1]})
        with BackgroundServer(Runner(jobs=1, cache=None)) as server:
            with ServeClient(port=server.port) as client:
                replies = client.submit_many(
                    cells,
                    fidelity="analytic",
                    overrides={1: {"fidelity": "full", "priority": -1}},
                )
                stats = client.stats()
        assert all(r.ok for r in replies)
        direct = Runner(jobs=1, cache=None).run(cells)
        assert [r.rows for r in replies] == [r.rows for r in direct]
        assert stats["serve.requests.analytic"] == 2
        assert stats["serve.requests.full"] == 1

    def test_submit_many_override_validation_before_send(self):
        cells = sweep("fig9.cell", {"processes": [4, 9], "threads": [1]})
        with BackgroundServer(Runner(jobs=1, cache=None)) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ConfigurationError, match="outside"):
                    client.submit_many(
                        cells, overrides={5: {"fidelity": "analytic"}}
                    )
                with pytest.raises(ConfigurationError, match="unknown"):
                    client.submit_many(
                        cells, overrides=[{"fidelty": "analytic"}, None]
                    )
                stats = client.stats()
        # Both bursts failed validation client-side: nothing was sent.
        assert stats.get("serve.requests", 0) == 0

    def test_sequence_form_overrides(self):
        cells = sweep("fig9.cell", {"processes": [4, 9], "threads": [1]})
        with BackgroundServer(Runner(jobs=1, cache=None)) as server:
            with ServeClient(port=server.port) as client:
                replies = client.submit_many(
                    cells, overrides=[None, {"fidelity": "analytic"}]
                )
                stats = client.stats()
        assert all(r.ok for r in replies)
        assert stats["serve.requests.full"] == 1
        assert stats["serve.requests.analytic"] == 1


# -- declarations -------------------------------------------------------------


class TestDeclarations:
    """Every production sweep's workload declares a fast form, so the
    default analytic tier of explore and compare, and ``--fidelity
    analytic`` sweeps, never escalate for want of one."""

    def test_every_reached_workload_declares_a_fast_form(self):
        from repro.compare import compare_scenarios
        from repro.core.registry import experiment_specs
        from repro.explore.studies import STUDIES
        from repro.machine.zoo import list_machines

        reached = {
            sc.workload
            for spec in experiment_specs()
            for fast in (True, False)
            for sc in spec.scenarios(fast=fast)
        }
        reached |= {sc.workload for sc in compare_scenarios(list_machines())}
        reached |= {space().workload for space, _, _ in STUDIES.values()}
        assert {"compare.cell", "explore.machine_candidate",
                "explore.overflow_variant", "ext_noise.cell"} <= reached
        undeclared = sorted(w for w in reached if fast_form(w) is None)
        assert undeclared == []
        modeled = sorted(w for w in reached if fast_form(w) != "exact")
        assert modeled == ["ext_noise.cell"]
