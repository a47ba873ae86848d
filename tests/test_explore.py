"""Tests for the :mod:`repro.explore` design-space exploration tier.

The determinism contract is the centerpiece: two explorations from one
seed write **byte-identical** trajectory journals, and a torn journal
resumes without re-submitting the candidates it already scored.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.explore import (
    EvolutionarySearch,
    GridSearch,
    Objective,
    STUDIES,
    RandomSearch,
    TrajectoryJournal,
    explore,
    make_optimizer,
    parse_objective,
    parse_space,
    run_study,
    search_space,
)
from repro.explore.driver import ExploreDriver, candidate_id
from repro.explore.space import MAX_RANGE_COUNT, SearchSpace
from repro.faults.spec import FaultSpec
from repro.run.runner import Runner
from repro.run.workloads import workload


@workload("explore_test.bowl", fast="exact")
def _bowl_cell(x: float, y: float = 0.0, scale: float = 1.0):
    """A quadratic bowl with its optimum at (2, -1); closed form, so
    the analytic tier serves it inline.  Columns:
    ``(x, y, value, abs_x)``; negative ``x`` raises (the error path).
    """
    if x < 0:
        raise ValueError("negative x")
    value = scale * ((x - 2.0) ** 2 + (y + 1.0) ** 2)
    return [(x, y, round(value, 6), abs(x))]



def bowl_space(with_errors=False):
    xs = (-1.0, 0.0, 1.0, 2.0, 3.0) if with_errors else (0.0, 1.0, 2.0, 3.0)
    return search_space(
        "explore_test.bowl", {"x": xs, "y": (-2.0, -1.0, 0.0)}
    )


@pytest.fixture()
def runner():
    r = Runner(cache=None)
    yield r
    r.close()


class TestSearchSpace:
    def test_shape_size_names(self):
        space = bowl_space()
        assert space.shape == (4, 3)
        assert space.size == 12
        assert space.names == ("x", "y")

    def test_candidates_cover_grid(self):
        space = bowl_space()
        cands = list(space.candidates())
        assert len(cands) == space.size
        assert len(set(cands)) == space.size
        assert cands[0] == (0, 0)

    def test_check_candidate_rejects_out_of_range(self):
        space = bowl_space()
        with pytest.raises(ConfigurationError):
            space.check_candidate((0,))
        with pytest.raises(ConfigurationError):
            space.check_candidate((4, 0))

    def test_assignment_is_json_safe(self):
        space = bowl_space()
        pairs = space.assignment((2, 1))
        assert pairs == (("x", 2.0), ("y", -1.0))
        json.dumps(pairs)

    def test_scenario_routes_workload_params(self):
        space = search_space(
            "explore_test.bowl", {"x": (1.0,)}, base={"scale": 2.0}
        )
        sc = space.scenario_for((0,))
        params = dict(sc.params)
        assert params["x"] == 1.0
        assert params["scale"] == 2.0
        assert sc.fidelity == "analytic"

    def test_scenario_routes_machine_and_placement(self):
        space = search_space(
            "fig9.cell",
            {
                "machine.clock_ghz": (1.5,),
                "placement.n_ranks": (16, 64),
            },
            base={"machine.l3_mb": 6},
        )
        sc = space.scenario_for((0, 1))
        assert sc.machine.clock_ghz == 1.5
        assert sc.machine.l3_mb == 6
        assert sc.placement.n_ranks == 64

    def test_unknown_machine_field_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError, match="machine"):
            search_space("fig9.cell", {"machine.warp_drive": (1,)})

    def test_key_stable_and_content_sensitive(self):
        assert bowl_space().key() == bowl_space().key()
        assert bowl_space().key() != bowl_space(with_errors=True).key()

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigurationError):
            search_space("explore_test.bowl", {})


class TestSpaceGrammar:
    def test_explicit_values_and_range(self):
        space = parse_space("x=0:3:4; y=-2,-1,0", "explore_test.bowl")
        assert space.shape == (4, 3)
        assert space.dimensions[0].values == (0, 1, 2, 3)
        assert space.dimensions[1].values == (-2, -1, 0)

    def test_range_keeps_integers_integral(self):
        space = parse_space("machine.l3_mb=6:12:3", "fig9.cell")
        assert space.dimensions[0].values == (6, 9, 12)

    def test_fault_alternatives(self):
        space = parse_space(
            "faults=none|boot_cpuset"
            "|degrade:link_class=any,latency_factor=4+boot_cpuset",
            "fig9.cell",
        )
        none, single, combo = space.dimensions[0].values
        assert none is None
        assert isinstance(single, FaultSpec) and len(single.faults) == 1
        # ``+`` joins clauses within one alternative.
        assert isinstance(combo, FaultSpec) and len(combo.faults) == 2

    def test_malformed_clause_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_space("x", "explore_test.bowl")
        with pytest.raises(ConfigurationError):
            parse_space("", "explore_test.bowl")
        with pytest.raises(ConfigurationError):
            parse_space("x=0:3:0", "explore_test.bowl")

    @pytest.mark.parametrize("text", [
        "x=nan:1:3", "x=1:nan:3", "x=1e309:1:3", "x=-inf:1:3",
        "x=-1e308:1e308:3",  # finite endpoints, infinite step
    ])
    def test_non_finite_range_rejected(self, text):
        with pytest.raises(ConfigurationError, match="not finite"):
            parse_space(text, "explore_test.bowl")

    def test_range_count_is_capped(self):
        values = parse_space(
            f"x=0:1:{MAX_RANGE_COUNT}", "explore_test.bowl"
        ).dimensions[0].values
        assert len(values) == MAX_RANGE_COUNT
        with pytest.raises(ConfigurationError, match="range count"):
            parse_space("x=1:2:100000000000", "explore_test.bowl")


#: Pieces the grammar fuzz glues together: the grammar's own
#: punctuation, dimension names and the numbers that broke it.
_SPACE_FRAGMENTS = st.sampled_from([
    "x", "y", "machine.l3_mb", "placement.n_ranks", "machine.nope",
    "faults", "=", ":", ",", ";", "|", "+", " ", "0", "1", "-1", "2.5",
    "nan", "inf", "-inf", "1e309", "100000000000", "none", "true",
    "boot_cpuset", "degrade:latency_factor=4", "seed=3",
])
_OBJECTIVE_FRAGMENTS = st.sampled_from([
    "metric", "mode", "reduce", "quantile", "repeats", "noise", "seed",
    "constraint", "constraint_min", "constraint_max", "=", ",", " ",
    "0", "1", "-1", "0.5", "2", "nan", "inf", "-inf", "1e309", "min",
    "max", "last", "mean",
])


class TestGrammarFuzz:
    """Any ``--space``/``--objective`` text parses or raises a
    ``ReproError``: never another exception, never a hang."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(_SPACE_FRAGMENTS).map("".join)))
    def test_any_space_text_parses_or_raises(self, text):
        try:
            space = parse_space(text, "explore_test.bowl")
        except ReproError:
            return
        assert isinstance(space, SearchSpace)
        assert all(dim.values for dim in space.dimensions)
        assert all(math.isfinite(v) for dim in space.dimensions
                   for v in dim.values if isinstance(v, float))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(_OBJECTIVE_FRAGMENTS).map("".join)))
    def test_any_objective_text_parses_or_raises(self, text):
        try:
            objective = parse_objective(text)
        except ReproError:
            return
        assert isinstance(objective, Objective)
        assert math.isfinite(objective.quantile)
        assert math.isfinite(objective.noise)

    @pytest.mark.parametrize("text", [
        "metric=0,noise=inf", "metric=0,noise=nan",
        "metric=0,quantile=nan", "metric=0,constraint=1,constraint_max=inf",
    ])
    def test_non_finite_objective_numbers_rejected(self, text):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_objective(text)

    @pytest.mark.parametrize("text", [
        "x=nan,inf,1e309", "x=nan", "x=1,inf", "x=-inf", "x=2,1e309",
        "x=1;y=NaN",
    ])
    def test_non_finite_space_values_rejected(self, text):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_space(text, "explore_test.bowl")

    def test_repeats_capped_before_any_replica(self, monkeypatch):
        from repro.explore import objective

        built = []
        monkeypatch.setattr(objective.Objective, "replicas",
                            lambda self, *a: built.append(a))
        with pytest.raises(ConfigurationError, match="repeats"):
            parse_objective("metric=0,repeats=1000000000")
        with pytest.raises(ConfigurationError, match="repeats"):
            Objective(metric=0, repeats=objective.MAX_REPEATS + 1)
        assert built == []
        assert Objective(metric=0, repeats=objective.MAX_REPEATS).repeats \
            == objective.MAX_REPEATS


class TestObjective:
    def test_score_quantile_nearest_rank(self):
        obj = Objective(metric=2)
        rows = [[(0, 0, v, 0)] for v in (3.0, 1.0, 2.0)]
        score, feasible = obj.score(rows)
        assert score == 2.0 and feasible
        high = Objective(metric=2, quantile=0.95)
        assert high.score(rows)[0] == 3.0

    @pytest.mark.parametrize(
        "reduce,expected",
        [("last", 4.0), ("first", 1.0), ("min", 1.0), ("max", 4.0),
         ("mean", 2.5), ("sum", 5.0)],
    )
    def test_row_reducers(self, reduce, expected):
        obj = Objective(metric=0, reduce=reduce)
        assert obj.score([[(1.0,), (4.0,)]])[0] == expected

    def test_constraint_feasibility(self):
        obj = Objective(metric=2, constraint=3, constraint_max=1.5)
        ok = [[(0, 0, 5.0, 1.0)]]
        bad = [[(0, 0, 5.0, 2.0)]]
        assert obj.score(ok) == (5.0, True)
        assert obj.score(bad) == (5.0, False)

    def test_loss_modes(self):
        mn = Objective(metric=0)
        mx = Objective(metric=0, mode="max")
        assert mn.loss(2.0, True) == 2.0
        assert mx.loss(2.0, True) == -2.0
        assert mn.loss(2.0, False) == math.inf
        assert mn.loss(None, True) == math.inf

    def test_replicas_distinct_seeds(self):
        from repro.run.scenario import scenario

        obj = Objective(metric=0, repeats=3, noise=0.01, seed=7)
        sc = scenario("explore_test.bowl", x=1.0, fidelity="analytic")
        fan = obj.replicas(sc)
        assert len(fan) == 3
        seeds = {rep.faults.seed for rep in fan}
        assert len(seeds) == 3
        assert len({rep.key() for rep in fan}) == 3

    def test_replicas_identity_when_deterministic(self):
        from repro.run.scenario import scenario

        sc = scenario("explore_test.bowl", x=1.0, fidelity="analytic")
        assert Objective(metric=0).replicas(sc) == (sc,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Objective(metric=-1)
        with pytest.raises(ConfigurationError):
            Objective(metric=0, mode="sideways")
        with pytest.raises(ConfigurationError):
            Objective(metric=0, reduce="median")
        with pytest.raises(ConfigurationError):
            Objective(metric=0, quantile=1.5)
        with pytest.raises(ConfigurationError):
            Objective(metric=0, repeats=0)
        with pytest.raises(ConfigurationError):
            Objective(metric=0, constraint_max=1.0)

    def test_parse_objective(self):
        obj = parse_objective(
            "metric=2,mode=max,quantile=0.95,repeats=3,"
            "constraint=3,constraint_max=1.05"
        )
        assert obj.metric == 2 and obj.mode == "max"
        assert obj.quantile == 0.95 and obj.repeats == 3
        assert obj.constraint == 3 and obj.constraint_max == 1.05

    def test_parse_objective_errors(self):
        with pytest.raises(ConfigurationError):
            parse_objective("mode=min")  # metric missing
        with pytest.raises(ConfigurationError):
            parse_objective("metric=two")
        with pytest.raises(ConfigurationError):
            parse_objective("metric=0,flavor=spicy")


class TestOptimizers:
    def test_grid_covers_in_order_then_exhausts(self):
        space = bowl_space()
        opt = GridSearch(space)
        seen = opt.ask(8) + opt.ask(8)
        assert seen == list(space.candidates())
        assert opt.ask(8) == []

    def test_random_is_seeded_and_exhaustive(self):
        space = bowl_space()
        a = RandomSearch(space, seed=3)
        b = RandomSearch(space, seed=3)
        seq_a = a.ask(space.size)
        assert seq_a == b.ask(space.size)
        assert sorted(seq_a) == sorted(space.candidates())
        assert a.ask(1) == []

    def test_evolve_never_repeats_and_terminates(self):
        space = bowl_space()
        opt = EvolutionarySearch(space, seed=1, population=4, generations=8)
        seen = set()
        for _ in range(64):
            batch = opt.ask(4)
            if not batch:
                break
            for cand in batch:
                assert cand not in seen
                seen.add(cand)
                opt.tell(cand, float(sum(cand)))
        else:
            pytest.fail("evolutionary search did not terminate")
        assert seen  # proposed something

    def test_make_optimizer_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_optimizer("annealing", bowl_space())


class TestExploreDriver:
    def test_grid_finds_bowl_optimum(self, runner):
        result = explore(
            bowl_space(), Objective(metric=2),
            optimizer="grid", runner=runner,
        )
        assert result.best is not None
        assert result.best.score == 0.0
        assert dict(result.best.assignment) == {"x": 2.0, "y": -1.0}
        assert result.stats.candidates == 12
        assert result.stats.cells_submitted == 12
        assert result.stats.stopped == "exhausted"

    def test_errors_are_recorded_not_fatal(self, runner):
        result = explore(
            bowl_space(with_errors=True), Objective(metric=2),
            optimizer="grid", runner=runner,
        )
        assert result.stats.errors == 3  # x = -1 across 3 y values
        failed = [r for r in result.records if r.error]
        assert all("negative x" in r.error for r in failed)
        assert result.best is not None and result.best.score == 0.0

    def test_infeasible_never_best(self, runner):
        # abs(x) <= 0.5 rules out everything except... nothing: only
        # x=0 satisfies it, so the best is the feasible (0, y=-1) cell.
        obj = Objective(metric=2, constraint=3, constraint_max=0.5)
        result = explore(
            bowl_space(), obj, optimizer="grid", runner=runner
        )
        assert result.stats.infeasible == 9
        assert dict(result.best.assignment)["x"] == 0.0

    def test_replicates_fan_out(self, runner):
        obj = Objective(metric=2, repeats=3, noise=0.001, seed=5)
        result = explore(
            bowl_space(), obj, optimizer="grid", runner=runner
        )
        assert result.stats.cells_submitted == 12 * 3
        assert all(r.cells == 3 for r in result.records)
        assert all(len(r.values) == 3 for r in result.records)

    def test_max_cells_budget(self, runner):
        result = explore(
            bowl_space(), Objective(metric=2),
            optimizer="grid", runner=runner, max_cells=5,
        )
        assert result.stats.stopped == "max_cells"
        assert result.stats.cells_submitted <= 5
        assert result.stats.candidates == 5

    def test_max_cells_respects_replicate_fans(self, runner):
        obj = Objective(metric=2, repeats=3, noise=0.001)
        result = explore(
            bowl_space(), obj, optimizer="grid",
            runner=runner, max_cells=7,
        )
        # Whole fans only: 2 candidates x 3 replicates = 6 <= 7.
        assert result.stats.cells_submitted == 6
        assert result.stats.candidates == 2

    def test_without_a_runner_one_runner_serves_every_round(self):
        """A driver given no runner builds one for all its rounds (not
        one per batch) and closes it when the run ends."""
        driver = ExploreDriver(
            bowl_space(), Objective(metric=2), optimizer="grid", batch_size=4
        )
        result = driver.run()
        snapshot = driver.runner.snapshot()
        assert snapshot["runner.cells"] == result.stats.cells_submitted == 12
        assert snapshot["runner.fast"] == 12

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            ExploreDriver(bowl_space(), Objective(metric=2), max_cells=0)
        with pytest.raises(ConfigurationError):
            ExploreDriver(bowl_space(), Objective(metric=2), batch_size=0)


class TestTrajectoryJournal:
    @pytest.mark.parametrize("optimizer", ["random", "evolve"])
    def test_same_seed_byte_identical_journals(
        self, optimizer, runner, tmp_path
    ):
        texts = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            explore(
                bowl_space(), Objective(metric=2),
                optimizer=optimizer, seed=11, runner=runner,
                journal=path,
            )
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) == 13  # header + 12 candidates

    def test_resume_replays_without_resubmitting(self, runner, tmp_path):
        path = tmp_path / "trail.jsonl"
        first = explore(
            bowl_space(), Objective(metric=2),
            optimizer="random", seed=2, runner=runner, journal=path,
        )
        second = explore(
            bowl_space(), Objective(metric=2),
            optimizer="random", seed=2, runner=runner, journal=path,
        )
        assert second.stats.cells_submitted == 0
        assert second.stats.replayed == 12
        assert second.best.score == first.best.score
        assert second.best.candidate == first.best.candidate

    def test_torn_tail_reruns_only_the_lost_candidate(
        self, runner, tmp_path
    ):
        path = tmp_path / "trail.jsonl"
        explore(
            bowl_space(), Objective(metric=2),
            optimizer="random", seed=2, runner=runner, journal=path,
        )
        whole = path.read_text()
        # Tear the final line mid-record, as a kill would.
        path.write_text(whole[:-20])
        result = explore(
            bowl_space(), Objective(metric=2),
            optimizer="random", seed=2, runner=runner, journal=path,
        )
        assert result.stats.replayed == 11
        assert result.stats.cells_submitted == 1
        assert path.read_text() == whole  # healed to the full trail

    def test_changed_objective_invalidates_journal(self, runner, tmp_path):
        path = tmp_path / "trail.jsonl"
        explore(
            bowl_space(), Objective(metric=2),
            optimizer="random", seed=2, runner=runner, journal=path,
        )
        result = explore(
            bowl_space(), Objective(metric=2, quantile=0.95),
            optimizer="random", seed=2, runner=runner, journal=path,
        )
        assert result.stats.replayed == 0
        assert result.stats.cells_submitted == 12
        header = json.loads(path.read_text().splitlines()[0])
        assert header["objective"]["quantile"] == 0.95

    def test_candidate_id_format(self):
        assert candidate_id((2, 0, 1)) == "2-0-1"

    def test_journal_lines_carry_no_wall_clock(self, runner, tmp_path):
        path = tmp_path / "trail.jsonl"
        explore(
            bowl_space(), Objective(metric=2),
            optimizer="grid", runner=runner, journal=path,
        )
        for line in path.read_text().splitlines()[1:]:
            entry = json.loads(line)
            assert set(entry) == {
                "key", "candidate", "assignment", "score", "values",
                "feasible", "error", "cells",
            }


class TestStudies:
    def test_cheapest_bx2_prefers_slower_clock_same_l3(self, runner):
        result = run_study("cheapest-bx2", runner=runner)
        assert result.best is not None
        best = dict(result.best.assignment)
        # The paper's ablation signature: OVERFLOW-D tolerates a clock
        # downgrade but not an L3 downgrade.
        assert best["clock_ghz"] < 1.6
        assert best["l3_mb"] == 9
        assert result.best.score < 1.0

    def test_worst_faults_hurts_more_than_healthy(self, runner):
        result = run_study("worst-faults", seed=3, max_cells=60, runner=runner)
        assert result.best is not None
        healthy = [
            r for r in result.records
            if dict(r.assignment)["faults"] == "none" and r.ok
        ]
        if healthy:
            assert result.best.score <= min(r.score for r in healthy)

    def test_cheapest_machine_picks_gpu_node_deterministically(
        self, runner, tmp_path
    ):
        journals = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            result = run_study("cheapest-machine", runner=runner, journal=path)
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]
        assert result.best is not None
        # The accelerator preset undercuts the big-iron ones while
        # BT-MZ stays within the Columbia bound.
        assert dict(result.best.assignment)["machine.config"] == "gpu_node"

    def test_unknown_study_rejected(self):
        from repro.explore import study_driver

        with pytest.raises(ConfigurationError):
            study_driver("fastest-coffee")

    def test_study_driver_forwards_driver_options(self):
        from repro.explore import study_driver

        driver = study_driver("cheapest-bx2", batch_size=4, max_cells=8)
        assert driver.batch_size == 4
        assert driver.max_cells == 8

    def test_cli_study_help_names_every_study(self):
        import argparse

        from repro.cli import build_parser

        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        study = next(
            action for action in sub.choices["explore"]._actions
            if action.dest == "study"
        )
        for name in STUDIES:
            assert f"'{name}'" in study.help
