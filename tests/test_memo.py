"""The pure-builder memos (``repro.memo``): one bounded discipline,
shared results, thread safety, and rows that do not depend on what the
process computed before (memo-cold equals memo-warm)."""

import dataclasses
import random
import re
import sys
import threading
from pathlib import Path

import pytest

import repro.core  # noqa: F401  (registers the experiments)
from repro.core.registry import resolve_experiment
from repro.faults import COLUMBIA_DEGRADED, FaultSpec, LinkFlap, MessageDrop
from repro.machine.cluster import single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.memo import _MEMOS, clear_memos, memo
from repro.netmodel.costs import NetworkModel
from repro.run.runner import execute_scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestDiscipline:
    def test_unbounded_memo_rejected(self):
        with pytest.raises(ValueError):
            memo(None)
        with pytest.raises(ValueError):
            memo(0)

    def test_every_memo_goes_through_the_bounded_wrapper(self):
        # A bare functools cache anywhere else in the package would be
        # unbounded or missed by clear_memos().
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if path.name != "memo.py"
            and re.search(r"\blru_cache\b|functools\.cache\b|@cache\b",
                          path.read_text())
        ]
        assert offenders == []

    def test_memos_are_bounded_and_cleared(self):
        # A memo registers when its module is imported.
        import repro.apps.overset.grids  # noqa: F401
        import repro.apps.overset.grouping  # noqa: F401
        import repro.hpcc.beff  # noqa: F401
        import repro.npb.hybrid  # noqa: F401

        NetworkModel(Placement(single_node(NodeType.BX2B), n_ranks=4)).stats()
        info = {f"{m.__module__}.{m.__qualname__}": m.cache_info() for m in _MEMOS}
        assert {
            "repro.netmodel.costs._route_table",
            "repro.netmodel.costs._path_stats",
            "repro.hpcc.beff._shared_barrier_exits",
            "repro.apps.overset.grids._synthetic_system",
            "repro.apps.overset.connectivity._overlaps",
            "repro.apps.overset.grouping._grouping",
            "repro.apps.overset.grouping._neighbors",
            "repro.npb.multizone.mz_problem",
            "repro.npb.hybrid._lpt_assignment",
        } <= set(info)
        assert all(0 < i.maxsize < 1024 for i in info.values())
        assert info["repro.netmodel.costs._route_table"].maxsize == 32
        clear_memos()
        assert all(m.cache_info().currsize == 0 for m in _MEMOS)


class TestSharedBuilders:
    def test_grid_systems_are_shared(self):
        from repro.apps.overset.grids import rotor_system, turbopump_system

        assert rotor_system() is rotor_system()
        assert turbopump_system(scale=0.01) is turbopump_system(scale=0.01)
        assert rotor_system(scale=0.01) is not rotor_system()

    def test_overlaps_and_groupings_are_shared(self):
        from repro.apps.overflow import OverflowModel
        from repro.apps.overset.connectivity import find_overlaps
        from repro.apps.overset.grids import rotor_system
        from repro.apps.overset.grouping import group_blocks

        system = rotor_system(scale=0.01)
        assert find_overlaps(system) is find_overlaps(rotor_system(scale=0.01))
        a, b = OverflowModel(system=system), OverflowModel(system=system)
        assert a._grouping(64) is b._grouping(64) is group_blocks(system, 64, "binpack")

    def test_groupings_of_one_system_build_one_neighbor_table(self):
        from repro.apps.overset.grids import rotor_system
        from repro.apps.overset.grouping import _neighbors, group_blocks

        system = rotor_system()
        clear_memos()
        for groups in (36, 64, 128, 256, 508):
            group_blocks(system, groups, "binpack-connectivity")
        assert _neighbors.cache_info().misses == 1

    def test_mz_problem_and_assignment_are_shared(self):
        from repro.npb.hybrid import MZTimingModel
        from repro.npb.multizone import mz_problem

        assert mz_problem("bt-mz", "C") is mz_problem("bt-mz", "C")
        cluster = single_node(NodeType.BX2B)
        pinned = MZTimingModel("bt-mz", "C", Placement(cluster, n_ranks=64))
        threaded = MZTimingModel(
            "bt-mz", "C", Placement(cluster, n_ranks=64, threads_per_rank=2))
        assert pinned.problem is threaded.problem
        assert pinned.assignment is threaded.assignment

    def test_errors_are_not_memoized(self):
        from repro.errors import ConfigurationError
        from repro.npb.multizone import mz_problem

        for _ in range(2):
            with pytest.raises(ConfigurationError):
                mz_problem("bt-mz", "Z")


def _model_rows(placement):
    net = NetworkModel(placement)
    n = placement.n_ranks
    return (
        net.stats(),
        net.stats(max_samples=16, seed=3),
        net.path(0, n - 1),
        net.message_time(n - 1, 0, 4096.0),
    )


class TestThreadSafety:
    def test_concurrent_builds_over_more_placements_than_the_bound(self):
        """Serve builds models on the event loop and on batch threads at
        once; the shared route-table LRU must neither raise under
        concurrent eviction nor hand out another placement's paths."""
        cluster = single_node(NodeType.BX2B)
        layouts = [(n, stride) for n in range(2, 26) for stride in (1, 2)]
        assert len(layouts) > 32
        clear_memos()
        serial = {
            lay: _model_rows(Placement(cluster, n_ranks=lay[0], stride=lay[1]))
            for lay in layouts
        }
        clear_memos()
        # Half the builds share one placement instance per layout (the
        # hit-during-eviction race), half build an equal new one.
        shared = {
            lay: Placement(cluster, n_ranks=lay[0], stride=lay[1])
            for lay in layouts
        }
        errors, results = [], []

        def worker(seed):
            order = list(layouts) * 20
            random.Random(seed).shuffle(order)
            try:
                for i, lay in enumerate(order):
                    pl = (shared[lay] if i % 2 else
                          Placement(cluster, n_ranks=lay[0], stride=lay[1]))
                    results.append((lay, _model_rows(pl)))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 4 * 20 * len(layouts)
        assert all(rows == serial[lay] for lay, rows in results)


def _oracle_cells():
    fig10 = [c for c in resolve_experiment("fig10").scenarios(fast=True)
             if dict(c.params)["n_nodes"] > 1]
    fig11 = [c for c in resolve_experiment("fig11").scenarios(fast=True)
             if dict(c.params)["mpt"] == "mpt1.11r"]
    fig5 = resolve_experiment("fig5").scenarios(fast=True)
    grouping = resolve_experiment("ablation_grouping").scenarios(fast=True)
    fig11_numalink = [c for c in resolve_experiment("fig11").scenarios(fast=True)
                      if dict(c.params)["network"] == "NUMAlink4"]
    ext_noise = resolve_experiment("ext_noise").scenarios(fast=True)
    des_faults = FaultSpec((
        MessageDrop(probability=0.05),
        LinkFlap(link_class="any", period=2e-6, down_time=1e-6),
    ), seed=2)
    assert fig11[0].faults == COLUMBIA_DEGRADED
    return {
        "fig10-healthy": min(fig10, key=lambda c: dict(c.params)["cpus"]),
        "fig11-degraded": fig11[0],
        "fig5-des-faulted": dataclasses.replace(fig5[0], faults=des_faults),
        "ablation-grouping": max(grouping, key=lambda c: dict(c.params)["groups"]),
        "fig11-numalink": max(fig11_numalink, key=lambda c: dict(c.params)["threads"]),
        "ext-noise": max(ext_noise, key=lambda c: dict(c.params)["ranks"]),
    }


class TestMemoColdEqualsWarm:
    def test_rows_do_not_depend_on_memo_state(self):
        cells = _oracle_cells()
        cold = {}
        for name, cell in cells.items():
            clear_memos()
            cold[name] = execute_scenario(cell)
        # Warm: run each cell again, after itself and the others have
        # filled the memos, in the other order, twice.
        for _ in range(2):
            for name in reversed(list(cells)):
                assert execute_scenario(cells[name]) == cold[name], name
