"""The tier-equivalence oracle, served part: direct, in-process and TCP
answers carry the same rows, cold and warm.

Each cell of a fixed set runs twice (cold, then warm) through three
paths, each on its own fresh runner and memory cell store:
:meth:`Runner.run` direct, in-process :meth:`ScenarioService.submit`,
and a :class:`ServeClient` over TCP.  All six answers must carry the
same rows.  A warm served answer is the cache hit the service
resolves on its event loop, so it must form no batch.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.core.registry import resolve_experiment
from repro.run import ResultCache, Runner
from repro.serve import BackgroundServer, ScenarioService, ServeClient
from repro.surrogate import ErrorTable

#: An error table written for another build: stale, it permits no
#: modeled fast form, so a modeled analytic cell escalates (exact
#: passthroughs are always permitted).
_STALE = ErrorTable(context="some-other-version|cafebabe")


def _cell(experiment: str, index: int = 0, **changes):
    sc = resolve_experiment(experiment).scenarios(fast=True)[index]
    return dataclasses.replace(sc, **changes)


#: name -> (cell factory, whether its cold run escalates).
CELLS = {
    "fig5": (lambda: _cell("fig5"), False),
    "fig9": (lambda: _cell("fig9"), False),
    "fig11-faulted": (lambda: _cell("fig11", 5), False),
    "fig9-analytic": (lambda: _cell("fig9", fidelity="analytic"), False),
    "ext_noise-analytic-escalates": (
        lambda: _cell("ext_noise", fidelity="analytic"), True,
    ),
}


def _runner() -> Runner:
    return Runner(jobs=1, cache=ResultCache(memory_only=True),
                  error_table=_STALE)


def _direct(sc):
    runner = _runner()
    return [runner.run([sc])[0] for _ in range(2)]


def _in_process(sc):
    async def drive():
        async with ScenarioService(_runner()) as service:
            cold = await service.submit(sc)
            batches = service.stats().get("serve.batches", 0)
            warm = await service.submit(sc)
            assert service.stats().get("serve.batches", 0) == batches
            return [cold, warm]

    return asyncio.run(drive())


def _tcp(sc):
    with BackgroundServer(_runner()) as server:
        with ServeClient(port=server.port) as client:
            return [client.submit(sc) for _ in range(2)]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_rows_agree_across_paths_cold_and_warm(name):
    make, escalates = CELLS[name]
    sc = make()
    if name == "fig11-faulted":
        assert sc.faults is not None
    answers = {
        "direct": _direct(sc),
        "in-process": _in_process(sc),
        "tcp": _tcp(sc),
    }
    expected = answers["direct"][0].rows
    assert expected
    for path, (cold, warm) in answers.items():
        assert cold.ok and warm.ok, (path, cold.error, warm.error)
        assert not cold.cached and warm.cached, path
        assert cold.escalated == escalates, path
        for answer in (cold, warm):
            assert answer.rows == expected, path
            assert json.dumps(answer.rows) == json.dumps(expected), path
