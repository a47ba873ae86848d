"""The scenario service: coalescing, backpressure, batching, wire."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.run import ResultCache, Runner, execute_scenario, scenario, workload
from repro.serve import (
    BackgroundServer,
    QuotaPolicy,
    ScenarioService,
    ServeClient,
    ServeRejected,
    scenario_from_wire,
    scenario_to_wire,
)

# Executions land here; jobs=1 runners execute in-process, so the
# module-level lists observe exactly what ran and in which order.
CALLS: list = []


@workload("serve_test.cell")
def _cell(x: int = 0, delay_ms: int = 0) -> list[tuple]:
    CALLS.append(x)
    if delay_ms:
        import time

        time.sleep(delay_ms / 1000.0)
    return [(x, x * x)]


#: The pytest process; forked pool workers inherit the value.
_SERVER_PID = os.getpid()


@workload("serve_test.kill_worker")
def _kill_worker() -> list[tuple]:
    # Takes its pool worker down the way an OOM kill would.  Run in
    # the server's own process it raises instead, so a routing bug
    # fails the test rather than killing the test run.
    if os.getpid() == _SERVER_PID:
        raise RuntimeError("ran in the server process, not a pool worker")
    os._exit(3)


def _runner(**kw) -> Runner:
    kw.setdefault("jobs", 1)
    kw.setdefault("cache", None)
    return Runner(**kw)


class TestCoalescing:
    def test_identical_concurrent_submits_share_one_execution(self):
        CALLS.clear()
        sc = scenario("serve_test.cell", x=7)

        async def drive():
            service = ScenarioService(_runner(), batch_wait=0.05)
            async with service:
                results = await asyncio.gather(
                    *(service.submit(sc) for _ in range(8))
                )
            return service, results

        service, results = asyncio.run(drive())
        assert CALLS == [7]  # exactly one execution
        assert service.runner.stats.executed == 1
        assert all(r.ok for r in results)
        assert sum(r.coalesced for r in results) == 7
        assert {r.rows for r in results} == {((7, 49),)}
        totals = service.stats()
        assert totals["serve.requests"] == 8
        assert totals["serve.coalesced"] == 7
        assert totals["serve.completed"] == 1
        assert totals["serve.latency_p99_s"] >= totals["serve.latency_p50_s"]

    def test_distinct_cells_do_not_coalesce(self):
        CALLS.clear()
        cells = [scenario("serve_test.cell", x=i) for i in range(4)]

        async def drive():
            async with ScenarioService(_runner(), batch_wait=0.05) as service:
                return await asyncio.gather(
                    *(service.submit(sc) for sc in cells)
                )

        results = asyncio.run(drive())
        assert sorted(CALLS) == [0, 1, 2, 3]
        assert not any(r.coalesced for r in results)
        assert [r.rows for r in results] == [((i, i * i),) for i in range(4)]

    def test_in_flight_coalescing_attaches_to_running_cell(self):
        CALLS.clear()
        sc = scenario("serve_test.cell", x=3, delay_ms=80)

        async def drive():
            async with ScenarioService(_runner()) as service:
                first = asyncio.ensure_future(service.submit(sc))
                await asyncio.sleep(0.03)  # first is now executing
                second = await service.submit(sc)
                return await first, second

        first, second = asyncio.run(drive())
        assert CALLS == [3]
        assert not first.coalesced and second.coalesced
        assert first.rows == second.rows


class TestBackpressure:
    def test_rejects_when_queue_full_then_drains(self):
        CALLS.clear()
        cells = [scenario("serve_test.cell", x=100 + i) for i in range(3)]

        async def drive():
            service = ScenarioService(_runner(), max_queue=2)
            # dispatcher not started: the queue can only fill
            queued = [
                asyncio.ensure_future(service.submit(sc))
                for sc in cells[:2]
            ]
            await asyncio.sleep(0)
            with pytest.raises(ServeRejected) as exc_info:
                await service.submit(cells[2])
            assert exc_info.value.retry_after > 0
            assert exc_info.value.depth == 2
            await service.start()
            results = await asyncio.gather(*queued)
            await service.close()
            return service, results

        service, results = asyncio.run(drive())
        assert all(r.ok for r in results)
        assert service.stats()["serve.rejected"] == 1

    def test_duplicate_of_queued_cell_is_never_rejected(self):
        # Coalescing takes no new slot, so a full queue still accepts
        # a duplicate of something already queued.
        sc = scenario("serve_test.cell", x=200)

        async def drive():
            service = ScenarioService(_runner(), max_queue=1)
            first = asyncio.ensure_future(service.submit(sc))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(service.submit(sc))
            await asyncio.sleep(0)
            await service.start()
            results = await asyncio.gather(first, second)
            await service.close()
            return results

        results = asyncio.run(drive())
        assert [r.coalesced for r in results] == [False, True]

    def test_submit_after_close_refused(self):
        async def drive():
            service = ScenarioService(_runner())
            await service.start()
            await service.close()
            with pytest.raises(ConfigurationError, match="closed"):
                await service.submit(scenario("serve_test.cell", x=1))

        asyncio.run(drive())


class TestPriorityAndBatching:
    def test_lower_priority_value_runs_first(self):
        CALLS.clear()
        by_prio = {5: 501, 1: 101, 3: 301}

        async def drive():
            # max_batch=1 so each cell dispatches alone, in heap order.
            service = ScenarioService(_runner(), max_batch=1)
            pending = [
                asyncio.ensure_future(
                    service.submit(
                        scenario("serve_test.cell", x=x), priority=p
                    )
                )
                for p, x in by_prio.items()
            ]
            await asyncio.sleep(0)
            await service.start()
            await asyncio.gather(*pending)
            await service.close()

        asyncio.run(drive())
        assert CALLS == [101, 301, 501]

    def test_batches_fill_under_load(self):
        CALLS.clear()
        cells = [scenario("serve_test.cell", x=i) for i in range(6)]

        async def drive():
            service = ScenarioService(
                _runner(jobs=2), max_batch=8, batch_wait=0.05
            )
            async with service:
                await asyncio.gather(*(service.submit(sc) for sc in cells))
            service.runner.close()
            return service.stats()

        totals = asyncio.run(drive())
        assert totals["serve.batches"] < len(cells)  # packing happened
        assert totals["serve.batch_cells"] == len(cells)
        assert 0 < totals["serve.batch_occupancy"] <= 1


class TestByteIdentical:
    def test_fig9_sweep_matches_direct_runner(self):
        from repro.core.registry import resolve_experiment

        cells = resolve_experiment("fig9").scenarios(fast=True)
        serve_runner = Runner(jobs=2, cache=ResultCache(memory_only=True))

        async def drive():
            service = ScenarioService(serve_runner, batch_wait=0.02)
            async with service:
                return await asyncio.gather(*(
                    service.submit(sc)
                    for sc in list(cells) + list(cells[:3])  # duplicates
                ))

        try:
            served = asyncio.run(drive())
        finally:
            serve_runner.close()
        direct = Runner(jobs=1, cache=ResultCache(memory_only=True)).run(cells)
        rows_by_key = {r.scenario.key(): r.rows for r in direct}
        assert all(r.ok for r in served)
        for r in served:
            expected = rows_by_key[r.scenario.key()]
            assert r.rows == expected
            assert json.dumps(r.rows) == json.dumps(expected)


#: Full cells on the batch thread while analytic cells resolve inline
#: on the event loop, in a fresh interpreter so that both threads are
#: the first to import the model layers.
_FIRST_USE = """
import asyncio, dataclasses, sys
from repro.core.registry import resolve_experiment
from repro.run import Runner
from repro.serve import ScenarioService

cells = [sc for eid in ("fig5", "fig7", "fig8")
         for sc in resolve_experiment(eid).scenarios(fast=True)]

async def main():
    async with ScenarioService(Runner(jobs=1, cache=None)) as service:
        full = [asyncio.ensure_future(service.submit(sc)) for sc in cells]
        await asyncio.sleep(0.001)  # the first batch is on its thread
        inline = [
            await service.submit(dataclasses.replace(sc, fidelity="analytic"))
            for sc in cells
        ]
        return inline + list(await asyncio.gather(*full))

bad = [r.error for r in asyncio.run(main()) if not r.ok]
sys.exit(f"failed cells: {bad[:3]}" if bad else 0)
"""


class TestInlineHits:
    """Every untraced request the cache already holds is answered on
    the event loop, whatever its fidelity: no queue slot, no batch, no
    thread hop.  Only misses queue, coalesce and batch."""

    def test_warm_full_request_forms_no_batch(self):
        sc = scenario("serve_test.cell", x=1000)
        direct, = _runner().run([sc])

        async def drive():
            service = ScenarioService(
                _runner(cache=ResultCache(memory_only=True))
            )
            async with service:
                cold = await service.submit(sc)
                before = service.stats()
                warm = await service.submit(sc)
                return cold, warm, before, service.stats()

        cold, warm, before, after = asyncio.run(drive())
        assert not cold.cached
        assert warm.cached and not warm.coalesced
        assert warm.rows == cold.rows == direct.rows
        assert after["serve.batches"] == before["serve.batches"] == 1
        assert after["serve.inline"] == before.get("serve.inline", 0) + 1
        assert after["runner.cached"] == before["runner.cached"] + 1

    def test_trace_dir_forces_execution_through_the_queue(self, tmp_path):
        CALLS.clear()
        sc = scenario("serve_test.cell", x=1001)
        cache = ResultCache(memory_only=True)
        _runner(cache=cache).run([sc])  # warm

        async def drive(runner, trace_dir):
            async with ScenarioService(runner) as service:
                result = await service.submit(sc, trace_dir=trace_dir)
            return result, service.stats()

        per_request = asyncio.run(
            drive(_runner(cache=cache), str(tmp_path))
        )
        runner_level = asyncio.run(
            drive(_runner(cache=cache, trace_dir=str(tmp_path)), None)
        )
        assert CALLS == [1001, 1001, 1001]
        for result, stats in (per_request, runner_level):
            assert result.ok and not result.cached
            assert stats["serve.batches"] == 1
            assert "serve.inline" not in stats

    def test_cached_cell_answered_while_queue_is_full(self):
        hot = scenario("serve_test.cell", x=1002)
        cold = [scenario("serve_test.cell", x=1003 + i) for i in range(2)]
        runner = _runner(cache=ResultCache(memory_only=True))
        runner.run([hot])

        async def drive():
            service = ScenarioService(runner, max_queue=1)
            # dispatcher not started: the queue can only fill
            queued = asyncio.ensure_future(service.submit(cold[0]))
            await asyncio.sleep(0)
            hit = await service.submit(hot)
            with pytest.raises(ServeRejected) as exc_info:
                await service.submit(cold[1])
            assert exc_info.value.reason == "queue"
            await service.start()
            first = await queued
            await service.close()
            return hit, first

        hit, first = asyncio.run(drive())
        assert hit.ok and hit.cached and hit.rows == ((1002, 1002 ** 2),)
        assert first.ok and not first.cached

    def test_quota_is_charged_for_an_inline_hit(self):
        sc = scenario("serve_test.cell", x=1005)
        runner = _runner(cache=ResultCache(memory_only=True))
        runner.run([sc])

        async def drive():
            service = ScenarioService(
                runner, quota=QuotaPolicy(rate=0.01, burst=1)
            )
            async with service:
                first = await service.submit(sc, client_id="c")
                with pytest.raises(ServeRejected) as exc_info:
                    await service.submit(sc, client_id="c")
                assert exc_info.value.reason == "quota"
                return first, service.stats()

        first, stats = asyncio.run(drive())
        assert first.ok and first.cached
        assert stats["serve.inline"] == 1
        assert stats["serve.quota_rejected"] == 1

    def test_miss_coalesces_onto_its_queued_twin(self):
        CALLS.clear()
        sc = scenario("serve_test.cell", x=1004)
        runner = _runner(cache=ResultCache(memory_only=True))

        async def drive():
            service = ScenarioService(runner)
            first = asyncio.ensure_future(service.submit(sc))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(service.submit(sc))
            await asyncio.sleep(0)
            await service.start()
            results = await asyncio.gather(first, second)
            await service.close()
            return results, service.stats()

        results, stats = asyncio.run(drive())
        assert CALLS == [1004]
        assert [r.coalesced for r in results] == [False, True]
        assert stats["serve.coalesced"] == 1
        assert stats["runner.executed"] == 1
        # Each request probed the cache on submit, and Runner.run
        # probed the cell again at dispatch.
        assert stats["cache.misses"] == 3


class TestFirstUseOnTwoThreads:
    def test_cold_service_serves_inline_and_batch_cells_together(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", _FIRST_USE],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestRunnerFaultOverlay:
    def test_runner_faults_applied_once_and_match_direct_run(self):
        # Regression: the serve path used to enqueue the *effective*
        # scenario, so Runner._run merged the runner overlay a second
        # time — duplicating the fault list and shifting the cache key
        # away from direct Runner.run.
        from repro.faults import parse_faults

        overlay = parse_faults("jitter:amplitude=1ms;seed=3")
        sc = scenario("serve_test.cell", x=600)

        async def drive():
            async with ScenarioService(_runner(faults=overlay)) as service:
                return await asyncio.gather(
                    service.submit(sc), service.submit(sc)
                )

        first, second = asyncio.run(drive())
        direct = _runner(faults=overlay).run([sc])[0]
        assert first.ok and second.ok
        assert second.coalesced
        assert len(first.scenario.faults.faults) == 1  # merged exactly once
        assert first.scenario.key() == direct.scenario.key()
        assert first.rows == direct.rows


class TestRunBatch:
    def test_run_batch_matches_run_and_reuses_pool(self):
        # A serve batch is one Runner.run call; successive batches
        # share the runner's single worker pool.
        cells = [scenario("serve_test.cell", x=300 + i) for i in range(4)]
        runner = Runner(jobs=2, cache=None)
        try:
            first = runner.run(cells)
            pool = runner._pool
            assert pool is not None  # persistent pool created...
            second = runner.run(cells)
            assert runner._pool is pool  # ...and reused across batches
            baseline = _runner().run(cells)
            for records in (first, second):
                assert [r.rows for r in records] == [
                    r.rows for r in baseline
                ]
        finally:
            runner.close()
        assert runner._pool is None


class TestWireProtocol:
    def test_scenario_round_trip_preserves_key(self):
        from repro.faults import parse_faults

        sc = scenario(
            "serve_test.cell",
            x=5,
            faults=parse_faults("jitter:amplitude=1ms;seed=3"),
        )
        decoded = scenario_from_wire(
            json.loads(json.dumps(scenario_to_wire(sc)))
        )
        assert decoded == sc
        assert decoded.key() == sc.key()

    def test_bad_payloads_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_wire([])
        with pytest.raises(ConfigurationError):
            scenario_from_wire({"params": []})  # no workload
        with pytest.raises(ConfigurationError):
            scenario_from_wire({"workload": "w", "params": [["only-name"]]})


class TestTcpServe:
    def test_submit_many_with_duplicates_over_tcp(self):
        CALLS.clear()
        cells = [scenario("serve_test.cell", x=400 + i) for i in range(5)]
        burst = cells + cells[:3]
        with BackgroundServer(_runner(), batch_wait=0.05) as server:
            with ServeClient(port=server.port) as client:
                assert client.ping() == 1
                replies = client.submit_many(burst)
                stats = client.stats()
        assert all(r.ok for r in replies)
        assert sorted(CALLS) == list(range(400, 405))  # dupes coalesced
        assert stats["serve.coalesced"] == 3
        for reply, sc in zip(replies, burst):
            assert reply.rows == execute_scenario(sc)

    def test_fig9_burst_over_tcp_matches_direct_runner(self):
        """Real fig9 cells through a two-worker pool and the JSON wire
        come back byte-identical to a direct sequential run."""
        from repro.core.registry import resolve_experiment

        cells = list(resolve_experiment("fig9").scenarios(fast=True))
        burst = cells + cells[:4]
        runner = Runner(jobs=2, cache=ResultCache(memory_only=True))
        try:
            with BackgroundServer(runner, batch_wait=0.05) as server:
                with ServeClient(port=server.port) as client:
                    replies = client.submit_many(burst)
        finally:
            runner.close()
        assert all(r.ok for r in replies)
        assert runner.stats.executed == len(cells)
        direct = _runner().run(cells)
        rows_by_key = {r.scenario.key(): r.rows for r in direct}
        for reply, sc in zip(replies, burst):
            assert json.dumps(reply.rows) == json.dumps(rows_by_key[sc.key()])

    def test_per_request_faults_prevent_false_coalescing(self):
        CALLS.clear()
        sc = scenario("serve_test.cell", x=500)
        with BackgroundServer(_runner(), batch_wait=0.05) as server:
            with ServeClient(port=server.port) as client:
                plain = client.submit(sc)
                faulted = client.submit(
                    sc, faults="jitter:amplitude=1ms;seed=9"
                )
        assert plain.ok and faulted.ok
        assert len(CALLS) == 2  # different effective scenarios
        assert not faulted.coalesced

    def test_unknown_op_and_junk_lines_answered_not_fatal(self):
        import socket

        from repro.serve.protocol import decode_line, encode_line

        with BackgroundServer(_runner()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"this is not json\n")
                assert decode_line(reader.readline())["status"] == "error"
                sock.sendall(encode_line({"op": "frobnicate", "id": 1}))
                reply = decode_line(reader.readline())
                assert reply["status"] == "error"
                assert "frobnicate" in reply["error"]
                sock.sendall(encode_line({"op": "ping", "id": 2}))
                assert decode_line(reader.readline())["status"] == "pong"

    def test_workload_error_returns_error_response(self):
        with BackgroundServer(_runner()) as server:
            with ServeClient(port=server.port) as client:
                reply = client.submit(scenario("serve_test.no_such", x=1))
        assert reply.status == "error"
        assert reply.error

    def test_half_closed_client_still_gets_its_reply(self):
        # A client that stops sending is still answered before close.
        import socket

        from repro.serve.protocol import decode_line, encode_line

        sc = scenario("serve_test.cell", x=7, delay_ms=200)
        with BackgroundServer(_runner()) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(encode_line(
                    {"op": "submit", "id": 1,
                     "scenario": scenario_to_wire(sc)}
                ))
                sock.shutdown(socket.SHUT_WR)
                reply = decode_line(sock.makefile("rb").readline())
        assert reply["id"] == 1 and reply["status"] == "ok"
        assert reply["rows"] == [[7, 49]]

    def test_runner_options_reach_served_cells(self, tmp_path):
        # The server serves with the runner handed in: a runner-level
        # trace dir makes each executed cell write its trace file.
        from repro.core.registry import resolve_experiment

        sc = resolve_experiment("fig5").scenarios(fast=True)[0]  # 4 CPUs
        trace_dir = tmp_path / "traces"
        runner = Runner(cache=ResultCache(tmp_path / "cache"),
                        trace_dir=str(trace_dir))
        with BackgroundServer(runner) as server:
            with ServeClient(server.host, server.port) as client:
                assert client.submit(sc).ok
        assert len(list(trace_dir.glob("fig5.cell-*.trace.json"))) == 1

    def test_quota_rejects_greedy_client_over_tcp(self):
        sc = scenario("serve_test.cell", x=8)
        quota = QuotaPolicy(rate=0.5, burst=2)
        with BackgroundServer(_runner(), quota=quota) as server:
            with ServeClient(server.host, server.port,
                             client_id="greedy") as client:
                first = client.submit(sc)
                second = client.submit(sc)
                assert first.ok and second.ok
                third = client.submit(sc, retry=False)
                assert third.status == "rejected"
                assert third.reason == "quota"
                assert third.retry_after > 0
            # A different client has its own untouched bucket.
            with ServeClient(server.host, server.port,
                             client_id="patient") as client:
                assert client.submit(sc, retry=False).ok


class TestCrashIsolation:
    def test_worker_death_mid_burst_answers_everyone_and_keeps_serving(self):
        """A cell that kills its pool worker fails alone: every request
        of the burst gets exactly one reply, the innocents' rows equal
        a ``jobs=1`` run, and the server keeps serving after."""
        import socket

        from repro.run.runner import WORKER_DIED
        from repro.serve.protocol import decode_line, encode_line

        cells = [scenario("serve_test.cell", x=700 + i) for i in range(6)]
        culprit = scenario("serve_test.kill_worker")
        burst = cells[:3] + [culprit] + cells[3:] + cells[:2]
        runner = Runner(jobs=2, cache=ResultCache(memory_only=True))
        try:
            with BackgroundServer(runner, batch_wait=0.05) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=60
                ) as sock:
                    reader = sock.makefile("rb")
                    sock.sendall(b"".join(
                        encode_line({"op": "submit", "id": rid,
                                     "scenario": scenario_to_wire(sc)})
                        for rid, sc in enumerate(burst)
                    ))
                    replies: dict[int, list[dict]] = {}
                    for _ in burst:
                        reply = decode_line(reader.readline())
                        replies.setdefault(reply["id"], []).append(reply)
                    # Nothing else is queued for us: the next line
                    # answers this ping.
                    sock.sendall(encode_line({"op": "ping", "id": "after"}))
                    assert decode_line(reader.readline())["status"] == "pong"
                with ServeClient(port=server.port) as client:
                    later = client.submit_many(
                        [scenario("serve_test.cell", x=800 + i) for i in range(2)]
                    )
        finally:
            runner.close()
        assert sorted(replies) == list(range(len(burst)))
        assert all(len(got) == 1 for got in replies.values())
        dead = replies[burst.index(culprit)][0]
        assert dead["status"] == "error"
        assert WORKER_DIED in dead["error"]
        direct = {r.scenario.key(): r.rows for r in _runner().run(cells)}
        for rid, sc in enumerate(burst):
            if sc is culprit:
                continue
            (reply,) = replies[rid]
            assert reply["status"] == "ok", reply
            assert ServeClient._reply(reply).rows == direct[sc.key()]
        assert [r.rows for r in later] == [((800, 640000),), ((801, 641601),)]


class TestBadRequestFields:
    def test_bad_priority_gets_one_error_and_connection_survives(self):
        # 1e999 decodes to inf, and int(inf) raises OverflowError: the
        # request used to go unanswered.
        import socket

        from repro.serve.protocol import decode_line, encode_line

        wire = json.dumps(scenario_to_wire(scenario("serve_test.cell", x=1)))
        with BackgroundServer(_runner()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                reader = sock.makefile("rb")
                for rid, priority in enumerate(
                    [b"1e999", b"-1e999", b"NaN", b'"high"', b"[1]", b'{"a":1}']
                ):
                    sock.sendall(
                        b'{"op":"submit","id":%d,"priority":%s,"scenario":%s}\n'
                        % (rid, priority, wire.encode())
                    )
                    reply = decode_line(reader.readline())
                    assert reply["id"] == rid
                    assert reply["status"] == "error"
                    assert "priority" in reply["error"]
                sock.sendall(encode_line({"op": "ping", "id": "p"}))
                assert decode_line(reader.readline()) == {
                    "id": "p", "status": "pong", "protocol": 1,
                }


class TestStatsKeys:
    def test_mixed_session_key_set(self):
        """Full, coalesced, inline analytic, escalated and
        quota-rejected requests: the stats snapshot names every key a
        client or the e2e benchmark reads."""
        full = scenario("serve_test.cell", x=900)

        async def drive():
            service = ScenarioService(
                _runner(cache=ResultCache(memory_only=True)),
                quota=QuotaPolicy(rate=0.01, burst=1),
            )
            async with service:
                twins = await asyncio.gather(
                    service.submit(full, client_id="a"),
                    service.submit(full, client_id="b"),
                )
                assert twins[1].coalesced
                inline = await service.submit(
                    scenario("fig9.cell", processes=4, threads=1,
                             fidelity="analytic"),
                    client_id="c",
                )
                assert inline.ok and not inline.escalated
                escalated = await service.submit(
                    scenario("serve_test.cell", x=901, fidelity="analytic"),
                    client_id="d",
                )
                assert escalated.ok and escalated.escalated
                with pytest.raises(ServeRejected):
                    await service.submit(full, client_id="a")
            return service.stats(), service.runner.snapshot()

        stats, snapshot = asyncio.run(drive())
        # The runner's snapshot rides along verbatim.
        assert {k: stats[k] for k in snapshot} == snapshot
        assert sorted(stats) == [
            "cache.hits", "cache.misses", "cache.writes",
            "runner.cached", "runner.cells", "runner.errors",
            "runner.escalated", "runner.executed", "runner.fast",
            "serve.analytic.latency_p50_s", "serve.analytic.latency_p99_s",
            "serve.batch_cells", "serve.batch_occupancy", "serve.batches",
            "serve.coalesced", "serve.completed", "serve.escalated",
            "serve.escalated_cells", "serve.full.latency_p50_s",
            "serve.full.latency_p99_s", "serve.inflight", "serve.inline",
            "serve.latency_p50_s", "serve.latency_p99_s",
            "serve.queue_depth", "serve.quota_rejected", "serve.rejected",
            "serve.requests", "serve.requests.analytic",
            "serve.requests.full",
        ]
        assert stats["serve.requests"] == 5
        assert stats["serve.inline"] == 1
        assert stats["serve.quota_rejected"] == 1


class TestQuotaSingleService:
    """The QuotaPolicy on an in-process service."""

    def test_inprocess_quota_rejection_and_recovery(self):
        sc = scenario("serve_test.cell", x=1)

        async def drive():
            service = ScenarioService(
                Runner(jobs=1, cache=None),
                quota=QuotaPolicy(rate=50.0, burst=1),
            )
            async with service:
                first = await service.submit(sc, client_id="c")
                assert first.ok
                with pytest.raises(ServeRejected) as err:
                    await service.submit(sc, client_id="c")
                assert err.value.reason == "quota"
                assert err.value.retry_after > 0
                # The bucket refills: admitted again after the hint.
                await asyncio.sleep(err.value.retry_after)
                again = await service.submit(sc, client_id="c")
                assert again.ok
                totals = service.stats()
                assert totals["serve.quota_rejected"] == 1

        asyncio.run(drive())

    def test_anonymous_clients_share_one_bucket(self):
        sc = scenario("serve_test.cell", x=2)

        async def drive():
            service = ScenarioService(
                Runner(jobs=1, cache=None),
                quota=QuotaPolicy(rate=0.1, burst=1),
            )
            async with service:
                assert (await service.submit(sc)).ok
                with pytest.raises(ServeRejected):
                    await service.submit(sc)  # same anonymous bucket
                # A named client is unaffected.
                assert (await service.submit(sc, client_id="named")).ok

        asyncio.run(drive())

    def test_inline_quota_rejection_counted_once(self):
        sc = scenario("fig9.cell", processes=4, threads=1,
                      fidelity="analytic")

        async def drive():
            service = ScenarioService(
                Runner(jobs=1, cache=None),
                quota=QuotaPolicy(rate=0.01, burst=1),
            )
            async with service:
                first = await service.submit(sc, client_id="c")
                assert first.ok and not first.escalated
                with pytest.raises(ServeRejected):
                    await service.submit(sc, client_id="c")
                return service.stats()

        totals = asyncio.run(drive())
        assert totals["serve.requests"] == 2
        assert totals["serve.inline"] == 1
        assert totals["serve.rejected"] == 1
        assert totals["serve.quota_rejected"] == 1

    def test_tier_counters_sum_to_requests_under_rejections(self):
        analytic = scenario("fig9.cell", processes=4, threads=1,
                            fidelity="analytic")

        async def drive():
            service = ScenarioService(
                Runner(jobs=1, cache=None), max_queue=1,
                quota=QuotaPolicy(rate=0.01, burst=1),
            )
            # dispatcher not started: the queue can only fill
            queued = asyncio.ensure_future(
                service.submit(scenario("serve_test.cell", x=3),
                               client_id="a")
            )
            await asyncio.sleep(0)
            with pytest.raises(ServeRejected) as full:
                await service.submit(scenario("serve_test.cell", x=4),
                                     client_id="b")
            assert full.value.reason == "queue"
            assert (await service.submit(analytic, client_id="c")).ok
            with pytest.raises(ServeRejected) as empty:
                await service.submit(analytic, client_id="c")
            assert empty.value.reason == "quota"
            await service.start()
            assert (await queued).ok
            await service.close()
            return service.stats()

        totals = asyncio.run(drive())
        assert totals["serve.requests"] == 4
        assert totals["serve.requests.full"] == 2
        assert totals["serve.requests.analytic"] == 2
        assert totals["serve.rejected"] == 2
        assert sum(
            n for k, n in totals.items() if k.startswith("serve.requests.")
        ) == totals["serve.requests"]

    def test_quota_policy_validation(self):
        with pytest.raises(ConfigurationError):
            QuotaPolicy(rate=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            QuotaPolicy(rate=1.0, burst=0)


class TestServeCli:
    def test_help_lists_no_workers_option(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--max-queue" in out
        assert "--workers" not in out

    def test_workers_option_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workers", "2", "--port", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err
