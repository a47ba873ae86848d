"""The sharded serve tier: ring, routing, quotas, failover.

Worker processes are spawned with the ``fork`` start method, so the
workloads this module registers are visible inside them.  Workers run
``jobs=1`` (in-process execution), which is what makes SIGKILL tests
clean: killing a worker can never orphan a process pool.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import CommunicationError, ConfigurationError
from repro.run import ResultCache, Runner, scenario, workload
from repro.serve import QuotaPolicy, ServeClient
from repro.serve.shard import HashRing, ShardedServer


@workload("shard_test.cell")
def _cell(x: int = 0, delay_ms: int = 0) -> list[tuple]:
    if delay_ms:
        time.sleep(delay_ms / 1000.0)
    return [(x, x * x, f"cell-{x}")]


def _cells(n: int):
    return [scenario("shard_test.cell", x=i) for i in range(n)]


def _disk_runner(cache_dir):
    return Runner(jobs=1, cache=ResultCache(cache_dir))


def _direct_rows(cells):
    """Ground truth: each distinct cell through a direct Runner."""
    runner = Runner(jobs=1, cache=None)
    records = runner.run(list(cells))
    return {sc.key(): r.rows for sc, r in zip(cells, records)}


class TestHashRing:
    def test_balance_and_determinism(self):
        ring = HashRing([0, 1, 2])
        keys = [f"key-{i}" for i in range(900)]
        owners = [ring.lookup(k) for k in keys]
        assert owners == [ring.lookup(k) for k in keys]
        per = [owners.count(w) for w in (0, 1, 2)]
        assert min(per) > 0.5 * (900 / 3)  # no starved member

    def test_removal_moves_only_the_dead_members_keys(self):
        ring = HashRing([0, 1, 2])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(1)
        for k, owner in before.items():
            if owner == 1:
                assert ring.lookup(k) in (0, 2)
            else:
                assert ring.lookup(k) == owner

    def test_empty_ring_raises(self):
        ring = HashRing([0])
        ring.remove(0)
        with pytest.raises(CommunicationError):
            ring.lookup("anything")

    def test_add_is_idempotent(self):
        ring = HashRing([0])
        ring.add(0)
        assert len(ring) == 1


class TestShardedServer:
    def test_requires_cache_dir(self, tmp_path):
        for cache in (None, ResultCache(memory_only=True)):
            with pytest.raises(ConfigurationError, match="on-disk cache"):
                ShardedServer(Runner(cache=cache), workers=2)
        with pytest.raises(ConfigurationError, match="checkpoint"):
            ShardedServer(
                Runner(cache=ResultCache(tmp_path),
                       checkpoint=tmp_path / "sweep.jsonl"),
                workers=2,
            )

    def test_cli_rejects_no_cache_and_checkpoint_with_workers(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        base = ["serve", "--workers", "2", "--port", "0"]
        assert main(base + ["--no-cache"]) == 2
        assert main(base + ["--cache-dir", str(tmp_path), "--checkpoint",
                            str(tmp_path / "sweep.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "on-disk cache" in err and "checkpoint journal" in err

    def test_runner_options_reach_the_workers(self, tmp_path):
        # The workers serve with the runner handed in: a runner-level
        # trace dir makes each executed cell write its trace file.
        from repro.core.registry import resolve_experiment

        sc = resolve_experiment("fig5").scenarios(fast=True)[0]  # 4 CPUs
        trace_dir = tmp_path / "traces"
        runner = Runner(cache=ResultCache(tmp_path / "cache"),
                        trace_dir=str(trace_dir))
        with ShardedServer(runner, workers=1) as fleet:
            with ServeClient(fleet.host, fleet.port) as client:
                assert client.submit(sc).ok
        assert len(list(trace_dir.glob("fig5.cell-*.trace.json"))) == 1

    def test_duplicate_burst_coalesces_globally(self, tmp_path):
        """24 submits over 6 distinct cells against 3 workers: every
        duplicate must land on its cell's home worker, so the fleet
        executes each distinct cell exactly once."""
        cells = _cells(6)
        burst = [cells[i % len(cells)] for i in range(24)]
        want = _direct_rows(cells)
        with ShardedServer(_disk_runner(tmp_path), workers=3) as fleet:
            with ServeClient(fleet.host, fleet.port) as client:
                assert client.ping() == 1
                replies = client.submit_many(burst)
                stats = client.stats()
        assert all(r.ok for r in replies)
        for sc, reply in zip(burst, replies):
            assert reply.rows == want[sc.key()]
        assert stats["runner.executed"] == len(cells)
        assert stats["serve.coalesced"] > 0
        assert stats["shard.workers"] == 3
        assert stats["shard.routed"] == len(burst)
        assert stats["shard.worker_deaths"] == 0

    def test_kill_worker_mid_sweep_byte_identical(self, tmp_path):
        """The acceptance scenario: SIGKILL one worker mid-sweep; the
        survivors re-admit its cells through the shared cache and the
        total output is byte-identical to the healthy ground truth,
        with zero duplicate executions of completed cells."""
        cells = _cells(10)
        want = _direct_rows(cells)
        slow = scenario("shard_test.cell", x=99, delay_ms=800)
        with ShardedServer(_disk_runner(tmp_path), workers=3) as fleet:
            victim = fleet.worker_for(slow)
            with ServeClient(fleet.host, fleet.port) as client:
                # Phase 1 (all workers healthy): run the sweep once.
                replies = client.submit_many(cells)
                assert all(r.ok for r in replies)
                stats1 = client.stats()
                assert stats1["runner.executed"] == len(cells)

                # Phase 2: park a slow cell on the victim, kill it
                # mid-execution, and re-run the whole sweep plus the
                # orphaned cell.
                import threading

                got: dict = {}

                def _slow_submit():
                    with ServeClient(fleet.host, fleet.port) as other:
                        got["reply"] = other.submit(slow)

                thread = threading.Thread(target=_slow_submit)
                thread.start()
                time.sleep(0.3)  # slow cell now mid-execution
                fleet.kill_worker(victim)
                thread.join(timeout=30)
                assert not thread.is_alive()
                # The orphaned in-flight cell re-executed on a
                # survivor and still answered correctly.
                assert got["reply"].ok, got["reply"].error
                assert got["reply"].rows == (
                    (99, 99 * 99, "cell-99"),
                )

                replies2 = client.submit_many(cells)
                stats2 = client.stats()
            assert fleet.alive_workers() == 2
        assert all(r.ok for r in replies2)
        # Byte-identical to the healthy run, not just equal:
        healthy = json.dumps(
            [[list(row) for row in want[sc.key()]] for sc in cells]
        )
        after_kill = json.dumps(
            [[list(row) for row in r.rows] for r in replies2]
        )
        assert after_kill == healthy
        assert stats2["shard.workers"] == 2
        assert stats2["shard.worker_deaths"] == 1
        # Zero duplicate executions: the survivors' executed count can
        # only have grown by the one mid-flight cell the victim never
        # finished — every completed cell came back as a shared-disk
        # cache hit.
        survivors_executed = stats2["runner.executed"]
        assert survivors_executed <= len(cells) + 1
        assert stats2["cache.hits"] >= len(cells) - survivors_executed

    def test_pending_requests_redispatch_on_death(self, tmp_path):
        slow = scenario("shard_test.cell", x=5, delay_ms=1000)
        with ShardedServer(_disk_runner(tmp_path), workers=2) as fleet:
            victim = fleet.worker_for(slow)
            import threading

            got: dict = {}

            def _drive():
                with ServeClient(fleet.host, fleet.port) as client:
                    got["reply"] = client.submit(slow)

            thread = threading.Thread(target=_drive)
            thread.start()
            time.sleep(0.3)
            fleet.kill_worker(victim)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert got["reply"].ok
            with ServeClient(fleet.host, fleet.port) as client:
                stats = client.stats()
            assert stats["shard.redispatched"] >= 1
            assert stats["shard.worker_deaths"] == 1

    def test_quota_rejects_greedy_client_at_the_router(self, tmp_path):
        sc = _cells(1)[0]
        quota = QuotaPolicy(rate=0.5, burst=2)
        with ShardedServer(_disk_runner(tmp_path), workers=2,
                           quota=quota) as fleet:
            with ServeClient(fleet.host, fleet.port,
                             client_id="greedy") as client:
                first = client.submit(sc)
                second = client.submit(sc)
                assert first.ok and second.ok
                third = client.submit(sc, retry=False)
                assert third.status == "rejected"
                assert third.reason == "quota"
                assert third.retry_after > 0
            # A different client has its own untouched bucket.
            with ServeClient(fleet.host, fleet.port,
                             client_id="patient") as client:
                assert client.submit(sc, retry=False).ok

    def test_half_closed_client_still_gets_its_reply(self, tmp_path):
        # The router shares the single server's connection loop: a
        # client that stops sending is still answered before close.
        import socket

        from repro.serve import scenario_to_wire
        from repro.serve.protocol import decode_line, encode_line

        sc = scenario("shard_test.cell", x=7, delay_ms=200)
        with ShardedServer(_disk_runner(tmp_path), workers=1) as fleet:
            with socket.create_connection(
                (fleet.host, fleet.port), timeout=10
            ) as sock:
                sock.sendall(encode_line(
                    {"op": "submit", "id": 1,
                     "scenario": scenario_to_wire(sc)}
                ))
                sock.shutdown(socket.SHUT_WR)
                reply = decode_line(sock.makefile("rb").readline())
        assert reply["id"] == 1 and reply["status"] == "ok"
        assert reply["rows"] == [[7, 49, "cell-7"]]

    def test_batch_occupancy_is_a_fleet_max_not_a_sum(self, tmp_path):
        with ShardedServer(_disk_runner(tmp_path), workers=3,
                           max_batch=1) as fleet:
            with ServeClient(fleet.host, fleet.port) as client:
                assert all(r.ok for r in client.submit_many(_cells(40)))
                stats = client.stats()
        assert stats["serve.batches"] == 40
        assert 0 < stats["serve.batch_occupancy"] <= 1

    def test_fleet_stats_key_set(self, tmp_path):
        cells = _cells(4) + [
            scenario("fig9.cell", processes=4, threads=1, fidelity="analytic")
        ]
        with ShardedServer(_disk_runner(tmp_path), workers=2) as fleet:
            with ServeClient(fleet.host, fleet.port) as client:
                assert all(client.submit(sc).ok for sc in cells)
                stats = client.stats()
        assert sorted(stats) == [
            "cache.evicted_bytes", "cache.evictions", "cache.hits",
            "cache.misses", "cache.writes",
            "runner.cached", "runner.errors", "runner.executed",
            "serve.analytic.latency_p50_s", "serve.analytic.latency_p99_s",
            "serve.batch_cells", "serve.batch_occupancy", "serve.batches",
            "serve.completed", "serve.full.latency_p50_s",
            "serve.full.latency_p99_s", "serve.inflight", "serve.inline",
            "serve.latency_p50_s", "serve.latency_p99_s",
            "serve.queue_depth", "serve.requests",
            "serve.requests.analytic", "serve.requests.full",
            "shard.redispatched", "shard.rejected", "shard.routed",
            "shard.worker_deaths", "shard.workers",
        ]
        assert stats["serve.requests"] == len(cells)

    def test_shared_cache_dir_resolved_absolute(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        fleet = ShardedServer(Runner(cache=ResultCache("relative-cache")),
                              workers=1)
        assert fleet.cache_dir == str(tmp_path / "relative-cache")


class TestQuotaSingleService:
    """The same QuotaPolicy on the single-worker service."""

    def test_inprocess_quota_rejection_and_recovery(self):
        import asyncio

        from repro.serve import ScenarioService, ServeRejected

        sc = scenario("shard_test.cell", x=1)

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
        import asyncio

        from repro.serve import ScenarioService, ServeRejected

        sc = scenario("shard_test.cell", x=2)

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

    def test_escalating_nowait_spends_no_token(self):
        # submit_nowait of a cell that must escalate returns None; it
        # used to keep the token it charged, so the follow-up submit
        # of the same request was rejected for quota.
        import asyncio

        from repro.serve import ScenarioService, ServeRejected

        sc = scenario("shard_test.cell", x=3, fidelity="analytic")

        async def drive():
            service = ScenarioService(
                Runner(jobs=1, cache=None),
                quota=QuotaPolicy(rate=0.01, burst=1),
            )
            async with service:
                assert service.submit_nowait(sc, client_id="c") is None
                assert "serve.requests" not in service.stats()
                result = await service.submit(sc, client_id="c")
                assert result.ok and result.escalated
                with pytest.raises(ServeRejected):
                    await service.submit(sc, client_id="c")
                return service.stats()

        totals = asyncio.run(drive())
        assert totals["serve.requests"] == 2
        assert totals["serve.quota_rejected"] == 1

    def test_both_entries_count_a_rejection_once(self):
        import asyncio

        from repro.serve import ScenarioService, ServeRejected

        sc = scenario("fig9.cell", processes=4, threads=1,
                      fidelity="analytic")

        async def drive():
            service = ScenarioService(
                Runner(jobs=1, cache=None),
                quota=QuotaPolicy(rate=0.01, burst=1),
            )
            async with service:
                assert service.submit_nowait(sc, client_id="c").ok
                with pytest.raises(ServeRejected):
                    service.submit_nowait(sc, client_id="c")
                with pytest.raises(ServeRejected):
                    await service.submit(sc, client_id="c")
                return service.stats()

        totals = asyncio.run(drive())
        assert totals["serve.requests"] == 3
        assert totals["serve.rejected"] == 2
        assert totals["serve.quota_rejected"] == 2

    def test_quota_policy_validation(self):
        with pytest.raises(ConfigurationError):
            QuotaPolicy(rate=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            QuotaPolicy(rate=1.0, burst=0)
