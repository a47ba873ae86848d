"""Tests for the ``repro.obs`` observability subsystem."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.machine.cluster import single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.mpi import run_mpi
from repro.mpi.collectives import allreduce, alltoall, barrier
from repro.npb.mz_des import des_step_time
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    critical_path,
    current_tracer,
    decompose,
    spans_to_csv,
    to_chrome_json,
    use_tracer,
    validate_chrome_trace,
)
from repro.obs.counters import CounterSet
from repro.obs.spans import RECV_LANE, SEND_LANE
from repro.openmp.team import run_parallel_for

_EPS = 1e-12


def placement(p, **kw):
    return Placement(single_node(NodeType.BX2B), n_ranks=p, **kw)


def assert_properly_nested(tracer):
    """Every (rank, thread) track must nest spans properly (no partial
    overlap) — the invariant the exporter and critical path rely on."""
    tracks = {}
    for s in tracer.spans:
        tracks.setdefault((s.rank, s.thread), []).append(s)
    for (rank, thread), spans in tracks.items():
        stack = []
        for s in sorted(spans, key=lambda s: (s.t0, -s.t1)):
            while stack and stack[-1].t1 <= s.t0 + _EPS:
                stack.pop()
            if stack:
                assert s.t1 <= stack[-1].t1 + _EPS, (
                    f"track ({rank}, {thread}): span {s} partially overlaps "
                    f"{stack[-1]}"
                )
            stack.append(s)


def exchange_program(comm):
    r = comm.rank
    yield comm.compute(1e-4 * (r + 1))
    comm.isend((r + 1) % comm.size, 4096, tag=7)
    yield comm.irecv((r - 1) % comm.size, tag=7)
    yield from allreduce(comm, 8, float(r))
    yield from barrier(comm)


class TestTracerSpans:
    def test_begin_end_records_span(self):
        t = Tracer()
        h = t.begin(0, "compute", "work", 1.0)
        t.end(h, 2.5)
        (span,) = t.spans
        assert (span.rank, span.cat, span.t0, span.t1) == (0, "compute", 1.0, 2.5)

    def test_end_twice_raises(self):
        t = Tracer()
        h = t.begin(0, "compute", "work", 0.0)
        t.end(h, 1.0)
        with pytest.raises(ObservabilityError):
            t.end(h, 2.0)

    def test_end_before_begin_time_raises(self):
        t = Tracer()
        h = t.begin(0, "compute", "work", 5.0)
        with pytest.raises(ObservabilityError):
            t.end(h, 4.0)

    def test_parent_end_closes_open_children(self):
        t = Tracer()
        outer = t.begin(0, "collective", "allreduce", 0.0)
        t.begin(0, "compute", "local", 0.5)  # never explicitly ended
        t.end(outer, 2.0)
        assert t.span_count == 2
        assert all(s.t1 == 2.0 for s in t.spans)

    def test_capacity_ring_drops_oldest(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.complete(0, "compute", f"s{i}", float(i), float(i) + 0.5)
        assert t.span_count == 2
        assert t.dropped_spans == 3
        assert [s.name for s in t.spans] == ["s3", "s4"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)

    def test_send_queueing_recorded_as_wait(self):
        t = Tracer()
        t.record_send(1.0, 0, 1, 5, 100.0, 1.5, 2.0, 3.0)
        cats = sorted(s.cat for s in t.spans)
        assert cats == ["send", "wait"]
        wait = next(s for s in t.spans if s.cat == "wait")
        assert (wait.t0, wait.t1) == (1.0, 1.5)
        assert all(s.thread == SEND_LANE for s in t.spans)

    def test_overlapping_recv_waits_get_distinct_lanes(self):
        t = Tracer()
        assert t._wait_lane(0, 0.0, 2.0) == RECV_LANE
        assert t._wait_lane(0, 1.0, 3.0) == RECV_LANE + 2  # overlaps first
        assert t._wait_lane(0, 2.5, 4.0) == RECV_LANE  # first lane free again


class TestCounters:
    def test_add_accumulates_and_samples(self):
        c = CounterSet()
        c.add("bytes", 10.0, t=0.0)
        c.add("bytes", 5.0, t=1.0)
        assert c.get("bytes") == 15.0
        assert c.series("bytes") == [(0.0, 10.0), (1.0, 15.0)]

    def test_interval_folds_dense_samples(self):
        c = CounterSet(interval=1.0)
        c.add("n", 1, t=0.0)
        c.add("n", 1, t=0.2)  # inside the interval: folded into last
        c.add("n", 1, t=1.5)
        assert c.get("n") == 3
        # The 0.2 sample folds into the 0.0 one instead of adding a point.
        assert c.series("n") == [(0.0, 2), (1.5, 3)]

    def test_gauge_set(self):
        c = CounterSet()
        c.set("depth", 7, t=0.5)
        c.set("depth", 3, t=1.0)
        assert c.get("depth") == 3
        assert c.totals()["depth"] == 3


class TestNullTracer:
    def test_records_nothing(self):
        n = NullTracer()
        h = n.begin(0, "compute", "x", 0.0)
        n.end(h, 1.0)
        n.complete(0, "compute", "x", 0.0, 1.0)
        n.instant(0, "compute", "x", 0.0)
        assert n.record_send(0.0, 0, 1, 0, 8.0, 0.0, 0.0, 1.0) == -1
        assert n.span_count == 0
        assert len(n.spans) == 0
        assert len(n.messages) == 0
        assert len(n.counters) == 0

    def test_null_tracer_disables_world_hooks(self):
        with use_tracer(NULL_TRACER):
            job = run_mpi(placement(4), exchange_program)
        assert job.elapsed > 0
        assert NULL_TRACER.span_count == 0

    def test_ambient_context_restores(self):
        assert current_tracer() is None
        t = Tracer()
        with use_tracer(t):
            assert current_tracer() is t
        assert current_tracer() is None

    def test_ambient_context_is_per_thread(self):
        import threading

        seen = []
        with use_tracer(Tracer()):
            thread = threading.Thread(target=lambda: seen.append(current_tracer()))
            thread.start()
            thread.join(timeout=30)
        assert seen == [None]


class TestTracedRuns:
    def test_traced_and_untraced_identical_times(self):
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run_mpi(placement(4), exchange_program)
        untraced = run_mpi(placement(4), exchange_program)
        assert traced.elapsed == untraced.elapsed
        assert traced.finish_times == untraced.finish_times
        assert tracer.span_count > 0

    def test_traced_des_step_identical_time(self):
        tracer = Tracer()
        traced = des_step_time("bt-mz", "W", placement(8, threads_per_rank=2),
                               tracer=tracer)
        untraced = des_step_time("bt-mz", "W", placement(8, threads_per_rank=2))
        assert traced.elapsed == untraced.elapsed
        assert tracer.span_count > 0

    def test_spans_from_three_layers(self):
        """MPI p2p, collectives, and OpenMP all appear in one trace."""
        tracer = Tracer()
        des_step_time("bt-mz", "W", placement(8, threads_per_rank=2),
                      tracer=tracer)
        cats = tracer.by_category()
        assert cats.get("send", 0) > 0          # MPI point-to-point
        assert cats.get("collective", 0) > 0    # collectives
        assert cats.get("omp_region", 0) > 0    # OpenMP
        assert_properly_nested(tracer)

    def test_message_fifo_pairing(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_mpi(placement(4), exchange_program)
        paired = [s for s in tracer.spans
                  if s.cat == "wait" and s.name.startswith("recv")
                  and s.args and "msg" in s.args]
        assert paired
        for s in paired:
            msg_id = s.args["msg"]
            m = tracer.messages[msg_id]
            # The wait ends exactly when the message arrives (or later,
            # never before).
            assert s.t1 >= m.arrival - 1e-12

    def test_collective_span_covers_member_sends(self):
        tracer = Tracer()

        def prog(comm):
            yield from alltoall(comm, 512.0)

        with use_tracer(tracer):
            run_mpi(placement(4), prog)
        coll = [s for s in tracer.spans if s.cat == "collective"]
        assert len(coll) == 4  # one alltoall span per rank
        assert all(s.name == "alltoall" for s in coll)

    def test_engine_counters_sampled(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_mpi(placement(4), exchange_program)
        totals = tracer.counters.totals()
        assert totals["mpi.messages"] > 0
        assert totals["mpi.bytes"] > 0
        assert "engine.pending_events" in totals

    def test_runs_with_os_noise_still_identical(self):
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run_mpi(placement(4), exchange_program,
                             os_noise=0.05, noise_seed=3)
        untraced = run_mpi(placement(4), exchange_program,
                           os_noise=0.05, noise_seed=3)
        assert traced.elapsed == untraced.elapsed


class TestNestingProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        costs=st.lists(st.floats(min_value=0.0, max_value=1e-3),
                       min_size=1, max_size=12),
        threads=st.integers(min_value=1, max_value=4),
        schedule=st.sampled_from(["static", "dynamic"]),
    )
    def test_parallel_for_spans_nest(self, costs, threads, schedule):
        tracer = Tracer()
        run_parallel_for(costs, threads, schedule=schedule, tracer=tracer,
                         rank=0, t_offset=0.25)
        assert_properly_nested(tracer)
        region = [s for s in tracer.spans if s.cat == "omp_region"]
        assert len(region) == 1
        assert region[0].t0 == 0.25
        chunks = [s for s in tracer.spans if s.cat == "compute"]
        assert len(chunks) == len(costs)

    @settings(max_examples=10, deadline=None)
    @given(n_ranks=st.sampled_from([2, 4, 8]),
           nbytes=st.floats(min_value=1.0, max_value=1e6))
    def test_mpi_trace_nests_per_track(self, n_ranks, nbytes):
        tracer = Tracer()

        def prog(comm):
            r = comm.rank
            yield comm.compute(1e-5 * (r + 1))
            comm.isend((r + 1) % comm.size, nbytes, tag=3)
            yield comm.irecv((r - 1) % comm.size, tag=3)
            yield from barrier(comm)

        with use_tracer(tracer):
            run_mpi(placement(n_ranks), prog)
        assert_properly_nested(tracer)


class TestAnalysis:
    def _traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_mpi(placement(4), exchange_program)
        return tracer

    def test_decompose_buckets_positive(self):
        d = decompose(self._traced())
        assert len(d.ranks) == 4
        totals = d.totals()
        assert totals.compute > 0
        assert totals.wait > 0
        assert abs(sum(r.fraction("compute") +
                       r.fraction("comm") +
                       r.fraction("wait") for r in d.ranks) - 4.0) < 1e-9

    def test_decompose_format_has_all_row(self):
        text = decompose(self._traced()).format()
        assert "all" in text
        assert "elapsed:" in text

    def test_critical_path_ends_at_last_span(self):
        tracer = self._traced()
        path = critical_path(tracer)
        assert path
        last = max(tracer.spans, key=lambda s: (s.t1, s.t0))
        assert path[-1] is last
        # Forward time order (successive spans never end earlier than
        # their predecessor started).
        for a, b in zip(path, path[1:]):
            assert b.t1 >= a.t0 - 1e-12

    def test_critical_path_crosses_ranks(self):
        path = critical_path(self._traced())
        assert len({s.rank for s in path}) > 1

    def test_export_valid_and_csv(self):
        tracer = self._traced()
        doc = json.loads(to_chrome_json(tracer))
        assert validate_chrome_trace(doc) == []
        csv_text = spans_to_csv(tracer)
        header, *rows = csv_text.splitlines()
        assert header == "rank,thread,cat,name,t0_s,t1_s,dur_s"
        assert len(rows) == tracer.span_count

    def test_empty_trace_export_refused(self):
        from repro.obs import write_chrome_trace

        with pytest.raises(ObservabilityError):
            write_chrome_trace(Tracer(), "/tmp/should-not-exist.json")
