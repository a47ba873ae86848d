"""The four workloads and the measurement of one run of each.

A *run* is one workload measured for ``seconds``: passes (or serve
sessions) are repeated, each in fresh processes, until the next one
would overrun the budget — at least one.  The run's calibration process
samples a frozen workload throughout, and each time is divided by the
box's slowdown while that pass ran, so the time metrics read in seconds
at the calibrated speed.  A run reports the median of its passes for
every end-to-end metric, so one slow pass cannot move it.
A traced run spends half its budget untraced (the reference for
``trace.overhead_frac``) and half with the layer wrappers installed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.e2e import golden as golden_mod
from benchmarks.e2e.calibrate import NOMINAL_S
from benchmarks.e2e.stats import tail
from benchmarks.e2e.tracing import chrome_document

__all__ = [
    "ROOT",
    "WORKLOADS",
    "BenchmarkError",
    "check_pass",
    "end_to_end",
    "experiment_order",
    "layer_metrics",
    "run_workload",
    "serve_streams",
]

ROOT = Path(__file__).resolve().parents[2]
WORK = Path(__file__).resolve().parent / ".work"

#: Paper workload -> (fast sweeps, jobs, warm cache).  Why each
#: workload was chosen is stated once, in BENCHMARK.json.
PAPER = {
    "paper_full_cold": (False, 1, False),
    "paper_full_warm": (False, 1, True),
    "paper_fast_jobs2": (True, 2, False),
}
SERVE = "serve_mixed"
WORKLOADS = (*PAPER, SERVE)

#: Set-up is sampled at least this many times per run.
SETUP_SAMPLES = 5
#: A pass shorter than this is calibrated over the samples of a window
#: this long around it (about ten samples).
CALIBRATION_WINDOW_S = 2.0
#: Serve load: interactive submits, sweep bursts x cells per burst.
INTERACTIVE, BURSTS, BURST_CELLS = 1000, 40, 16
ANALYTIC_SHARE = 0.4
#: Seconds a child or the server may take before the run gives up.
CHILD_TIMEOUT = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself could not complete a run."""


# -- processes ----------------------------------------------------------------


class _Context:
    """Per-run scratch directory, child-process launching and the run's
    calibration process (:mod:`benchmarks.e2e.calibrate`)."""

    def __init__(self) -> None:
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._n = 0
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}",
        }
        self._calibrator = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.calibrate"],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self._calibration()  # "ready"
        except BenchmarkError:
            self._calibrator.kill()
            self._calibrator.wait()
            raise

    def _calibration(self) -> str:
        line = self._calibrator.stdout.readline()
        if not line:
            raise BenchmarkError("calibration process exited")
        return line

    def calibrate(self, results: list[dict]) -> None:
        """Give each timed result (``t0``/``t1``) its ``slowdown``: the
        median calibration sample taken while it ran, over a window of
        at least :data:`CALIBRATION_WINDOW_S` centred on it."""
        self._calibrator.stdin.write("\n")
        self._calibrator.stdin.flush()
        samples = json.loads(self._calibration())
        for res in results:
            pad = max(0.0, CALIBRATION_WINDOW_S - (res["t1"] - res["t0"])) / 2
            inside = [
                cpu for t, cpu in samples
                if res["t0"] - pad <= t <= res["t1"] + pad
            ]
            if not inside:
                raise BenchmarkError("no calibration sample while a pass ran")
            res["slowdown"] = statistics.median(inside) / NOMINAL_S

    def fresh(self, tag: str) -> Path:
        self._n += 1
        return self.dir / f"{tag}-{self._n}"

    def child(self, job: dict) -> dict:
        """Run one child job; its JSON result gets ``setup_s``."""
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"child timed out: {job['mode']}") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"child failed:\n{proc.stderr[-3000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - spawn
        return out

    def close(self) -> None:
        self._calibrator.stdin.close()
        try:
            self._calibrator.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._calibrator.kill()
            self._calibrator.wait()
        self._calibrator.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _repeat(fn, budget: float = 0.0, at_least: int = 1) -> list:
    """Call ``fn`` at least ``at_least`` times and until one more call
    would overrun ``budget`` s; each result records when it ran."""
    out = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        res = fn()
        now = time.monotonic()
        res["t0"], res["t1"] = t, now
        out.append(res)
        if len(out) >= at_least and now - start + (now - t) > budget:
            return out


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- paper workloads ----------------------------------------------------------


def check_pass(res: dict, want: dict, warm: bool) -> None:
    bad = [e for e, d in want.items() if res["digests"].get(e) != d]
    res["problems"] = [f"{e}: output differs from golden" for e in bad]
    res["problems"] += res["failures"]
    misses = res["executed"] if warm else 0
    if misses:
        res["problems"].append(f"{misses} cache misses in a warm pass")
    res["attempted"] = res["cells"]
    res["failed"] = res["errors"] + len(bad) + misses


def _warm_cache(ctx: _Context, golden: dict) -> Path:
    """The warm workload's cache, written once per source tree by an
    untimed jobs=2 cold pass and only read afterwards."""
    final = WORK / f"warm-{_source_digest()}"
    if final.is_dir():
        return final
    for old in WORK.glob("warm-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp = ctx.fresh("warm")
    res = ctx.child({
        "mode": "pass", "order": golden["experiments"], "fast": False,
        "jobs": 2, "cache": str(tmp),
    })
    check_pass(res, golden["format"]["full"], warm=False)
    if res["failed"]:
        raise BenchmarkError(f"warm cache fill failed: {res['problems'][:3]}")
    tmp.rename(final)
    return final


def experiment_order(seed: int, experiments) -> list[str]:
    """The seeded experiment order of every pass of one run."""
    order = list(experiments)
    random.Random(seed).shuffle(order)
    return order


def _paper_passes(name: str, seed: int, ctx: _Context, golden: dict):
    """Passes alternate the seeded order and its reverse.  Under
    ``jobs=2`` an experiment's time depends on where it runs: pools fork
    from the parent, so workers inherit only the modules the parent had
    imported by then, and one order measured 45% slower than another.
    Reversing moves each experiment to the mirror position, so the mean
    of a pair no longer depends on which order the seed drew."""
    fast, jobs, warm = PAPER[name]
    order = experiment_order(seed, golden["experiments"])
    orders = itertools.cycle([order, order[::-1]])
    want = golden["format"]["fast" if fast else "full"]
    cache = _warm_cache(ctx, golden) if warm else None

    def one(trace: bool) -> dict:
        where = cache if warm else ctx.fresh("cache")
        res = ctx.child({
            "mode": "pass", "order": next(orders), "fast": fast,
            "jobs": jobs, "cache": str(where), "trace": trace,
        })
        if not warm:
            shutil.rmtree(where, ignore_errors=True)
        check_pass(res, want, warm)
        if trace:
            res["processes"] = [(f"{name} pass", res["trace"]["spans"])]
        return res

    def probe() -> dict:
        res = ctx.child({"mode": "setup", "cache": str(ctx.fresh("probe"))})
        return {"setup_s": res["setup_s"]}

    return one, probe


# -- serve workload -----------------------------------------------------------


def serve_streams(seed: int, golden: dict):
    """Seeded request streams over the serve pool, with the golden row
    digest each reply must match.

    Popularity is Zipf (s=1) over a seed-shuffled pool.  The sweep
    first covers the whole pool once in a seeded order and then draws
    by popularity, so every cell executes exactly once per session:
    the seed moves *when* cells miss, not how much DES work a session
    holds.
    """
    pool = golden_mod.serve_pool()
    rng = random.Random(seed)
    rng.shuffle(pool)
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    cells = golden["cells"]

    def expect(sc, fid):
        if fid == "analytic":
            sc = dataclasses.replace(sc, fidelity=fid)
        return cells[fid][golden_mod.cell_id(sc)]

    interactive = []
    for sc in rng.choices(pool, weights, k=INTERACTIVE):
        fid = "analytic" if rng.random() < ANALYTIC_SHARE else "full"
        interactive.append((sc, fid, expect(sc, fid)))
    total = BURSTS * BURST_CELLS
    draws = rng.sample(pool, len(pool))
    draws += rng.choices(pool, weights, k=total - len(draws))
    bursts = [
        [(sc, expect(sc, "full")) for sc in draws[i:i + BURST_CELLS]]
        for i in range(0, total, BURST_CELLS)
    ]
    return interactive, bursts


def _await_port(proc: subprocess.Popen) -> int:
    deadline = time.monotonic() + CHILD_TIMEOUT
    while True:
        left = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, left))
        if not ready:
            raise BenchmarkError("serve launcher never reported its port")
        line = proc.stdout.readline()
        if not line:
            raise BenchmarkError("serve launcher exited before listening")
        if "listening on" in line:
            return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])


def _stop_server(proc: subprocess.Popen) -> dict:
    """Close the launcher's stdin, which stops it, and read its report."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("serve launcher did not stop") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"serve launcher failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _serve_sessions(seed: int, ctx: _Context, golden: dict):
    from repro.serve.client import ServeClient

    interactive, bursts = serve_streams(seed, golden)

    def launch(trace: bool):
        cmd = [sys.executable, "-m", "benchmarks.e2e.server", str(ctx.fresh("serve"))]
        if trace:
            cmd.append("--trace")
        with open(ctx.fresh("server-log"), "w") as log:
            return subprocess.Popen(
                cmd, cwd=ROOT, env=ctx.env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )

    def one(trace: bool) -> dict:
        spawn = time.monotonic()
        proc = launch(trace)
        try:
            with ServeClient(port=_await_port(proc), timeout=CHILD_TIMEOUT) as ia:
                ia.ping()
                setup = time.monotonic() - spawn
                res = _session(ServeClient, ia, interactive, bursts)
        finally:
            server = _stop_server(proc)
        res["setup_s"] = setup
        res["import_s"] = server["import_s"]
        res["maxrss_mb"] = server["maxrss_mb"]
        if trace:
            res["trace"] = server["trace"]
            res["processes"] = [
                ("serve client", res["client_spans"]),
                ("serve server", server["trace"]["spans"]),
            ]
        return res

    def probe() -> dict:
        spawn = time.monotonic()
        proc = launch(False)
        try:
            with ServeClient(port=_await_port(proc), timeout=CHILD_TIMEOUT) as c:
                c.ping()
                return {"setup_s": time.monotonic() - spawn}
        finally:
            _stop_server(proc)

    return one, probe


def _session(ServeClient, ia, interactive, bursts) -> dict:
    """One closed-loop session: interactive submits on connection ``ia``
    from this thread, the sweep's bursts on a second connection from a
    second thread."""
    inter: list[tuple] = []
    burst_s: list[float] = []
    sweep: list[tuple] = []
    spans: list[tuple] = []
    span_ids = itertools.count(1)
    errors: list[BaseException] = []
    ends = [0.0, 0.0]

    with ServeClient(port=ia.port, timeout=CHILD_TIMEOUT) as sw:

        def run_sweep() -> None:
            try:
                for burst in bursts:
                    t = time.monotonic()
                    replies = sw.submit_many([sc for sc, _ in burst], retry=False)
                    t1 = time.monotonic()
                    burst_s.append(t1 - t)
                    spans.append((next(span_ids), 0, "serve.burst", t, t1, 1, None))
                    sweep.extend((r, want) for r, (_, want) in zip(replies, burst))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
            finally:
                ends[1] = time.monotonic()

        start = time.monotonic()
        thread = threading.Thread(target=run_sweep, name="e2e-sweep")
        thread.start()
        try:
            for sc, fid, want in interactive:
                t = time.monotonic()
                reply = ia.submit(sc, fidelity=fid, retry=False)
                t1 = time.monotonic()
                inter.append((reply, want, fid, t1 - t))
                spans.append(
                    (next(span_ids), 0, "serve.request", t, t1, 0, sc.key()[:12])
                )
            ends[0] = time.monotonic()
        finally:
            thread.join()
        if errors:
            raise errors[0]
    stats = ia.stats()

    replies = [(r, want) for r, want, _, _ in inter] + sweep
    bad = [r for r, want in replies if not r.ok or golden_mod.rows_digest(r.rows) != want]
    wall = max(ends) - start
    full = [(r, lat) for r, _, fid, lat in inter if fid == "full"]
    executed = [
        r for r in [r for r, _ in full] + [r for r, _ in sweep]
        if r.ok and not r.cached and not r.coalesced
    ]
    return {
        "wall_s": wall,
        "attempted": len(replies),
        "failed": len(bad),
        "problems": [f"serve reply {r.status}: {r.error or 'rows differ from golden'}" for r in bad[:5]],
        "serve": {
            "serve.latency_p50_ms": _p50_ms([lat for *_, lat in inter]),
            "serve.latency_p99_ms": _tail_ms([lat for *_, lat in inter]),
            "serve.transport_ms_p50": _p50_ms([lat - r.latency_s for r, _, _, lat in inter]),
            "serve.transport_ms_tail": _tail_ms([lat - r.latency_s for r, _, _, lat in inter]),
            "serve.queue_wait_ms_p50": _p50_ms([r.latency_s - r.duration_s for r, _ in full]),
            "serve.queue_wait_ms_tail": _tail_ms([r.latency_s - r.duration_s for r, _ in full]),
            "serve.exec_ms_p50": _p50_ms([r.duration_s for r in executed]),
            "serve.exec_ms_tail": _tail_ms([r.duration_s for r in executed]),
            "serve.miss_latency_p50_ms": _p50_ms(
                [lat for r, lat in full if not r.cached and not r.coalesced]
            ),
            "serve.burst_p50_ms": _p50_ms(burst_s),
            "serve.req_per_s": len(replies) / wall,
            "serve.cached_frac": sum(r.cached for r, _ in replies) / len(replies),
            "serve.coalesced_frac": sum(r.coalesced for r, _ in replies) / len(replies),
            "serve.inline_frac": stats.get("serve.inline", 0.0)
            / max(1.0, stats.get("serve.requests", 0.0)),
            "serve.mean_batch": stats.get("serve.batch_cells", 0.0)
            / max(1.0, stats.get("serve.batches", 0.0)),
        },
        "client_spans": spans,
    }


# -- metrics ------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p50_ms(seconds) -> float:
    return 1e3 * _median(seconds)


def _tail_ms(seconds) -> float:
    found = tail(seconds)
    return 1e3 * found[0] if found else 0.0


#: Per-session serve metrics (client side), 0 on the paper workloads.
SERVE_METRICS = (
    "serve.latency_p50_ms", "serve.latency_p99_ms", "serve.transport_ms_p50",
    "serve.transport_ms_tail", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_tail", "serve.exec_ms_p50",
    "serve.exec_ms_tail", "serve.miss_latency_p50_ms", "serve.burst_p50_ms",
    "serve.req_per_s", "serve.cached_frac", "serve.coalesced_frac",
    "serve.inline_frac", "serve.mean_batch",
)


def _calibrated(samples: list[dict], key: str) -> float:
    """Median of ``key`` in seconds at the calibrated speed."""
    return _median([s[key] / s["slowdown"] for s in samples])


def _pair_means(values: list[float]) -> list[float]:
    """Means of consecutive passes (an order and its reverse); a lone
    pass stands for itself."""
    if len(values) < 2:
        return values
    return [(a + b) / 2 for a, b in zip(values[::2], values[1::2])]


def _wall(passes: list[dict], calibrated: bool = True) -> float:
    """Median over pass pairs of the pair's mean wall time."""
    return _median(_pair_means([
        p["wall_s"] / (p["slowdown"] if calibrated else 1.0) for p in passes
    ]))


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    """Medians over the run's set-ups and passes; times are at the
    calibrated speed (:mod:`benchmarks.e2e.calibrate`)."""
    return {
        "setup_s": _calibrated(setups, "setup_s"),
        "wall_s": _wall(passes),
        "peak_rss_mb": _median([p["maxrss_mb"] for p in passes]),
    }


def measured(passes: list[dict], setups: list[dict]) -> dict:
    """The same medians as measured, with the run's median slowdown."""
    return {
        "setup_s": _median([s["setup_s"] for s in setups]),
        "wall_s": _wall(passes, calibrated=False),
        "slowdown": _median([s["slowdown"] for s in passes + setups]),
    }


def serve_metrics(passes: list[dict]) -> dict:
    """Median over sessions of each client-side serve metric (0 when
    the workload has no serve sessions)."""
    return {
        key: _median([p["serve"][key] for p in passes if "serve" in p])
        for key in SERVE_METRICS
    }


def _layer_table(passes: list[dict]) -> tuple[dict, dict]:
    """Per-pass mean ``{layer: [calls, total_s, self_s]}`` and counts."""
    table: dict[str, list] = {}
    counts: dict[str, float] = {}
    n = len(passes)
    for p in passes:
        trace = p.get("trace") or {}
        for name, (calls, total, self_s) in trace.get("layers", {}).items():
            row = table.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += calls / n
            row[1] += total / n
            row[2] += self_s / n
        for name, value in trace.get("counts", {}).items():
            counts[name] = counts.get(name, 0.0) + value / n
    return table, counts


def layer_metrics(table, counts, passes, experiments, overhead) -> dict:
    def calls(name):
        return table.get(name, (0, 0, 0))[0]

    def total(name):
        return table.get(name, (0, 0, 0))[1]

    def self_s(name):
        return table.get(name, (0, 0, 0))[2]

    def frac(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {
        "setup.import_s": _median([p["import_s"] for p in passes if "import_s" in p]),
        "setup.ready_s": _median([p["setup_s"] for p in passes]),
    }
    for eid in experiments:
        m[f"core.exp.{eid}_s"] = total(f"core.exp.{eid}")
    m["core.experiment_self_s"] = sum(self_s(f"core.exp.{e}") for e in experiments)
    m["core.format_s"] = self_s("core.format")
    m.update({
        "run.runner.calls": calls("run.runner"),
        "run.runner.self_s": self_s("run.runner"),
        "run.scenario.key_calls": calls("run.scenario.key"),
        "run.scenario.key_s": self_s("run.scenario.key"),
        "run.cache.get_calls": calls("run.cache.get"),
        "run.cache.get_s": self_s("run.cache.get"),
        "run.cache.hit_ratio": frac(counts.get("run.cache.hits", 0), calls("run.cache.get")),
        "run.cache.put_calls": calls("run.cache.put"),
        "run.cache.put_s": self_s("run.cache.put"),
        "run.cache.bytes_written": _median([p.get("bytes_written", 0) for p in passes]),
        "run.cells": calls("run.cell"),
        "run.cell_s": total("run.cell"),
        "run.cell.failed": counts.get("run.cell.failed", 0),
        "run.pool.pools": counts.get("run.pool.pools", 0),
        "run.pool.busy_frac": frac(counts.get("run.pool.busy_s", 0), counts.get("run.pool.capacity_s", 0)),
        "run.pool.overhead_s": counts.get("run.pool.overhead_s", 0),
        "shmem.decode_calls": calls("shmem.decode"),
        "shmem.decode_s": self_s("shmem.decode"),
        "shmem.pickle_cells": counts.get("shmem.pickle_cells", 0),
        "machine.build_calls": calls("machine.build"),
        "machine.build_s": self_s("machine.build"),
        "machine.placement_calls": calls("machine.placement"),
        "machine.placement_s": self_s("machine.placement"),
        "netmodel.models": calls("netmodel.model"),
        "netmodel.model_s": self_s("netmodel.model"),
        "netmodel.path_stats_calls": calls("netmodel.path_stats"),
        "netmodel.path_stats_s": self_s("netmodel.path_stats"),
        "netmodel.collective_models": calls("netmodel.collective_model"),
        "netmodel.collective_model_s": self_s("netmodel.collective_model"),
        "sim.runs": calls("sim.run"),
        "sim.run_s": self_s("sim.run"),
        "sim.events": counts.get("sim.events", 0),
        "sim.events_per_s": frac(counts.get("sim.events", 0), self_s("sim.run")),
        "sim.processes": counts.get("sim.processes", 0),
        "mpi.worlds": calls("mpi.world_init"),
        "mpi.world_init_s": self_s("mpi.world_init"),
        "mpi.messages": counts.get("mpi.messages", 0),
        "mpi.bytes": counts.get("mpi.bytes", 0),
        "apps.self_s": self_s("run.cell"),
        "surrogate.cells": calls("surrogate.eval"),
        "surrogate.eval_s": self_s("surrogate.eval"),
    })
    m.update(serve_metrics(passes))
    m.update({
        "trace.coverage": frac(total("pass") - self_s("pass"), total("pass")),
        "trace.overhead_frac": overhead,
        "calib.slowdown": _median([p["slowdown"] for p in passes]),
    })
    return m


# -- one run ------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, golden: dict
) -> dict:
    """Measure one run of workload ``name``.

    Returns ``attempted``/``failed``/``problems``, the end-to-end
    ``metrics`` (untraced) or the per-layer ``metrics`` and layer
    ``table`` plus a Chrome ``trace`` document (traced).
    """
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; know {sorted(WORKLOADS)}")
    ctx = _Context()
    try:
        if name == SERVE:
            one, probe = _serve_sessions(seed, ctx, golden)
        else:
            one, probe = _paper_passes(name, seed, ctx, golden)
        if traced:
            plain = _repeat(lambda: one(False), seconds / 2)
            passes = _repeat(lambda: one(True), seconds / 2)
            everything = plain + passes
        else:
            plain = passes = everything = _repeat(lambda: one(False), seconds)
        setups = list(plain)
        if len(setups) < SETUP_SAMPLES:
            setups += _repeat(probe, at_least=SETUP_SAMPLES - len(setups))
        ctx.calibrate(everything + setups)
        out = {
            "workload": name,
            "seed": seed,
            "passes": len(passes),
            "attempted": sum(p["attempted"] for p in everything),
            "failed": sum(p["failed"] for p in everything),
            "problems": [x for p in everything for x in p["problems"]][:10],
        }
        if not traced:
            out["metrics"] = end_to_end(passes, setups)
            out["measured"] = measured(passes, setups)
            if name == SERVE:
                out["serve"] = serve_metrics(passes)
            return out
        overhead = _wall(passes) / _wall(plain) - 1.0
        table, counts = _layer_table(passes)
        out["metrics"] = layer_metrics(
            table, counts, passes, golden["experiments"], overhead
        )
        out["table"] = {k: [round(v, 6) for v in row] for k, row in sorted(table.items())}
        processes = [proc for p in passes for proc in p["processes"]]
        out["trace"] = chrome_document(processes)
        return out
    finally:
        ctx.close()
