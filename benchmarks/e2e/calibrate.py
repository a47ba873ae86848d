"""The calibration process: how fast the box runs while a pass runs.

The two-core VM the benchmark runs on changes speed from one second to
the next, because other tenants contend for the host's cores, caches
and memory.  On the same inputs, a jobs=1 pass over seven experiments
took anywhere from 3.3 s to 6.6 s within the hour, and fixed Python
loops timed alongside slowed by about the same factor (correlation
0.8).  Such a loop, which does not change with the code under test,
measures the box.

``python -m benchmarks.e2e.calibrate`` runs one, in a process of its
own so nothing the measured program does (its heap, its imports) can
change it.  Every :data:`PERIOD_S` it runs a fixed sample of three
small kernels and records when, and the CPU time the sample took:

* ``arith`` — an interpreter-bound loop;
* ``lookups`` — random lookups in a 50k-entry dict;
* ``events`` — a heap-driven event loop over generator processes, the
  shape of the simulator's inner loop.

CPU time, not wall time: while the measured program keeps both cores
busy the sample waits for one, and that wait says nothing about the
box's speed.  A sample takes about 10 ms of CPU every 0.2 s, about 5%
of one core, the same on every commit measured.

It prints ``ready`` once its data is built.  For every line it then
reads on stdin it prints the samples taken so far as one JSON list of
``[monotonic time, cpu seconds]`` (``time.monotonic`` is system-wide
on Linux, so the parent can place each sample inside its passes).  It
exits at end of input.  :data:`NOMINAL_S` is a sample's CPU time on
the baseline box when it runs fast, so ``sample / NOMINAL_S`` is the
box's slowdown factor.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import select
import sys
import time

#: CPU time of one sample on the baseline box (2-core x86_64 VM,
#: Python 3.11.7) when it runs fast: the 10th percentile of 558 samples
#: taken over two minutes.  Fixed, so that a time divided by the
#: slowdown ``sample / NOMINAL_S`` reads in seconds at that speed.
NOMINAL_S = 0.009
#: Seconds between the starts of two samples.
PERIOD_S = 0.2


class Sample:
    """The three kernels, over data built once."""

    def __init__(self) -> None:
        rng = random.Random(5)
        self.table = {i * 7919: i for i in range(50_000)}
        self.keys = [rng.randrange(50_000) * 7919 for _ in range(12_000)]

    def arith(self) -> None:
        s = 0
        for i in range(40_000):
            s += i * i % 7

    def lookups(self) -> None:
        table = self.table
        s = 0
        for k in self.keys:
            s += table[k]

    def events(self) -> None:
        rng = random.Random(1)

        def proc(n):
            for _ in range(n):
                yield rng.random()

        heap: list = []
        seq = 0
        for _ in range(50):
            heapq.heappush(heap, (0.0, seq, proc(40)))
            seq += 1
        while heap:
            now, _, p = heapq.heappop(heap)
            for dt in p:
                seq += 1
                heapq.heappush(heap, (now + dt, seq, p))
                break

    def run(self) -> float:
        """CPU seconds of one sample."""
        gc.disable()
        try:
            t = time.thread_time()
            self.arith()
            self.lookups()
            self.events()
            return time.thread_time() - t
        finally:
            gc.enable()


def main() -> int:
    sample = Sample()
    sample.run()  # first-call effects stay out of every reading
    samples: list[tuple[float, float]] = []
    print("ready", flush=True)
    due = time.monotonic()
    while True:
        wait = max(0.0, due - time.monotonic())
        if select.select([sys.stdin], [], [], wait)[0]:
            if not sys.stdin.readline():
                return 0
            print(json.dumps(samples), flush=True)
            continue
        t = time.monotonic()
        samples.append((t, sample.run()))
        due = t + PERIOD_S


if __name__ == "__main__":
    sys.exit(main())
