"""Result transport from pool workers: rows return by pickle, and the
parallel path must be invisible — output equal to sequential, value
for value and type for type, across batches on one persistent pool."""

import repro.core  # noqa: F401  (imported first: repro.run's harness half lives there)
from repro.run import Runner, scenario, workload


@workload("test.transport_numeric")
def _numeric(x=0):
    return [(float(x), x, True, None), (x * 2.0, -x)]


@workload("test.transport_rect")
def _rect(x=0):
    return [(float(x) * i, float(x) + i) for i in range(4)]


@workload("test.transport_strings")
def _strings(x=0):
    return [("label", float(x), x)]


class TestRunnerParity:
    def _scenarios(self):
        return (
            [scenario("test.transport_numeric", x=i) for i in range(6)]
            + [scenario("test.transport_rect", x=i) for i in range(3)]
            + [scenario("test.transport_strings", x=7)]
        )

    def test_parallel_matches_sequential(self):
        scs = self._scenarios()
        seq = Runner(jobs=1).run(scs)
        par_runner = Runner(jobs=2)
        try:
            par = par_runner.run(scs)
        finally:
            par_runner.close()
        for a, b in zip(seq, par):
            assert a.error is None and b.error is None
            assert a.rows == b.rows
            for ra, rb in zip(a.rows, b.rows):
                assert [type(v) for v in ra] == [type(v) for v in rb]

    def test_persistent_pool_batches(self):
        r = Runner(jobs=2)
        try:
            b1 = r.run([scenario("test.transport_numeric", x=i) for i in range(4)])
            b2 = r.run(
                [scenario("test.transport_numeric", x=i + 10) for i in range(4)]
            )
            assert all(rec.ok for rec in b1 + b2)
            assert b2[0].rows == ((10.0, 10, True, None), (20.0, -10))
        finally:
            r.close()
