"""``repro all --fast`` stdout is pinned byte for byte.

``tests/golden/repro_all_fast.txt`` is the output of
``repro all --fast --no-cache``.  The test runs ``repro all --fast
--jobs 2`` twice against one fresh cache directory: the cold pass
executes every cell in the runner's worker pool, the warm pass reads
every cell back from the cache.  Both run with networkx blocked, as
on an install without the ``test`` extra.  Both must print the golden
exactly, and the warm pass -- which runs no DES -- must not import
NumPy or SciPy.

After a deliberate output change, regenerate the golden with::

    PYTHONPATH=src python -m repro all --fast --no-cache > tests/golden/repro_all_fast.txt

``tests/golden/beff_full.txt`` pins the *full* b_eff sweeps (Figs. 5
and 10, up to 2,048 ranks), which ``--fast`` cuts to 64/512 CPUs.
Regenerate it with::

    (PYTHONPATH=src python -m repro run fig5 --no-cache;
     PYTHONPATH=src python -m repro run fig10 --no-cache) > tests/golden/beff_full.txt

``tests/golden/partition_full.txt`` pins the full sweeps built on the
grid-system partitions (OVERFLOW-D/INS3D groupings, NPB-MZ LPT
assignments); regenerate it with::

    PYTHONPATH=src python -c 'import sys; from repro.cli import main
    [main(["run", n, "--no-cache"]) for n in sys.argv[1:]]' \
        ablation_grouping table2 table3 table6 fig11 ext_class_f \
        ext_ins3d_multinode > tests/golden/partition_full.txt

``tests/golden/ext_noise_full.txt`` pins the full OS-noise extension
(up to 512 ranks); regenerate it with::

    PYTHONPATH=src python -m repro run ext_noise --no-cache > tests/golden/ext_noise_full.txt

``tests/golden/repro_list.txt`` pins ``repro list`` (id, anchor and
short title of every experiment, in paper order); regenerate it with
``PYTHONPATH=src python -m repro list > tests/golden/repro_list.txt``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "repro_all_fast.txt"
BEFF_GOLDEN = Path(__file__).parent / "golden" / "beff_full.txt"
PARTITION_GOLDEN = Path(__file__).parent / "golden" / "partition_full.txt"
EXT_NOISE_GOLDEN = Path(__file__).parent / "golden" / "ext_noise_full.txt"
LIST_GOLDEN = Path(__file__).parent / "golden" / "repro_list.txt"
SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the CLI, then reports which heavy packages got loaded.
_SCRIPT = """
import sys
from repro.cli import main
code = main(sys.argv[1:])
heavy = sorted(
    m for m in ("networkx", "numpy", "scipy") if sys.modules.get(m) is not None
)
print("heavy modules:", ",".join(heavy) or "none", file=sys.stderr)
sys.exit(code)
"""

#: :data:`_SCRIPT` in an interpreter where ``import networkx`` fails,
#: as on an install without the ``test`` extra; forked pool workers
#: inherit the block.
_NO_NETWORKX_SCRIPT = 'import sys; sys.modules["networkx"] = None\n' + _SCRIPT


def _repro(*args: str, script: str = _SCRIPT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def _repro_all_fast(cache_dir: Path) -> subprocess.CompletedProcess:
    return _repro(
        "all", "--fast", "--jobs", "2", "--cache-dir", str(cache_dir),
        script=_NO_NETWORKX_SCRIPT,
    )


def test_repro_all_fast_matches_golden_cold_and_warm(tmp_path):
    golden = GOLDEN.read_text()
    cold = _repro_all_fast(tmp_path)
    assert cold.returncode == 0, cold.stderr
    assert "0 cached" in cold.stderr
    assert cold.stdout == golden
    warm = _repro_all_fast(tmp_path)
    assert warm.returncode == 0, warm.stderr
    assert "0 executed" in warm.stderr
    assert warm.stdout == golden
    assert "heavy modules: none" in warm.stderr


#: Runs ``repro run fig5`` then ``repro run fig10`` in one process
#: (then the full fig6, fig7, fig9 and fig11 sweeps) and reports, on
#: stderr's last line, how often the memoized pure work (path
#: statistics, the b_eff barrier recurrence) actually ran against how
#: many distinct contents asked for it.  The distinct contents are
#: derived here from ``cpu_of``, independently of the memo keys, so a
#: key that regained per-instance identity would show more runs than
#: contents.  It also reports the DES worlds the two b_eff sweeps
#: started against the ping-pong games they played (two per sampled
#: pair): on a healthy machine ping-pong, the rings and the barrier
#: are recurrences, not worlds; and the paths the route tables priced
#: one pair at a time (the DES's per-message misses): the recurrences
#: price in bulk and store nothing.
_COUNTING_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
import repro.hpcc.beff as beff
import repro.netmodel.costs as costs
from repro.mpi.comm import MPIWorld

runs = {"stats": 0, "barrier": 0}
asked = {"stats": set(), "barrier": set()}
homes = {}

def content(placement):
    key = id(placement)
    if key not in homes:
        cpus = tuple(placement.cpu_of(r) for r in range(placement.n_ranks))
        homes[key] = (placement, (placement.cluster, cpus))
    return homes[key][1]

def counted(name, fn):
    def run(*args):
        runs[name] += 1
        return fn(*args)
    return run

costs._compute_stats = counted("stats", costs._compute_stats)
beff._barrier_recurrence = counted("barrier", beff._barrier_recurrence)
worlds = {"started": 0, "pingpong": 0}
world_init = MPIWorld.__init__
def counted_world(self, *args, **kwargs):
    worlds["started"] += 1
    world_init(self, *args, **kwargs)
MPIWorld.__init__ = counted_world
scalar_paths = [0]
table_path = costs._RouteTable.path
def counted_path(self, rank_a, rank_b):
    scalar_paths[0] += 1
    return table_path(self, rank_a, rank_b)
costs._RouteTable.path = counted_path
pair_sample = beff._pair_sample
def counted_pairs(*args):
    pairs = pair_sample(*args)
    worlds["pingpong"] += 2 * len(pairs)
    return pairs
beff._pair_sample = counted_pairs
stats = costs.NetworkModel.stats
def asked_stats(self, max_samples=2048, seed=0):
    asked["stats"].add((content(self.placement), self._key[1], max_samples, seed))
    return stats(self, max_samples, seed)
costs.NetworkModel.stats = asked_stats
exits = beff._barrier_exits
def asked_exits(placement, healthy):
    asked["barrier"].add((content(placement), costs.route_key(placement)[1]))
    return exits(placement, healthy)
beff._barrier_exits = asked_exits

for name in ("fig5", "fig10"):
    if main(["run", name, "--no-cache"]):
        sys.exit(1)
beff_worlds = [worlds["started"], worlds["pingpong"]]
beff_paths = scalar_paths[0]
# The b_eff sweeps build no path statistics; these full sweeps do
# (fig11 under COLUMBIA_DEGRADED's path fault).  Counted only: their
# output is not compared here.
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("fig6", "fig7", "fig9", "fig11"):
        if main(["run", name, "--no-cache"]):
            sys.exit(1)
print(json.dumps({"memo": {k: [runs[k], len(asked[k])] for k in runs},
                  "beff_worlds": beff_worlds,
                  "beff_paths": beff_paths}), file=sys.stderr)
"""


def test_full_beff_sweeps_match_golden():
    """Both full b_eff sweeps print the golden; each path-statistics
    build and each shared b_eff barrier recurrence runs once per
    distinct content (no sweep here carries DES faults or a tracer, so
    every barrier is shareable); the b_eff sweeps start no DES world
    at all; and their route tables price no pair one at a time."""
    run = _repro(script=_COUNTING_SCRIPT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == BEFF_GOLDEN.read_text()
    counts = json.loads(run.stderr.strip().splitlines()[-1])
    for name, (ran, distinct) in counts["memo"].items():
        assert 0 < ran == distinct, (name, counts)
    started, pingpong = counts["beff_worlds"]
    assert started == 0 < pingpong, counts
    assert counts["beff_paths"] == 0, counts


#: Runs ``repro run ext_noise`` and reports, on stderr's last line, the
#: DES worlds it started.
_EXT_NOISE_SCRIPT = """
import json, sys
from repro.cli import main
from repro.mpi.comm import MPIWorld

started = [0]
world_init = MPIWorld.__init__
def counted_world(self, *args, **kwargs):
    started[0] += 1
    world_init(self, *args, **kwargs)
MPIWorld.__init__ = counted_world
if main(["run", "ext_noise", "--no-cache"]):
    sys.exit(1)
print(json.dumps({"worlds": started[0]}), file=sys.stderr)
"""


def test_full_ext_noise_matches_golden():
    """The full OS-noise sweep prints the golden, and on a healthy
    machine its compute+allreduce steps start no DES world."""
    run = _repro(script=_EXT_NOISE_SCRIPT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == EXT_NOISE_GOLDEN.read_text()
    counts = json.loads(run.stderr.strip().splitlines()[-1])
    assert counts["worlds"] == 0, counts


#: Runs the full sweeps built on grid-system partitions in one process
#: and reports, on stderr's last line, how often each partition memo
#: actually ran against how many distinct contents asked for it (the
#: contents are the block tuples themselves, not the memo keys), and
#: how many ``cpu_of`` calls the placements' content keys made.
_PARTITION_SCRIPT = """
import json, sys
from repro.cli import main
import repro.apps.overset.connectivity as connectivity
import repro.apps.overset.grouping as grouping
from repro.machine.placement import Placement

asked = {"overlaps": set(), "groupings": set()}
scans = connectivity._overlaps
def asked_overlaps(system):
    asked["overlaps"].add((system.name, system.blocks))
    return scans(system)
connectivity._overlaps = asked_overlaps
groupings = grouping._grouping
def asked_grouping(system, n_groups, strategy):
    asked["groupings"].add((system.name, system.blocks, n_groups, strategy))
    return groupings(system, n_groups, strategy)
grouping._grouping = asked_grouping

keys = {"built": 0, "cpu_of": 0}
building = [False]
content_key = Placement.content_key.fget
def counted_key(self):
    if "_content_key" not in self.__dict__:
        keys["built"] += 1
    building[0] = True
    try:
        return content_key(self)
    finally:
        building[0] = False
Placement.content_key = property(counted_key)
cpu_of = Placement.cpu_of
def counted_cpu_of(self, *args):
    keys["cpu_of"] += building[0]
    return cpu_of(self, *args)
Placement.cpu_of = counted_cpu_of

for name in ("ablation_grouping", "table2", "table3", "table6", "fig11",
             "ext_class_f", "ext_ins3d_multinode"):
    if main(["run", name, "--no-cache"]):
        sys.exit(1)
print(json.dumps({
    "overlaps": [scans.cache_info().misses, len(asked["overlaps"])],
    "groupings": [groupings.cache_info().misses, len(asked["groupings"])],
    "content_keys": [keys["built"], keys["cpu_of"]],
}), file=sys.stderr)
"""


def test_full_partition_sweeps_match_golden():
    """The partition sweeps print the golden; each overlap scan and
    each grouping runs once per distinct ``(system, n_groups,
    strategy)`` content; placement content keys are closed-form."""
    run = _repro(script=_PARTITION_SCRIPT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == PARTITION_GOLDEN.read_text()
    counts = json.loads(run.stderr.strip().splitlines()[-1])
    for name in ("overlaps", "groupings"):
        ran, distinct = counts[name]
        assert 0 < ran == distinct, (name, counts)
    built, cpu_of_calls = counts["content_keys"]
    assert built > 0 and cpu_of_calls == 0, counts


def test_repro_list_matches_golden():
    listing = _repro("list")
    assert listing.returncode == 0, listing.stderr
    assert listing.stdout == LIST_GOLDEN.read_text()
    assert "heavy modules: none" in listing.stderr
