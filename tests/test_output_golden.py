"""``repro all --fast`` stdout is pinned byte for byte.

``tests/golden/repro_all_fast.txt`` is the output of
``repro all --fast --no-cache``.  The test runs ``repro all --fast
--jobs 2`` twice against one fresh cache directory: the cold pass
executes every cell in the runner's worker pool, the warm pass reads
every cell back from the cache.  Both must print the golden exactly,
and the warm pass -- which runs no DES -- must not import NumPy or
SciPy.

After a deliberate output change, regenerate the golden with::

    PYTHONPATH=src python -m repro all --fast --no-cache > tests/golden/repro_all_fast.txt

``tests/golden/beff_full.txt`` pins the *full* b_eff sweeps (Figs. 5
and 10, up to 2,048 ranks), which ``--fast`` cuts to 64/512 CPUs.
Regenerate it with::

    (PYTHONPATH=src python -m repro run fig5 --no-cache;
     PYTHONPATH=src python -m repro run fig10 --no-cache) > tests/golden/beff_full.txt

``tests/golden/repro_list.txt`` pins ``repro list`` (id, anchor and
short title of every experiment, in paper order); regenerate it with
``PYTHONPATH=src python -m repro list > tests/golden/repro_list.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "repro_all_fast.txt"
BEFF_GOLDEN = Path(__file__).parent / "golden" / "beff_full.txt"
LIST_GOLDEN = Path(__file__).parent / "golden" / "repro_list.txt"
SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the CLI, then reports which heavy numeric packages got loaded.
_SCRIPT = """
import sys
from repro.cli import main
code = main(sys.argv[1:])
heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print("heavy modules:", ",".join(heavy) or "none", file=sys.stderr)
sys.exit(code)
"""


def _repro(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def _repro_all_fast(cache_dir: Path) -> subprocess.CompletedProcess:
    return _repro("all", "--fast", "--jobs", "2", "--cache-dir", str(cache_dir))


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


def test_full_beff_sweeps_match_golden():
    out = []
    for name in ("fig5", "fig10"):
        run = _repro("run", name, "--no-cache")
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert "".join(out) == BEFF_GOLDEN.read_text()


def test_repro_list_matches_golden():
    listing = _repro("list")
    assert listing.returncode == 0, listing.stderr
    assert listing.stdout == LIST_GOLDEN.read_text()
    assert "heavy modules: none" in listing.stderr
