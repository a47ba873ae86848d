"""The import budget: no entry point loads a heavy package at import.

Every CLI process, ``repro serve``'s start-up preload, each pool
worker and the end-to-end benchmark's set-up start from one of these
imports.  NumPy and SciPy load only when a cell needs them; networkx
is a test-only dependency (the fat-tree oracle in
``tests/test_machine_topology.py``) and must never load at runtime.
Each check runs in a fresh interpreter, so what an earlier test
imported cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("networkx", "numpy", "scipy")

_SCRIPT = """
import sys
{imports}
print(",".join(m for m in {heavy!r} if sys.modules.get(m) is not None))
"""


def _loaded(imports: str, modules: tuple[str, ...]) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after
    running ``imports``, comma-separated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(imports=imports, heavy=modules)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.mark.parametrize("imports", [
    "import repro.cli",
    "import repro.api",
    # the end-to-end benchmark's set-up set
    "import repro.core.registry, repro.run",
])
def test_entry_point_loads_no_heavy_package(imports):
    loaded = _loaded(imports, HEAVY)
    assert loaded == "", f"{imports} loaded {loaded}"


def test_md_app_loads_no_cfd_model():
    """Every ``table5`` cell imports ``repro.apps.md``; the package must
    not drag in the overset substrate or the two CFD models with it."""
    cfd = ("repro.apps.overset", "repro.apps.ins3d", "repro.apps.overflow")
    loaded = _loaded("import repro.apps.md", cfd)
    assert loaded == "", f"repro.apps.md loaded {loaded}"


def test_explore_study_loads_no_serve_layer():
    """An exploration scores its rounds with ``Runner.run``: a whole
    study runs without the scenario service or an event loop."""
    loaded = _loaded(
        "from repro.explore import run_study\n"
        "run_study('worst-faults')",
        ("repro.serve", "asyncio"),
    )
    assert loaded == "", f"run_study loaded {loaded}"
