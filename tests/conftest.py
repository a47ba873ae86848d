"""Shared pytest configuration.

Registers the opt-in ``bench_regression`` marker: tests carrying it
run the wall-clock benchmark harness (seconds each, noise-sensitive),
so they are skipped unless explicitly requested::

    PYTHONPATH=src python -m pytest --bench-regression tests/test_bench_regression.py

Tier-1 runs (`python -m pytest -x -q`) stay fast and deterministic.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-regression",
        action="store_true",
        default=False,
        help="run wall-clock benchmark-regression tests (slow, noise-sensitive)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_regression: wall-clock benchmark regression check "
        "(opt-in via --bench-regression)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--bench-regression"):
        return
    skip = pytest.mark.skip(reason="needs --bench-regression")
    for item in items:
        if "bench_regression" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def built_pools(monkeypatch):
    """Every worker pool ``repro.run.runner`` builds, in build order."""
    import repro.run.runner as runner_mod

    built = []

    class RecordingPool(runner_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", RecordingPool)
    return built


@pytest.fixture
def worlds(monkeypatch):
    """Counts the DES worlds started, whoever starts them."""
    from repro.mpi.comm import MPIWorld

    started = []
    init = MPIWorld.__init__

    def counted(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MPIWorld, "__init__", counted)
    return started
