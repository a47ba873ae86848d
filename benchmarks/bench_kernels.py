"""Microbenchmarks of the real computational kernels.

These measure the actual NumPy implementations (the pieces that
execute real numerics, as opposed to the machine-model experiments):
the NPB kernels at their small classes, the MD force loop, the CFD
solvers, and the DES message engine.
"""

import numpy as np

from repro.apps.cfd import line_relax_poisson, lusgs_solve
from repro.apps.md import MDSimulation, lj_forces
from repro.apps.md.lattice import fcc_lattice
from repro.hpcc import run_dgemm, run_stream
from repro.machine.cluster import single_node
from repro.machine.node import NodeType
from repro.machine.placement import Placement
from repro.mpi import run_mpi
from repro.mpi.collectives import alltoall
from repro.npb.bt import run_bt
from repro.npb.cg import run_cg
from repro.npb.ft import run_ft
from repro.npb.mg import run_mg
from repro.sim.rng import make_rng


def test_mg_class_s(benchmark):
    result = benchmark(run_mg, "S")
    assert result.final_residual < result.initial_residual


def test_cg_class_s(benchmark):
    result = benchmark(run_cg, "S")
    assert result.final_residual < 1e-6


def test_ft_class_s(benchmark):
    result = benchmark(run_ft, "S")
    assert result.energy_error < 1e-10


def test_bt_class_s(benchmark):
    result = benchmark(run_bt, "S", 10)
    assert result.converged


def test_md_forces_864_atoms(benchmark):
    positions, box = fcc_lattice(6)
    forces, energy = benchmark(lj_forces, positions, box, 2.5)
    assert np.abs(forces.sum(axis=0)).max() < 1e-8


def test_md_simulation_step(benchmark):
    sim = MDSimulation(cells=3)
    benchmark.pedantic(lambda: sim.step(5), iterations=1, rounds=3)
    assert sim.energy_drift() < 0.02


def test_hpcc_dgemm_real(benchmark):
    result = benchmark.pedantic(
        lambda: run_dgemm(384, repeats=1), iterations=1, rounds=3
    )
    assert result.gflops_per_cpu > 0


def test_hpcc_stream_real(benchmark):
    result = benchmark.pedantic(
        lambda: run_stream(1_000_000, repeats=1), iterations=1, rounds=3
    )
    assert result.triad > 0


def test_line_relaxation(benchmark):
    rng = make_rng(0)
    f = rng.standard_normal((32, 32))
    _, history = benchmark.pedantic(
        lambda: line_relax_poisson(f, sweeps=10), iterations=1, rounds=3
    )
    assert history[-1] < history[0]


def test_lusgs(benchmark):
    rng = make_rng(1)
    b = rng.standard_normal((12, 12, 12))
    _, history = benchmark.pedantic(
        lambda: lusgs_solve(b, iterations=10), iterations=1, rounds=3
    )
    assert history[-1] < history[0]


def test_des_alltoall_64_ranks(benchmark):
    """Throughput of the discrete-event MPI engine itself."""
    placement = Placement(single_node(NodeType.BX2B), n_ranks=64)

    def prog(comm):
        yield from alltoall(comm, 1024)
        return None

    result = benchmark.pedantic(
        lambda: run_mpi(placement, prog), iterations=1, rounds=3
    )
    assert result.messages_sent == 64 * 63
