"""NAS Parallel Benchmarks (paper §3.2).

The paper's subset: three kernels (MG, CG, FT), one simulated
application (BT), and the two multi-zone benchmarks (BT-MZ, SP-MZ)
with the new Class E (4096 zones) and Class F (16384 zones) problem
sizes introduced for Columbia.

Every single-zone benchmark has a *real* NumPy implementation
(``run_*`` — numerically verified at the small classes) and a timing
model (:mod:`repro.npb.timing`) that prices the same computation and
communication pattern on the simulated machine at any class and CPU
count.  The multi-zone benchmarks live in :mod:`repro.npb.multizone`
and :mod:`repro.npb.hybrid`.

The package itself imports nothing: import the submodule you need
(``from repro.npb.mg import run_mg``), so that pricing a cell never
pays for NumPy or SciPy it does not use.
"""
