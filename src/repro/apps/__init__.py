"""Scientific applications characterized by the paper (§3.3-§3.5).

* :mod:`repro.apps.md` — Lennard-Jones molecular dynamics with the
  Velocity Verlet integrator and spatial decomposition;
* :mod:`repro.apps.overset` — multi-block overset grid substrate
  (grids, connectivity, grouping) shared by the two CFD codes;
* :mod:`repro.apps.cfd` — the CFD numerics: artificial-compressibility
  incompressible solver (INS3D's method) and pipelined LU-SGS
  (OVERFLOW-D's re-implemented linear solver);
* :mod:`repro.apps.ins3d` — INS3D turbopump performance model
  (Tables 2 and 4);
* :mod:`repro.apps.overflow` — OVERFLOW-D rotor-wake performance
  model (Tables 3, 4 and 6).

The package imports none of them: ``import repro.apps.md`` loads the
MD code alone.
"""
