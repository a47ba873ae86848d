"""SGI SHMEM one-sided communication model.

The paper lists SHMEM among Columbia's supported paradigms (§2) and
names porting INS3D to SHMEM as future work (§5).  We provide the
cost model so that the "future work" experiment can be run against
the simulated machine (see ``benchmarks/bench_ablation_shmem.py``).
"""

from repro.shmem.shmem import ShmemModel

__all__ = ["ShmemModel"]
