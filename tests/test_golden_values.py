"""Golden-value regression tests.

The real kernels are deterministic under fixed seeds; these tests pin
their outputs so any change to the numerics (intended or not) is
flagged.  Golden values were captured from the implementations at
release and are asserted to ~10 significant digits — tight enough to
catch algorithmic drift, loose enough to survive BLAS reordering.
"""

import numpy as np
import pytest

from repro.apps.md import MDSimulation
from repro.npb.bt import run_bt
from repro.npb.cg import run_cg
from repro.npb.ft import run_ft
from repro.npb.mg import run_mg
from repro.npb.sp import run_sp


def capture_all():  # pragma: no cover - regeneration helper
    """Print the current golden values (run manually after intended
    numerics changes, then update the constants below)."""
    mg = run_mg("S", seed=1234)
    cg = run_cg("S", seed=1234)
    ft = run_ft("S", seed=1234)
    bt = run_bt("S", iterations=10, seed=1234)
    sp = run_sp(10, 10, seed=1234)
    sim = MDSimulation(cells=2, dt=0.004, seed=1234)
    sim.step(20)
    print("MG", repr(mg.final_residual))
    print("CG", repr(cg.zeta))
    print("FT", repr(ft.checksums[0]))
    print("BT", repr(bt.rms_history[-1]))
    print("SP", repr(sp.rms_history[-1]))
    print("MD", repr(sim.state.total_energy))


class TestGoldenValues:
    def test_mg_final_residual(self):
        r = run_mg("S", seed=1234)
        assert r.final_residual == pytest.approx(GOLDEN["mg"], rel=1e-9)

    def test_cg_zeta(self):
        r = run_cg("S", seed=1234)
        assert r.zeta == pytest.approx(GOLDEN["cg"], rel=1e-9)

    def test_ft_first_checksum(self):
        r = run_ft("S", seed=1234)
        assert r.checksums[0].real == pytest.approx(GOLDEN["ft_re"], rel=1e-9)
        assert r.checksums[0].imag == pytest.approx(GOLDEN["ft_im"], rel=1e-9)

    def test_bt_final_rms(self):
        r = run_bt("S", iterations=10, seed=1234)
        assert r.rms_history[-1] == pytest.approx(GOLDEN["bt"], rel=1e-9)

    def test_sp_final_rms(self):
        r = run_sp(10, 10, seed=1234)
        assert r.rms_history[-1] == pytest.approx(GOLDEN["sp"], rel=1e-9)

    def test_md_total_energy(self):
        sim = MDSimulation(cells=2, dt=0.004, seed=1234)
        sim.step(20)
        assert sim.state.total_energy == pytest.approx(GOLDEN["md"], rel=1e-9)


GOLDEN = {
    "mg": 0.011097293638991756,
    "cg": 40.21215162967938,
    "ft_re": 509.05733068477736,
    "ft_im": 509.295164929886,
    "bt": 9.998450995883827e-05,
    "sp": 7.58605516427314e-05,
    "md": -149.6441035169184,
}
