"""Numerical tests for the real NPB kernel implementations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.npb.bt import run_bt
from repro.npb.cg import run_cg
from repro.npb.ft import run_ft
from repro.npb.mg import run_mg
from repro.npb.bt import NVARS, adi_step, block_thomas
from repro.npb.cg import cg_solve, make_matrix
from repro.npb.classes import NPB_CLASSES, problem
from repro.npb.ft import distributed_fft3, evolution_factors
from repro.npb.mg import laplacian, residual_norm, v_cycle
from repro.sim.rng import make_rng


class TestClasses:
    def test_known_classes_exist(self):
        for bm in ("mg", "cg", "ft", "bt"):
            for cls in ("S", "A", "B", "C"):
                spec = problem(bm, cls)
                assert spec.points > 0
                assert spec.flops > 0
                assert spec.memory_bytes > 0

    def test_class_ordering(self):
        """Bigger classes mean more points and flops."""
        for bm in ("mg", "cg", "ft", "bt"):
            sizes = [problem(bm, c).points for c in ("S", "A", "B", "C")]
            flops = [problem(bm, c).flops for c in ("S", "A", "B", "C")]
            assert sizes == sorted(sizes)
            assert flops == sorted(flops)

    def test_lowercase_class_accepted(self):
        assert problem("mg", "s") is problem("mg", "S")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            problem("mg", "Z")
        with pytest.raises(ConfigurationError):
            problem("lu", "A")

    def test_paper_relevant_inventory(self):
        # The paper runs MG, CG, FT, BT (§3.2).
        assert {k[0] for k in NPB_CLASSES} == {"mg", "cg", "ft", "bt"}


class TestMG:
    def test_class_s_converges(self):
        r = run_mg("S")
        assert r.final_residual < r.initial_residual * 1e-1
        assert 0 < r.contraction < 0.6  # healthy multigrid contraction

    def test_contraction_grid_independent(self):
        """The multigrid signature: contraction doesn't degrade with n."""
        rng = make_rng(0)
        rates = []
        for n in (16, 32, 64):
            v = rng.standard_normal((n, n, n))
            v -= v.mean()
            h = 1.0 / n
            u = np.zeros_like(v)
            r0 = residual_norm(u, v, h)
            for _ in range(3):
                u = v_cycle(u, v, h)
            rates.append((residual_norm(u, v, h) / r0) ** (1 / 3))
        assert max(rates) < 0.6
        assert max(rates) - min(rates) < 0.25

    def test_recovers_manufactured_solution(self):
        n = 32
        h = 1.0 / n
        x = np.arange(n) * h
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        u_exact = np.sin(2 * np.pi * X) * np.sin(4 * np.pi * Y) * np.cos(2 * np.pi * Z)
        v = -laplacian(u_exact, h)
        u = np.zeros_like(v)
        for _ in range(12):
            u = v_cycle(u, v, h)
        u -= u.mean()
        ue = u_exact - u_exact.mean()
        assert np.abs(u - ue).max() / np.abs(ue).max() < 0.05

    def test_laplacian_of_constant_is_zero(self):
        u = np.full((8, 8, 8), 3.7)
        assert np.abs(laplacian(u, 0.125)).max() < 1e-10

    def test_large_class_refused_for_real_run(self):
        with pytest.raises(ConfigurationError):
            run_mg("C")

    def test_deterministic(self):
        a, b = run_mg("S", seed=5), run_mg("S", seed=5)
        assert a.final_residual == b.final_residual


class TestCG:
    def test_matrix_is_symmetric_positive_definite(self):
        a = make_matrix(200, 7, seed=1)
        dense = a.toarray()
        assert np.allclose(dense, dense.T)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0

    def test_cg_reduces_residual(self):
        a = make_matrix(300, 7, seed=2)
        rng = make_rng(2)
        b = rng.random(300)
        _, res25 = cg_solve(a, b, iterations=25)
        assert res25 < 1e-6 * np.linalg.norm(b)

    def test_class_s_zeta_matches_true_eigenvalue(self):
        """Inverse power iteration: zeta = shift + 1/(x.z) converges
        toward shift + lambda_min(A); verify against the dense
        eigendecomposition.  The smallest eigenvalues cluster at the
        shift, so convergence is slow — a percent-level check."""
        r = run_cg("S", seed=3)
        a = make_matrix(r.n, problem("cg", "S").shape[1], shift=20.0, seed=3)
        eigs = np.linalg.eigvalsh(a.toarray())
        expected = 20.0 + eigs.min()
        assert abs(r.zeta - expected) / expected < 0.02

    def test_residual_history_stays_small(self):
        r = run_cg("S")
        assert all(h < 1e-5 for h in r.residual_history)

    def test_large_class_refused(self):
        with pytest.raises(ConfigurationError):
            run_cg("B")

    @given(st.integers(50, 400))
    @settings(max_examples=5, deadline=None)
    def test_cg_monotone_energy_norm(self, n):
        a = make_matrix(n, 5, seed=n)
        rng = make_rng(n)
        b = rng.random(n)
        # Energy-norm error decreases monotonically in exact CG.
        x_star = np.linalg.solve(a.toarray(), b)
        errs = []
        for it in (1, 5, 15):
            x, _ = cg_solve(a, b, iterations=it)
            e = x - x_star
            errs.append(float(e @ (a @ e)))
        assert errs[0] >= errs[1] >= errs[2]


class TestFT:
    def test_class_s_runs_and_conserves_energy(self):
        r = run_ft("S")
        assert r.energy_error < 1e-12
        assert len(r.checksums) == 6

    def test_evolution_factors_decay_with_time(self):
        f1 = evolution_factors((16, 16, 16), 1)
        f5 = evolution_factors((16, 16, 16), 5)
        assert np.all(f5 <= f1)
        assert f1[0, 0, 0] == pytest.approx(1.0)  # zero mode untouched

    def test_checksums_evolve_smoothly(self):
        r = run_ft("S")
        mags = [abs(c) for c in r.checksums]
        # Diffusion: successive checksums change by modest amounts.
        for a, b in zip(mags, mags[1:]):
            assert abs(a - b) / a < 0.2

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_distributed_fft_matches_numpy(self, p):
        rng = make_rng(11)
        u = rng.random((16, 8, 4)) + 1j * rng.random((16, 8, 4))
        assert np.allclose(distributed_fft3(u, p), np.fft.fftn(u))

    def test_indivisible_rank_count_rejected(self):
        rng = make_rng(1)
        u = rng.random((6, 4, 4)).astype(complex)
        with pytest.raises(ConfigurationError):
            distributed_fft3(u, 4)

    def test_large_class_refused(self):
        with pytest.raises(ConfigurationError):
            run_ft("B")


class TestBT:
    def test_block_thomas_matches_dense(self):
        rng = make_rng(3)
        L, n, k = 3, 5, 4
        a = rng.random((L, n, k, k)) * 0.1
        b = rng.random((L, n, k, k)) * 0.1 + np.eye(k) * 3
        c = rng.random((L, n, k, k)) * 0.1
        r = rng.random((L, n, k))
        x = block_thomas(a, b, c, r)
        for l in range(L):
            dense = np.zeros((n * k, n * k))
            for i in range(n):
                dense[i * k:(i + 1) * k, i * k:(i + 1) * k] = b[l, i]
                if i > 0:
                    dense[i * k:(i + 1) * k, (i - 1) * k:i * k] = a[l, i]
                if i < n - 1:
                    dense[i * k:(i + 1) * k, (i + 1) * k:(i + 2) * k] = c[l, i]
            expected = np.linalg.solve(dense, r[l].reshape(-1))
            assert np.allclose(x[l].reshape(-1), expected, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        rng = make_rng(0)
        a = rng.random((2, 4, 5, 5))
        with pytest.raises(ConfigurationError):
            block_thomas(a, a, a, rng.random((2, 4, 3)))

    def test_class_s_converges_to_steady_state(self):
        r = run_bt("S", iterations=25)
        assert r.converged
        assert r.rms_history[-1] < 1e-3 * r.rms_history[0]

    def test_adi_step_preserves_zero_state(self):
        u = np.zeros((8, 8, 8, NVARS))
        f = np.zeros_like(u)
        out = adi_step(u, f, dt=0.5)
        assert np.abs(out).max() < 1e-14

    def test_bad_state_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            adi_step(np.zeros((4, 4, 4, 3)), np.zeros((4, 4, 4, 3)), 0.1)

    def test_large_class_refused(self):
        with pytest.raises(ConfigurationError):
            run_bt("A")
