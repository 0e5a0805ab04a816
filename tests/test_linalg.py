import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odekit import linalg
from odekit.errors import (
    DefectiveMatrixError,
    NotSymmetricError,
    SingularMatrixError,
    UnsupportedSpectrumError,
)


class TestLuSolve:
    def test_identity(self):
        x = linalg.lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=0.0)

    def test_zero_rhs(self):
        x = linalg.lu_solve(np.array([[-2.0, 1.0], [2.0, -1.0 + 1e-3]]), np.zeros(2))
        assert np.allclose(x, 0.0, atol=0.0)

    def test_hand_elimination(self):
        # [[2,1],[1,3]] x = (3,5): x2 = (5 - 3/2)/(3 - 1/2) = 1.4, x1 = 0.8
        x = linalg.lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]))
        assert np.allclose(x, [0.8, 1.4], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_residual_bound_random_well_conditioned(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            if np.linalg.cond(a) >= 1e6:
                continue
            b = rng.normal(size=n)
            x = linalg.lu_solve(a, b)
            resid = linalg.vec_norm_inf(a @ x - b)
            bound = 1e-10 * (linalg.mat_norm_inf(a) * linalg.vec_norm_inf(x)
                             + linalg.vec_norm_inf(b))
            assert resid <= bound
            checked += 1

    def test_complex_solve(self):
        a = np.array([[1.0 + 1j, 2.0], [0.0, 3.0 - 1j]])
        b = np.array([1.0 + 0j, 2.0 + 2j])
        x = linalg.lu_solve(a, b)
        assert linalg.vec_norm_inf(a @ x - b) < 1e-12

    def test_real_factors_keep_the_imaginary_part_of_the_rhs(self):
        # [[2,1],[1,3]]^-1 = [[3,-1],[-1,2]]/5, applied to (1+i, 2-i)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = linalg.lu_solve([[2, 1], [1, 3]], [1 + 1j, 2 - 1j])
            cols = linalg.lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]),
                                   np.array([[1 + 1j, 3.0], [2 - 1j, 5.0]]))
        assert x.dtype == cols.dtype == complex
        assert np.allclose(x, [0.2 + 0.8j, 0.6 - 0.6j], rtol=1e-15, atol=0.0)
        assert np.allclose(cols, [[0.2 + 0.8j, 0.8], [0.6 - 0.6j, 1.4]], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_rhs_matches_column_solves(self, dtype):
        # one factorization for all columns gives what one solve per column gives
        rng = np.random.default_rng(7)
        for n in (1, 2, 4, 7):
            a = rng.normal(size=(n, n)).astype(dtype)
            if dtype is complex:
                a = a + 1j * rng.normal(size=(n, n))
            b = np.eye(n, dtype=dtype)
            x = linalg.lu_solve(a, b)
            cols = np.column_stack([linalg.lu_solve(a, b[:, j]) for j in range(n)])
            assert x.shape == (n, n)
            assert np.max(np.abs(x - cols)) <= 1e-15 * np.max(np.abs(cols))

    def test_kept_factors_solve_as_lu_solve(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        factors = linalg.lu_factor(a)
        before = factors.lu
        for _ in range(3):
            b = rng.normal(size=5)
            assert linalg.lu_solve_factored(factors, b).tobytes() == linalg.lu_solve(a, b).tobytes()
        assert np.array_equal(factors.lu, before)


class TestEig2x2:
    def test_kinetics_matrix(self):
        dec = linalg.eig_2x2(np.array([[-2.0, 1.0], [2.0, -1.0]]))
        assert sorted(dec.eigenvalues.real) == pytest.approx([-3.0, 0.0], abs=1e-14)
        assert np.max(np.abs(dec.eigenvalues.imag)) == 0.0

    def test_identity(self):
        dec = linalg.eig_2x2(np.eye(2))
        assert np.allclose(dec.eigenvalues, 1.0)
        assert not dec.defective

    def test_rotation_pair(self):
        dec = linalg.eig_2x2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert sorted(dec.eigenvalues.imag) == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_defective_flagged(self):
        dec = linalg.eig_2x2(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert dec.defective
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_tiny_rotation_keeps_its_eigenvalues(self):
        # unscaled, the discriminant -4e-400 underflows to 0
        dec = linalg.eig_2x2(np.array([[0.0, 1e-200], [-1e-200, 0.0]]))
        assert not dec.defective
        assert list(dec.eigenvalues) == [-1e-200j, 1e-200j]

    @pytest.mark.parametrize("entries, defective", [
        ([[0.0, 1e-309], [-1e-309, 0.0]], False),
        ([[1e-310, 2e-310], [0.0, 1e-310]], True),
    ], ids=["rotation", "jordan"])
    def test_subnormal_matrices_give_finite_eigenvectors(self, entries, defective):
        a = np.array(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the unscaled division overflowed
            dec = linalg.eig_2x2(a)
        assert dec.defective == defective
        assert np.isfinite(dec.eigenvectors).all()
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert linalg.vec_norm_inf(v) == 1.0
            assert linalg.vec_norm_inf(a @ v - lam * v) <= 1e-8 * linalg.mat_norm_inf(a)

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_eigenvector_residual(self, entries):
        a = np.array(entries).reshape(2, 2)
        dec = linalg.eig_2x2(a)
        if dec.defective:
            return
        scale = max(linalg.mat_norm_inf(a), 1e-12)
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert linalg.vec_norm_inf(a @ v - lam * v) <= 1e-8 * scale


class TestJacobi:
    def test_diagonal(self):
        dec = linalg.jacobi_symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues.real, [1.0, 2.0, 3.0], atol=0.0)

    def test_2x2_symmetric(self):
        dec = linalg.jacobi_symmetric_eig(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        assert np.allclose(dec.eigenvalues.real, [-3.0, -1.0], atol=1e-13)

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetricError):
            linalg.jacobi_symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_closed_form_mol_matrix(self):
        for m in (1, 5, 9, 20, 50):
            dx = 1.0 / (m + 1)
            a = (np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1)
                 + np.diag(np.ones(m - 1), -1)) / dx**2
            dec = linalg.jacobi_symmetric_eig(a)
            closed = np.sort(linalg.tridiag_toeplitz_eigs(m, dx))
            assert np.max(np.abs(dec.eigenvalues.real - closed)) <= 1e-9

    def test_eigenvector_residual_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            a = a + a.T
            dec = linalg.jacobi_symmetric_eig(a)
            for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
                assert linalg.vec_norm_inf(a @ v - lam * v) <= 1e-8 * linalg.mat_norm_inf(a)


class TestTridiagToeplitz:
    def test_single_point(self):
        assert linalg.tridiag_toeplitz_eigs(1, 0.5) == pytest.approx([-8.0])

    def test_m9_extreme_eigenvalue(self):
        lams = linalg.tridiag_toeplitz_eigs(9, 0.1)
        expected = -400.0 * math.sin(0.45 * math.pi) ** 2
        assert lams[-1] == pytest.approx(expected, abs=1e-9)
        assert np.all(lams < 0.0)

    def test_rejects_mismatched_dx(self):
        with pytest.raises(ValueError):
            linalg.tridiag_toeplitz_eigs(9, 0.2)


class TestLinearExactSolution:
    A = np.array([[-2.0, 1.0], [2.0, -1.0]])

    def test_time_zero_is_identity(self):
        y0 = np.array([5.0, 2.0])
        assert np.allclose(linalg.linear_exact_solution(self.A, y0, 0.0), y0, atol=1e-12)

    def test_steady_state_limit(self):
        out = linalg.linear_exact_solution(self.A, np.array([5.0, 2.0]), 20.0)
        assert np.allclose(out, [7.0 / 3.0, 14.0 / 3.0], atol=1e-8)

    def test_closed_form_component(self):
        t = 3.0
        out = linalg.linear_exact_solution(self.A, np.array([5.0, 2.0]), t)
        y1 = 5.0 / 3.0 * (2.0 * math.exp(-3.0 * t) + 1.0) + 2.0 / 3.0 * (-math.exp(-3.0 * t) + 1.0)
        assert out[0] == pytest.approx(y1, abs=1e-12)

    def test_triangular_path(self):
        a = np.array([[-2.0, 0.0, 0.0], [2.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        y0 = np.array([1.0, 3.0, 2.0])
        out = linalg.linear_exact_solution(a, y0, 1.5)
        # mass is conserved in the decay chain and y1 decays exactly
        assert out.sum() == pytest.approx(y0.sum(), abs=1e-10)
        assert out[0] == pytest.approx(math.exp(-2.0 * 1.5), abs=1e-12)

    def test_triangular_eigenvector_residual(self):
        a = np.array([[-2.0, 0.0, 0.0], [2.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        dec = linalg.complete_eigendecomposition(a)
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert linalg.vec_norm_inf(a @ v - lam * v) <= 1e-8 * linalg.mat_norm_inf(a)

    def test_defective_raises(self):
        with pytest.raises(DefectiveMatrixError):
            linalg.linear_exact_solution(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                         np.array([1.0, 1.0]), 1.0)

    def test_repeated_triangular_diagonal_with_an_eigenbasis(self):
        # Robertson's Jacobian at t0: 0 twice on the diagonal, but the rows
        # of eigenvalue 0 vanish, so it has a two-dimensional eigenspace
        a = np.array([[-0.04, 0.0, 0.0], [0.04, 0.0, 0.0], [0.0, 0.0, 0.0]])
        dec = linalg.complete_eigendecomposition(a)
        assert not dec.defective
        assert dec.eigenvalues.tolist() == [-0.04, 0.0, 0.0]
        assert abs(np.linalg.det(dec.eigenvectors)) > 0.5
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert linalg.vec_norm_inf(a @ v - lam * v) <= 1e-14

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]).T,
    ])
    def test_repeated_triangular_eigenvalue_solution(self, a):
        # y1' = y1, y2' = y2, y3' = y1 + 2 y3, and transposed y1' = y1 + y3,
        # y2' = y2, y3' = 2 y3: the eigenvalue 1 has a two-dimensional
        # eigenspace in both
        y0, t = np.array([0.5, -1.5, 2.0]), 0.75
        e1, e2 = math.exp(t), math.exp(2.0 * t)
        if a[2, 0]:
            want = [y0[0] * e1, y0[1] * e1, (y0[2] + y0[0]) * e2 - y0[0] * e1]
        else:
            want = [y0[0] * e1 + y0[2] * (e2 - e1), y0[1] * e1, y0[2] * e2]
        out = linalg.linear_exact_solution(a, y0, t)
        assert out == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
    ])
    def test_defective_triangular_raises(self, a):
        with pytest.raises(DefectiveMatrixError, match="triangular matrix is defective"):
            linalg.linear_exact_solution(a, np.ones(3), 1.0)
        dec = linalg.eigen_decomposition(a)
        assert dec.defective and dec.eigenvectors is None

    def test_general_nonsymmetric_is_unsupported(self):
        a = np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, -2.0]])
        with pytest.raises(UnsupportedSpectrumError):
            linalg.eigen_decomposition(a)
        # still a DefectiveMatrixError to callers that catch that
        with pytest.raises(DefectiveMatrixError):
            linalg.complete_eigendecomposition(a)


class TestPolyRoots:
    def test_factorable_quadratic(self):
        rs = linalg.poly_roots([1.0, 5.0, 6.0])
        assert np.allclose(sorted(rs.roots.real), [-3.0, -2.0], atol=1e-10)
        assert list(rs.multiplicities) == [1, 1]

    def test_triple_root_quartic(self):
        rs = linalg.poly_roots([1.0, -5.0, 6.0, 4.0, -8.0])
        by_mult = dict(zip(rs.multiplicities, rs.roots))
        assert by_mult[1] == pytest.approx(-1.0, abs=1e-9)
        assert by_mult[3] == pytest.approx(2.0, abs=1e-9)

    def test_roots_of_unity(self):
        rs = linalg.poly_roots([1.0, 0.0, 0.0, -1.0])
        assert np.allclose(np.abs(rs.roots), 1.0, atol=1e-12)
        assert rs.degree == 3

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            linalg.poly_roots([0.0, 1.0, 2.0])

    def test_reconstruction_random_degree_le8(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            rs = linalg.poly_roots(c)
            rec = linalg._poly_from_roots(rs.roots, rs.multiplicities)
            monic = c / c[0]
            err = np.max(np.abs(rec - monic)) / max(1.0, float(np.max(np.abs(monic))))
            assert err <= 1e-8
