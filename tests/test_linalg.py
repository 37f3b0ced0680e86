import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import dense_bfgs_oracle
from qsass.store import solve_checked, sym_eig_small, thin_qr


def assert_r_factor(r, a, rtol=1e-10):
    """``r`` is upper triangular and ``r^T r`` reproduces ``a^T a``."""
    k = a.shape[1]
    assert r.shape == (k, k)
    assert np.array_equal(np.tril(r, -1), np.zeros((k, k)))
    gram = a.T @ a
    assert np.linalg.norm(r.T @ r - gram) <= rtol * max(np.linalg.norm(gram), 1.0)


class TestThinQr:
    def test_identity(self):
        r = thin_qr(np.eye(3))
        # Row signs are not pinned; compare up to a sign per row.
        assert_allclose(np.abs(r), np.eye(3), atol=1e-14)

    def test_rank_one_two_by_two(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        r = thin_qr(a)
        assert abs(r[1, 1]) <= 1e-14
        assert_r_factor(r, a, rtol=1e-14)

    def test_random_tall(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        assert_r_factor(thin_qr(a), a)

    def test_random_shapes_including_rank_deficient(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, min(n, 10) + 1))
            a = rng.standard_normal((n, m))
            if trial % 3 == 0 and m >= 2:
                # Force rank deficiency by duplicating a column.
                a[:, -1] = a[:, 0]
            assert_r_factor(thin_qr(a), a)

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_r_is_bit_for_bit_that_of_the_reduced_factorization(self, n):
        # The compact query's bytes rest on this: forming only R gives the
        # very R of the reduced factorization, Q included.  Shapes are the
        # store's [c S, Y] with m pairs, 2 m <= n.
        rng = np.random.default_rng(n)
        for trial in range(60):
            m = int(rng.integers(1, min(n // 2, 10) + 1))
            a = rng.standard_normal((n, 2 * m))
            if trial % 3 == 1:
                a[:, m:m + 1] = 2.0 * a[:, :1]
            elif trial % 3 == 2:
                a *= 10.0 ** rng.uniform(-6.0, 6.0, size=2 * m)
            r = thin_qr(a)
            assert r.tobytes() == np.linalg.qr(a, mode="reduced")[1].tobytes()


class TestSymEigSmall:
    def test_diagonal(self):
        assert_allclose(sym_eig_small(np.diag([3.0, 1.0, -2.0])),
                        [-2.0, 1.0, 3.0], atol=1e-14)

    def test_off_diagonal_pair(self):
        assert_allclose(sym_eig_small(np.array([[0.0, 1.0], [1.0, 0.0]])),
                        [-1.0, 1.0], atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        vals = sym_eig_small(a)
        assert abs(np.trace(a) - vals.sum()) <= 1e-9
        assert np.all(np.diff(vals) >= 0.0)

    def test_characteristic_polynomial_cross_check(self):
        # Independent oracle: roots of the characteristic polynomial.
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            a = rng.standard_normal((n, n))
            a = a + a.T
            got = sym_eig_small(a)
            ref = np.sort(np.roots(np.poly(a)).real)
            assert_allclose(got, ref, atol=1e-8, rtol=1e-8)


class TestSolveChecked:
    def test_solves(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        rhs = rng.standard_normal(5)
        assert_allclose(m @ solve_checked(m, rhs), rhs, atol=1e-10)

    @pytest.mark.parametrize("m", [np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   np.zeros((2, 2))])
    def test_singular_raises(self, m):
        with pytest.raises(np.linalg.LinAlgError):
            solve_checked(m, np.ones(2))


class TestDenseBfgsOracle:
    def test_no_pairs_gives_scaled_identity(self):
        assert_allclose(dense_bfgs_oracle([], [], 1.0, n=2), np.eye(2))
        assert_allclose(dense_bfgs_oracle([], [], 2.5, n=3), 2.5 * np.eye(3))

    def test_single_axis_pair(self):
        s = np.array([1.0, 0.0])
        y = np.array([2.0, 0.0])
        b = dense_bfgs_oracle([s], [y], 1.0)
        assert_allclose(b, np.diag([2.0, 1.0]), atol=1e-12)

    def test_secant_equation_holds_for_last_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 4))
            s_list, y_list = [], []
            while len(s_list) < m:
                s = rng.standard_normal(n)
                y = rng.standard_normal(n)
                if s @ y > 1e-8:
                    s_list.append(s)
                    y_list.append(y)
            b = dense_bfgs_oracle(s_list, y_list, 1.0)
            assert np.linalg.norm(b @ s_list[-1] - y_list[-1]) <= 1e-9
            assert_allclose(b, b.T, atol=1e-10)

    def test_rejects_nonpositive_curvature(self):
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        with pytest.raises(ValueError, match="non-positive curvature"):
            dense_bfgs_oracle([s], [y], 1.0)

    def test_needs_dimension_without_pairs(self):
        with pytest.raises(ValueError):
            dense_bfgs_oracle([], [], 1.0)
