import math

import numpy as np
import pytest

from markovsharp import EigenError, gen_sym_eigen_max, svd_largest

from oracles import power_iteration_largest


class TestSvdLargest:
    def test_diagonal(self):
        sigma, _ = svd_largest(np.diag([3.0, 5.0]))
        assert sigma == pytest.approx(5.0, rel=1e-15)

    def test_rank_one_row(self):
        sigma, v = svd_largest(np.array([[0.0, math.sqrt(2)]]))
        assert sigma == pytest.approx(math.sqrt(2), rel=1e-15)
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-15)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 6))
        sigma, v = svd_largest(m)
        lam, _ = power_iteration_largest(m.T @ m, iters=10000, seed=1)
        assert sigma == pytest.approx(math.sqrt(lam), rel=1e-9)
        assert np.linalg.norm(m @ v) == pytest.approx(sigma, rel=1e-10)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 7))
        s1, _ = svd_largest(m)
        s2, _ = svd_largest(m.T)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_sign_convention_deterministic(self):
        _, v = svd_largest(np.diag([1.0, -2.0]))
        # the singular vector is +/- e_2; its last nonzero component must be positive
        np.testing.assert_allclose(v, [0.0, 1.0])
        _, v = svd_largest(np.random.default_rng(29).standard_normal((4, 5)))
        assert v[-1] > 0

    def test_zero_matrix_flagged(self):
        with pytest.warns(UserWarning, match="zero matrix"):
            sigma, v = svd_largest(np.zeros((2, 3)))
        assert sigma == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestGenSymEigenMax:
    def test_identity_b(self):
        theta, _ = gen_sym_eigen_max(np.diag([1.0, 2.0]), np.eye(2))
        assert theta == pytest.approx(2.0, rel=1e-15)

    def test_equal_forms(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 5))
        spd = m @ m.T + 5 * np.eye(5)
        theta, _ = gen_sym_eigen_max(spd, spd)
        assert theta == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_ratio(self):
        theta, _ = gen_sym_eigen_max(np.diag([2.0, 1.0]), np.diag([1.0, 4.0]))
        assert theta == pytest.approx(2.0, rel=1e-15)

    def test_rejects_asymmetric(self):
        with pytest.raises(EigenError, match="symmetric"):
            gen_sym_eigen_max(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_b_not_positive_definite(self):
        with pytest.raises(EigenError, match="positive definite"):
            gen_sym_eigen_max(np.eye(2), np.diag([1.0, -1.0]))

    def test_residual_and_b_normalization(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((8, 8))
        a = m @ m.T
        c = rng.standard_normal((8, 8))
        b = c @ c.T + 8 * np.eye(8)
        theta, v = gen_sym_eigen_max(a, b)
        res = np.linalg.norm(a @ v - theta * b @ v)
        assert res <= 1e-9 * (np.linalg.norm(a) + abs(theta) * np.linalg.norm(b))
        assert v @ b @ v == pytest.approx(1.0, rel=1e-12)

    def test_matches_plain_eigen_with_identity_b(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((6, 6))
        sym = 0.5 * (m + m.T)
        theta, _ = gen_sym_eigen_max(sym, np.eye(6))
        vals = np.linalg.eigvalsh(sym)
        assert theta == pytest.approx(vals[-1], rel=1e-10, abs=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((5, 5))
        a = m @ m.T
        b = np.eye(5) + 0.3 * a
        theta1, _ = gen_sym_eigen_max(a, b)
        for c in (1e-3, 1.0, 1e3):
            theta_c, _ = gen_sym_eigen_max(c * a, b)
            assert theta_c == pytest.approx(c * theta1, rel=1e-12)
