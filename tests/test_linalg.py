import math
import warnings

import numpy as np
import pytest

from markovsharp import svd_largest
from markovsharp.linalg import solve_triangular

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
        # eigh of the zero Gram matrix returns the identity's columns; callers reject sigma = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma, v = svd_largest(np.zeros((2, 3)))
        assert sigma == 0.0
        np.testing.assert_array_equal(v, [0.0, 0.0, 1.0])


class TestSolveTriangular:
    def test_substitution_keeps_the_zeros(self):
        # a strictly lower right-hand side has a strictly lower solution, with
        # exact zeros, whose leading block is the leading block's solution
        rng = np.random.default_rng(11)
        low = np.tril(rng.standard_normal((9, 9)), -1) + np.diag(rng.uniform(1.0, 2.0, 9))
        rhs = np.tril(rng.standard_normal((9, 9)), -1)
        y = solve_triangular(low, rhs, lower=True)
        np.testing.assert_allclose(low @ y, rhs, rtol=0, atol=1e-13)
        assert np.all(np.triu(y) == 0.0)
        lead = solve_triangular(low[:4, :4], rhs[:4, :4], lower=True)
        np.testing.assert_allclose(lead, y[:4, :4], rtol=0, atol=1e-14)

    def test_upper_system(self):
        rng = np.random.default_rng(13)
        up = np.triu(rng.standard_normal((7, 7)), 1) + np.diag(rng.uniform(1.0, 2.0, 7))
        rhs = rng.standard_normal(7)
        np.testing.assert_allclose(up @ solve_triangular(up, rhs), rhs, rtol=0, atol=1e-13)
