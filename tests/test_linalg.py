import numpy as np

from markovsharp.markov import _fix_sign, solve_triangular


class TestFixSign:
    def test_last_entry_of_size_made_positive(self):
        # the last entry is below the 1e-12 relative threshold, so the one before it decides
        rows = np.array([[0.0, 2.0, -1.0], [3.0, -1.0, 1e-13], [1.0, 2.0, 3.0]])
        got = _fix_sign(rows, True)
        np.testing.assert_array_equal(got, [[-0.0, -2.0, 1.0], [-3.0, 1.0, -1e-13], rows[2]])

    def test_padding_keeps_positive_zero(self):
        # only the solved entries change sign; the padding stays +0.0, never -0.0
        rows = np.array([[1.0, 0.0, -2.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
        solved = np.array([[True, True, True, False], [True, True, False, False]])
        got = _fix_sign(rows, solved)
        np.testing.assert_array_equal(got, [[-1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert not np.signbit(got[:, -1]).any()
        assert not np.signbit(got[1, 2:]).any()

    def test_zero_row_kept(self):
        rows = np.array([[0.0, -0.0, 0.0], [0.0, -1.0, 0.0]])
        got = _fix_sign(rows, True)
        assert got[0].tobytes() == rows[0].tobytes()
        np.testing.assert_array_equal(got[1], [-0.0, 1.0, -0.0])


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
