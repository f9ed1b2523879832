import numpy as np
import pytest

from markovsharp import _kernels


def _hermite_coeffs(n):
    return np.zeros(n + 1), np.sqrt(np.arange(1.0, n + 1.0) / 2.0), np.pi ** -0.25


@pytest.fixture
def points():
    rng = np.random.default_rng(42)
    return np.sort(rng.uniform(-3, 3, 37))


def test_deriv_table_order_zero_matches_poly_table(points):
    diag, offdiag, p0 = _hermite_coeffs(8)
    table = _kernels.poly_table(diag, offdiag, p0, points)
    stack = _kernels.deriv_tables(diag, offdiag, p0, points, 0)
    np.testing.assert_allclose(stack[0], table, rtol=1e-14)


def test_stieltjes_reports_positivity_loss():
    nodes = np.array([0.0, 1.0, 2.0])
    weights = np.array([1.0, -2.0, 0.5])  # indefinite "measure"
    _, _, _, status = _kernels.stieltjes(nodes, weights, 2)
    assert status >= 0


def test_stieltjes_flags_empty_mass():
    nodes = np.array([0.0, 1.0])
    weights = np.array([1.0, -1.0])
    _, _, _, status = _kernels.stieltjes(nodes, weights, 1)
    assert status == 0
