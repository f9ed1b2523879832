import numpy as np
import pytest

from markovsharp.errors import QuadratureError
from markovsharp.orthopoly import _p0, deriv_tables
from markovsharp.quadrature import stieltjes


def test_stieltjes_reports_positivity_loss():
    # positive mass 1, but the degree-1 residual x + 1 has squared norm
    # 2 * 1^2 - 1 * 2^2 = -2
    nodes = np.array([0.0, 1.0])
    weights = np.array([2.0, -1.0])
    with pytest.raises(QuadratureError, match="lost positivity at degree 1"):
        stieltjes(nodes, weights, 2)


def test_stieltjes_flags_empty_mass():
    nodes = np.array([0.0, 1.0])
    weights = np.array([1.0, -1.0])
    with pytest.raises(QuadratureError, match="mass 0.0 or its reciprocal is not finite"):
        stieltjes(nodes, weights, 1)


def test_stieltjes_names_an_overflow():
    # p_0 = 1/sqrt(2e-300) is about 7e149, so the degree-1 residual at the
    # nodes, about 3.5e154, overflows when squared: a floating-point-range
    # failure at degree 1, not a loss of positivity, and no warning leaks
    nodes = np.array([0.0, 1e5])
    weights = np.array([1e-300, 1e-300])
    with pytest.raises(QuadratureError, match="out of floating-point range at degree 1"):
        stieltjes(nodes, weights, 2)


def test_stieltjes_names_an_overflow_of_the_last_diagonal():
    # the degree-1 norm is 1e-6 and finite, but p_1 = 1e155 at the node of
    # subnormal weight, so the last diagonal sum overflows
    nodes = np.array([-1e-3, 1e-3, 1e152])
    weights = np.array([0.5, 0.5, 1e-320])
    with pytest.raises(QuadratureError, match="out of floating-point range at degree 1"):
        stieltjes(nodes, weights, 1)


def test_p0_checks_the_mass():
    assert _p0(4.0) == 0.5
    for mass in (0.0, -1.0, 1e-320, float("inf"), float("nan")):
        with pytest.raises(QuadratureError, match="or its reciprocal is not finite"):
            _p0(mass)


def test_deriv_tables_of_a_stack_equal_each_row_alone():
    # rules of 3, 9 and 14 points zero-padded to one stack: every row's table
    # is, byte for byte, the table of its own recurrence at its points, and
    # zero past its size
    from markovsharp.orthopoly import _jacobi_coefficients, _laguerre_coefficients

    recs = [_jacobi_coefficients(0.5, -0.3, 2), _laguerre_coefficients(1.2, 8),
            _jacobi_coefficients(2.5, 0.0, 13)]
    width = max(d.shape[0] for d, _, _ in recs)
    diag, offdiag = np.zeros((3, width)), np.zeros((3, width - 1))
    for r, (d, o, _) in enumerate(recs):
        diag[r, : d.shape[0]], offdiag[r, : o.shape[0]] = d, o
    p0 = np.array([_p0(mass) for _, _, mass in recs])
    x = np.random.default_rng(3).uniform(-1.0, 4.0, (3, width))
    for order in range(6):
        stack = deriv_tables(diag, offdiag, p0, x, order)
        assert stack.shape == (order + 1, width, 3, width)
        for r, (d, o, _) in enumerate(recs):
            alone = deriv_tables(d, o, p0[r], x[r], order)
            m = d.shape[0]
            assert stack[:, :m, r].tobytes() == alone.tobytes()
            assert not stack[:, m:, r].any()
