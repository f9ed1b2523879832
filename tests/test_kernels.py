import numpy as np
import pytest

from markovsharp import _kernels
from markovsharp.errors import QuadratureError


def test_stieltjes_reports_positivity_loss():
    # positive mass 1, but the degree-1 residual x + 1 has squared norm
    # 2 * 1^2 - 1 * 2^2 = -2
    nodes = np.array([0.0, 1.0])
    weights = np.array([2.0, -1.0])
    with pytest.raises(QuadratureError, match="lost positivity at degree 1"):
        _kernels.stieltjes(nodes, weights, 2)


def test_stieltjes_flags_empty_mass():
    nodes = np.array([0.0, 1.0])
    weights = np.array([1.0, -1.0])
    with pytest.raises(QuadratureError, match="mass 0.0 or its reciprocal is not finite"):
        _kernels.stieltjes(nodes, weights, 1)
