import numpy as np

from markovsharp import _kernels


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
