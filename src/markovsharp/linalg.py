"""Dense symmetric eigen/SVD helpers sized for the small matrices used here.

Thin contracts over LAPACK (through numpy): symmetry is checked on the way in,
and every returned vector has its last nonzero component positive so golden
outputs are deterministic.  The largest singular value is taken from the
eigendecomposition of M^T M, which is accurate enough here because only the
(well separated) top value is consumed.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenError

_SYM_RTOL = 1e-12
_SIGN_RTOL = 1e-12


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its last component of non-negligible size is positive."""
    top = np.max(np.abs(v)) if v.size else 0.0
    if top == 0.0:
        return v
    idx = np.nonzero(np.abs(v) > _SIGN_RTOL * top)[0]
    if idx.size and v[idx[-1]] < 0:
        return -v
    return v


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise EigenError(f"{name} must be a square matrix")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > _SYM_RTOL * scale:
        raise EigenError(f"{name} is not symmetric")
    return 0.5 * (m + m.T)


def _eigh(m: np.ndarray):
    """LAPACK eigendecomposition of a checked symmetric matrix, signs as LAPACK left them."""
    sym = _check_symmetric(m, "matrix")
    try:
        return np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"eigensolver did not converge: {exc}") from exc


def svd_largest(m: np.ndarray):
    """Greatest singular value of m and the corresponding right singular vector."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    gram = m.T @ m
    vals, vecs = _eigh(gram)
    sigma = float(np.sqrt(max(vals[-1], 0.0)))
    return sigma, _fix_sign(vecs[:, -1])

