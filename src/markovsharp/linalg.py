"""Dense symmetric eigen/SVD helpers sized for the small matrices used here.

Thin contracts over LAPACK (through numpy): symmetry is checked on the way in,
and every returned vector has its last nonzero component positive so golden
outputs are deterministic.  The largest singular value is taken from the
eigendecomposition of M^T M, which is accurate enough here because only the
(well separated) top value is consumed.
"""

from __future__ import annotations

import warnings

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
    vec = _fix_sign(vecs[:, -1])
    if sigma == 0.0:
        warnings.warn("svd_largest: zero matrix, returning an arbitrary unit vector")
        vec = np.zeros(m.shape[1])
        vec[-1] = 1.0
    return sigma, vec


def gen_sym_eigen_max(a: np.ndarray, b: np.ndarray):
    """Largest theta with A v = theta B v for symmetric A and positive definite B.

    Reduction through the Cholesky factor B = L L^T; the returned vector is
    normalized so that v^T B v = 1.
    """
    a = _check_symmetric(a, "A")
    b = _check_symmetric(b, "B")
    if a.shape != b.shape:
        raise EigenError("A and B must have equal shapes")
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise EigenError("B not positive definite") from exc
    half = np.linalg.solve(chol, a)
    reduced = np.linalg.solve(chol, half.T).T
    vals, vecs = _eigh(0.5 * (reduced + reduced.T))
    theta = float(vals[-1])
    # the solve is linear, so the sign fixed below does not depend on the
    # sign LAPACK gave the top eigenvector
    vec = np.linalg.solve(chol.T, vecs[:, -1])
    return theta, _fix_sign(vec)
