"""Largest singular value and vector, sized for the small matrices used here.

The largest singular value is taken from LAPACK's eigendecomposition of
M^T M (through numpy), which is accurate enough here because only the (well
separated) top value is consumed.  numpy's product M^T M is exactly
symmetric, so it goes to the eigensolver as it is.  Every returned vector has
its last nonzero component positive so golden outputs are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenError

_SIGN_RTOL = 1e-12


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its last component of non-negligible size is positive."""
    mag = np.abs(v)
    idx = np.flatnonzero(mag > _SIGN_RTOL * mag.max(initial=0.0))
    return -v if idx.size and v[idx[-1]] < 0 else v


def solve_triangular(t: np.ndarray, x: np.ndarray, lower: bool = False) -> np.ndarray:
    """Solve t y = x for a triangular t by substitution.

    numpy has no triangular solver, but LAPACK's partially pivoted LU finds
    every pivot on the diagonal of an upper-triangular matrix and eliminates
    nothing, so ``np.linalg.solve`` reduces to back substitution there.  A
    lower-triangular system is solved as the reversed, upper-triangular one.
    """
    if lower:
        return np.linalg.solve(t[::-1, ::-1], x[::-1])[::-1]
    return np.linalg.solve(t, x)


def svd_largest(m: np.ndarray):
    """Greatest singular value of m and the corresponding right singular vector."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    try:
        vals, vecs = np.linalg.eigh(m.T @ m)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"eigensolver did not converge: {exc}") from exc
    sigma = float(np.sqrt(max(vals[-1], 0.0)))
    return sigma, _fix_sign(vecs[:, -1])
