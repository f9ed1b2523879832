"""Largest singular value and vector, sized for the small matrices used here.

The largest singular value is taken from LAPACK's eigendecomposition of
M^T M (through numpy), which is accurate enough here because only the (well
separated) top value is consumed.  numpy's product M^T M is exactly
symmetric, so it goes to the eigensolver as it is.  Every returned vector has
its last component of non-negligible size positive, so golden outputs are
deterministic; ``_fix_sign`` is that rule, for one vector here and for the
rows of a whole degree range in ``markov``.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenError

_SIGN_RTOL = 1e-12


def _fix_sign(rows: np.ndarray, solved=True) -> np.ndarray:
    """Flip each row so its last entry of non-negligible size is positive.

    Only the ``solved`` entries (a mask broadcast against ``rows``) change
    sign, so the zero padding around a row's solved entries keeps its +0.0;
    padding never decides the sign, because it is never of non-negligible
    size.  A row with no such entry is kept as it is.
    """
    mag = np.abs(rows)
    big = mag > _SIGN_RTOL * mag.max(axis=1, keepdims=True)
    last = rows.shape[1] - 1 - big[:, ::-1].argmax(axis=1)
    flip = (rows * big)[np.arange(len(rows)), last] < 0
    return np.where(flip[:, None] & solved, -rows, rows)


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
    return sigma, _fix_sign(vecs[None, :, -1])[0]
