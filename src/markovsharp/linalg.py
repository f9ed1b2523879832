"""The sign rule and the triangular solve behind every sharp constant.

``markov._top_pairs`` takes each degree's top singular pair from LAPACK's
eigendecomposition of M^T M (through numpy); ``_fix_sign`` makes every
vector of a degree range have its last component of non-negligible size
positive, so golden outputs are deterministic.  ``solve_triangular`` is the
substitution of the Sobolev factor.
"""

from __future__ import annotations

import numpy as np

_SIGN_RTOL = 1e-12


def _fix_sign(rows: np.ndarray, solved) -> np.ndarray:
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
