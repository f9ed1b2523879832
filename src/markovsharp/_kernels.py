"""Numeric kernels: orthonormal-polynomial tables and the discretized
Stieltjes procedure, vectorized over the evaluation or quadrature points.

Each kernel takes the recurrence arrays positionally, ``(diag, offdiag, p0,
x, order)`` or ``(nodes, weights, n)``, and loops only over the degree.
``deriv_tables`` is the one kernel that evaluates a recurrence at points,
for one recurrence or a zero-padded stack of them: the Gauss rules' weights
read its order-0 values, and ``eval_orthonormal`` and
``eval_derivative_table`` its derivatives too.  No constant reads it: the
residual of a constant is taken from its derivative matrix, so the
derivative orders serve the self-test and the tests' quadrature oracle.
A kernel that cannot finish raises ``QuadratureError`` naming the cause.
``_p0`` is the one place a weight's mass becomes p_0 = 1/sqrt(mass), and the
one check that the mass allows it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError


def _p0(mass):
    """p_0 = 1/sqrt(mass), the constant orthonormal polynomial of a weight.

    Raises ``QuadratureError`` unless the mass and its reciprocal are
    positive and finite: p_0^2 = 1/mass, so a subnormal mass leaves p_0
    finite but its square not.
    """
    if not (0.0 < mass < math.inf and 1.0 / mass < math.inf):
        raise QuadratureError(f"the weight's mass {mass!r} or its reciprocal is not finite")
    return 1.0 / math.sqrt(mass)


def deriv_tables(diag, offdiag, p0, x, order):
    """Tables of p_k^(d)(x) for d = 0..order, shape (order+1, n+1, *x.shape).

    Obtained by differentiating the three-term recurrence d times,
    p_{k+1}^(d) = ((x - a_k) p_k^(d) + d p_k^(d-1) - b_{k-1} p_{k-1}^(d)) * (1/b_k).
    Takes one recurrence, diag (n+1,), offdiag (n,), a scalar p0 and points
    x (points,), or a stack of them, one per row: diag (rows, n+1), offdiag
    (rows, n), p0 (rows,) and x (rows, points).  A row of m < n+1 points is
    padded with offdiag = 0 from entry m-1 on; 1/b_k is taken as 0 there,
    so every p_k past its size vanishes.
    """
    n = diag.shape[-1] - 1
    # the degree first and one trailing axis, so a[k] broadcasts against x
    a, b = diag.T[..., None], offdiag.T[..., None]
    inv = np.zeros_like(b)
    np.divide(1.0, b, out=inv, where=b > 0)
    d = np.arange(1.0, order + 1.0).reshape((order,) + (1,) * x.ndim)
    # work[k] holds every order of p_k, one contiguous block per degree
    work = np.zeros((n + 1, order + 1) + x.shape)
    work[0, 0] = np.asarray(p0)[..., None]
    for k in range(n):
        nxt = work[k + 1]
        np.subtract(x, a[k], out=nxt)
        nxt *= work[k]
        if order:
            nxt[1:] += d * work[k, :-1]
        if k:
            nxt -= b[k - 1] * work[k - 1]
        nxt *= inv[k]
    return np.ascontiguousarray(work.swapaxes(0, 1))


def stieltjes(nodes, weights, n):
    """Recurrence coefficients of the discrete measure sum w_q δ(x - x_q).

    Runs the Stieltjes procedure on orthonormal (not monic) values so the
    iterates stay O(1).  Returns (diag, offdiag, mass).  Raises
    ``QuadratureError`` if the mass or its reciprocal is not finite, if the
    sums of some degree leave the floating-point range, or if the rule loses
    positivity at some degree.
    """
    diag = np.zeros(n + 1)
    offdiag = np.zeros(n)
    # an overflow leaves a sum non-finite: ``_p0`` names the mass, and each
    # later sum its degree below
    with np.errstate(over="ignore", invalid="ignore"):
        mass = float(np.sum(weights))
        p_prev = np.zeros_like(nodes)
        p_cur = np.full_like(nodes, _p0(mass))
        wx = weights * nodes
        diag[0] = np.dot(wx, p_cur * p_cur)
        for k in range(n):
            t = (nodes - diag[k]) * p_cur - (offdiag[k - 1] if k > 0 else 0.0) * p_prev
            nrm2 = float(np.dot(weights, t * t))
            if not math.isfinite(nrm2):
                raise QuadratureError(f"quadrature out of floating-point range at degree {k + 1}")
            if not nrm2 > 0.0:
                raise QuadratureError(f"quadrature insufficient: lost positivity at degree {k + 1}")
            b = math.sqrt(nrm2)
            offdiag[k] = b
            p_prev = p_cur
            p_cur = t / b
            diag[k + 1] = np.dot(wx, p_cur * p_cur)
    if not math.isfinite(diag[n]):
        raise QuadratureError(f"quadrature out of floating-point range at degree {n}")
    return diag, offdiag, mass
