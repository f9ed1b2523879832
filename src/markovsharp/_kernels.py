"""Numeric kernels: orthonormal-polynomial tables and the discretized
Stieltjes procedure, vectorized over the evaluation or quadrature points.

Each kernel takes the recurrence arrays positionally, ``(diag, offdiag, p0,
x, ...)`` or ``(nodes, weights, n)``, and loops only over the degree.
"""

from __future__ import annotations

import math

import numpy as np


def poly_table(diag, offdiag, p0, x):
    """Values p_0(x)..p_n(x) of the orthonormal polynomials, shape (n+1, len(x))."""
    n = diag.shape[0] - 1
    out = np.empty((n + 1, x.shape[0]))
    out[0] = p0
    if n >= 1:
        out[1] = (x - diag[0]) * p0 / offdiag[0]
    for k in range(1, n):
        out[k + 1] = ((x - diag[k]) * out[k] - offdiag[k - 1] * out[k - 1]) / offdiag[k]
    return out


def deriv_tables(diag, offdiag, p0, x, order):
    """Tables of p_k^(d)(x) for d = 0..order, shape (order+1, n+1, len(x)).

    Obtained by differentiating the three-term recurrence d times:
    b_k p_{k+1}^(d) = (x - a_k) p_k^(d) + d p_k^(d-1) - b_{k-1} p_{k-1}^(d).
    """
    n = diag.shape[0] - 1
    out = np.zeros((order + 1, n + 1, x.shape[0]))
    out[0, 0] = p0
    d = np.arange(1.0, order + 1.0)[:, None]
    for k in range(n):
        v = (x - diag[k]) * out[:, k]
        v[1:] += d * out[:-1, k]
        if k > 0:
            v -= offdiag[k - 1] * out[:, k - 1]
        out[:, k + 1] = v / offdiag[k]
    return out


def christoffel_weights(diag, offdiag, p0, x):
    """Gauss weights 1 / sum_k p_k(x_j)^2 of a stack of rules, shape of x.

    Row r holds one rule: its nodes x[r], its recurrence diag[r],
    offdiag[r] and p0[r].  A rule of m < x.shape[1] points is padded with
    offdiag = 0 from entry m-1 on; 1/b_k is taken as 0 there, so every p_k
    past its size vanishes.  Weights in the padded columns are meaningless.
    """
    inv = np.zeros_like(offdiag)
    np.divide(1.0, offdiag, out=inv, where=offdiag > 0)
    p_prev = np.zeros_like(x)
    p = np.repeat(p0[:, None], x.shape[1], axis=1)
    total = p * p
    for k in range(x.shape[1] - 1):
        t = (x - diag[:, k, None]) * p
        if k > 0:
            t -= offdiag[:, k - 1, None] * p_prev
        p_prev, p = p, t * inv[:, k, None]
        total += p * p
    return 1.0 / total


def stieltjes(nodes, weights, n):
    """Recurrence coefficients of the discrete measure sum w_q δ(x - x_q).

    Runs the Stieltjes procedure on orthonormal (not monic) values so the
    iterates stay O(1).  Returns (diag, offdiag, mass, status); status is -1
    on success, else 1 + the index k at which positivity was lost.
    """
    diag = np.zeros(n + 1)
    offdiag = np.zeros(n)
    mass = float(np.sum(weights))
    if not (mass > 0.0 and np.isfinite(mass)):
        return diag, offdiag, mass, 0
    wx = weights * nodes
    p_prev = np.zeros_like(nodes)
    p_cur = np.full_like(nodes, 1.0 / math.sqrt(mass))
    diag[0] = np.dot(wx, p_cur * p_cur)
    for k in range(n):
        t = (nodes - diag[k]) * p_cur - (offdiag[k - 1] if k > 0 else 0.0) * p_prev
        nrm2 = float(np.dot(weights, t * t))
        if not (nrm2 > 0.0 and np.isfinite(nrm2)):
            return diag, offdiag, mass, k + 1
        b = math.sqrt(nrm2)
        offdiag[k] = b
        p_prev = p_cur
        p_cur = t / b
        diag[k + 1] = np.dot(wx, p_cur * p_cur)
    return diag, offdiag, mass, -1
