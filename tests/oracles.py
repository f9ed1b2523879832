"""Independent reference computations the tests check the library against.

Everything here works from first principles (moments, brute force, power
iteration) and never calls the code paths it is used to verify.
"""

import math
from fractions import Fraction

import numpy as np


def _poly_inner(p, q, moments):
    total = 0
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            if qj == 0:
                continue
            total += pi * qj * moments[i + j]
    return total


def _poly_shift(p):
    return [0 * p[0]] + list(p)


def _poly_axpy(p, c, q):
    out = list(p) + [0 * p[0]] * (len(q) - len(p))
    for j, qj in enumerate(q):
        out[j] = out[j] - c * qj
    return out


def recurrence_from_moments(moments, n):
    """Orthonormal recurrence (diag, offdiag, mass) from raw moments.

    Runs the monic three-term recurrence with inner products taken directly
    from the moment list; exact when the moments are Fractions.
    """
    one = moments[0] / moments[0] if isinstance(moments[0], Fraction) else 1.0
    pi_prev = None
    pi = [one]
    norm_prev = None
    norm = _poly_inner(pi, pi, moments)
    alphas = []
    betas = []
    for k in range(n + 1):
        alphas.append(_poly_inner(_poly_shift(pi), pi, moments) / norm)
        if k == n:
            break
        nxt = _poly_axpy(_poly_shift(pi), alphas[-1], pi)
        if pi_prev is not None:
            nxt = _poly_axpy(nxt, norm / norm_prev, pi_prev)
        pi_prev, pi = pi, nxt
        norm_prev, norm = norm, _poly_inner(pi, pi, moments)
        betas.append(norm / norm_prev)
    diag = np.array([float(a) for a in alphas])
    offdiag = np.sqrt(np.array([float(b) for b in betas]))
    return diag, offdiag, float(moments[0])


def legendre_moments(count):
    return [Fraction(1 + (-1) ** k, k + 1) for k in range(count)]


def laguerre_moments(count):
    return [Fraction(math.factorial(k)) for k in range(count)]


def hermite_moments(count):
    return [0.0 if k % 2 else math.gamma((k + 1) / 2) for k in range(count)]


def power_iteration_largest(mat, iters=10000, seed=0):
    """Dominant eigenvalue/vector of a symmetric PSD matrix by power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0, v
        v = w / nrm
    return float(v @ mat @ v), v


def pencil_power_iteration(k_mat, g_mat, iters=100000, seed=0):
    """Largest theta of K v = theta G v by power iteration on solve(G, K)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(k_mat.shape[0])
    v /= np.linalg.norm(v)
    x = np.linalg.solve(g_mat, k_mat)
    for _ in range(iters):
        w = x @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        v = w / nrm
    return float((v @ k_mat @ v) / (v @ g_mat @ v))


def derivative_matrix_by_quadrature(diag, offdiag, mass, nodes, weights, n):
    """Matrix of <p_i, p_k'> for i, k <= n, by quadrature.

    Evaluates p_k and p_k' at the nodes with its own pointwise recurrence
    (differentiated once) and pairs them under the rule, which must integrate
    polynomials of degree 2n-1 against the weight exactly.
    """
    p = np.zeros((n + 1, len(nodes)))
    dp = np.zeros_like(p)
    p[0] = 1.0 / math.sqrt(mass)
    for k in range(n):
        shifted = nodes - diag[k]
        p[k + 1] = shifted * p[k]
        dp[k + 1] = shifted * dp[k] + p[k]
        if k > 0:
            p[k + 1] -= offdiag[k - 1] * p[k - 1]
            dp[k + 1] -= offdiag[k - 1] * dp[k - 1]
        p[k + 1] /= offdiag[k]
        dp[k + 1] /= offdiag[k]
    return (p * weights) @ dp.T


def gauss_jacobi_point_mp(m, alpha, beta, x0, mp):
    """Node near x0 and its weight in the m-point Gauss-Jacobi rule for
    (1-x)^alpha (1+x)^beta, at the working precision of ``mp``.

    Two Newton steps from a double-precision x0 on mpmath's hypergeometric
    P_m^(alpha,beta), then the closed-form weight (Szegő, *Orthogonal
    Polynomials*, sec. 15.3); no three-term recurrence is involved.
    """
    a, b = mp.mpf(alpha), mp.mpf(beta)
    x = mp.mpf(x0)

    def deriv(t):
        return (m + a + b + 1) / 2 * mp.jacobi(m - 1, a + 1, b + 1, t)

    for _ in range(2):
        # zeroprec: at an exact zero (x = 0 for odd m and alpha = beta)
        # mpmath would otherwise chase a relative accuracy it cannot reach
        x -= mp.jacobi(m, a, b, x, zeroprec=4 * mp.prec) / deriv(x)
    const = (
        2 ** (a + b + 1)
        * mp.gamma(m + a + 1)
        * mp.gamma(m + b + 1)
        / (mp.gamma(m + a + b + 1) * mp.factorial(m))
    )
    return x, const / ((1 - x * x) * deriv(x) ** 2)
