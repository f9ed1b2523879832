"""Independent reference computations the tests check the library against.

Everything here works from first principles (moments, brute force, power
iteration, closed forms) and never calls the code paths it is used to verify.
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


def monic_recurrence(moments, n):
    """Monic recurrence (alphas, betas) from raw moments; exact when they are Fractions.

    x m_k = m_{k+1} + alphas[k] m_k + betas[k-1] m_{k-1} for k = 0..n, with
    inner products taken directly from the moment list; betas[k-1] is
    ||m_k||^2 / ||m_{k-1}||^2, k = 1..n.
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
    return alphas, betas


def recurrence_from_moments(moments, n):
    """Orthonormal recurrence (diag, offdiag, mass) from raw moments, by ``monic_recurrence``."""
    alphas, betas = monic_recurrence(moments, n)
    diag = np.array([float(a) for a in alphas])
    offdiag = np.sqrt(np.array([float(b) for b in betas]))
    return diag, offdiag, float(moments[0])


def legendre_moments(count):
    return [Fraction(1 + (-1) ** k, k + 1) for k in range(count)]


def laguerre_moments(count, alpha=0):
    """Moments of x^alpha e^-x over its mass, exact for a rational alpha:
    mu_{k+1} = (k+1+alpha) mu_k."""
    out = [Fraction(1)]
    for k in range(count - 1):
        out.append(out[-1] * (k + 1 + Fraction(alpha)))
    return out[:count]


def jacobi_moments(count, alpha, beta):
    """Moments of (1 - x)^alpha (1 + x)^beta on [-1, 1] over its mass, exact for
    rational exponents.

    The moments of 1 + x are ratios of Beta functions,
    nu_{j+1} = 2 (beta+1+j) / (alpha+beta+2+j) nu_j, and x^k = ((1 + x) - 1)^k.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    nu = [Fraction(1)]
    for j in range(count - 1):
        nu.append(nu[-1] * 2 * (beta + 1 + j) / (alpha + beta + 2 + j))
    return [sum(math.comb(k, j) * (-1) ** (k - j) * nu[j] for j in range(k + 1))
            for k in range(count)]


def gen_hermite_moments(count, g):
    """Moments of |x|^g e^(-x^2) over its mass, exact for a rational g:
    mu_{k+2} = (k+1+g)/2 mu_k, and the odd ones vanish."""
    out, even = [], Fraction(1)
    for k in range(count):
        out.append(Fraction(0) if k % 2 else even)
        if not k % 2:
            even *= (k + 1 + Fraction(g)) / 2
    return out


def hermite_moments(count):
    return [0.0 if k % 2 else math.gamma((k + 1) / 2) for k in range(count)]


def _matmul(a, b):
    """Product of two square Fraction matrices (lists of rows), skipping zeros."""
    size = len(a)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i, row in enumerate(a):
        acc = out[i]
        for m, aim in enumerate(row):
            if aim:
                for k, bmk in enumerate(b[m]):
                    if bmk:
                        acc[k] += aim * bmk
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def markov_pencil_exact(alphas, betas, lambdas):
    """(K, G) of the Markov pencil on the monic basis m_0..m_n of a recurrence, exact.

    ``alphas`` and ``betas`` are a ``monic_recurrence`` in Fractions, and
    the sharp constant C of ||P'||_W <= C ||P||_W over degree n has
    C^2 = max c^T K c / c^T G c.  R holds the derivatives,
    m'_k = sum_i R[i][k] m_i, column by column from
    m'_{k+1} = m_k + (x - a_k) m'_k - c_k m'_{k-1} and
    x m_i = m_{i+1} + a_i m_i + c_i m_{i-1}; H = diag(prod_{j<=k} c_j) is the
    Gram matrix of the monic basis for mass 1 (the mass scales K and G
    alike), G = H + sum_j lambda_j (R^j)^T H R^j and K = R^T G R.  R is
    strictly upper triangular, so the leading blocks of K and G are the
    pencil of every lower degree.
    """
    size = len(alphas)
    lambdas = [Fraction(lam) for lam in lambdas]
    cols = [[Fraction(0)] * size for _ in range(size)]  # cols[k][i] = R[i][k]
    for k in range(size - 1):
        nxt = cols[k + 1]
        nxt[k] += 1
        for i, r in enumerate(cols[k]):
            if r:
                if i + 1 < size:
                    nxt[i + 1] += r
                nxt[i] += (alphas[i] - alphas[k]) * r
                if i:
                    nxt[i - 1] += betas[i - 1] * r
        if k:
            for i, r in enumerate(cols[k - 1]):
                nxt[i] -= betas[k - 1] * r
    r_mat = _transpose(cols)
    h = [Fraction(1)]
    for c in betas:
        h.append(h[-1] * c)
    gram = [[h[i] if i == k else Fraction(0) for k in range(size)] for i in range(size)]
    power = r_mat
    for j, lam in enumerate(lambdas):
        if j:
            power = _matmul(r_mat, power)
        weighted = [[h[i] * x for x in row] for i, row in enumerate(power)]
        term = _matmul(_transpose(power), weighted)
        gram = [[g + lam * t for g, t in zip(grow, trow)] for grow, trow in zip(gram, term)]
    k_mat = _matmul(_transpose(r_mat), _matmul(gram, r_mat))
    return k_mat, gram


def is_pd(mat):
    """Whether the symmetric Fraction matrix ``mat`` is positive definite.

    An exact LDL^T on its lower triangle, which stops at the first pivot
    <= 0.
    """
    a = [list(row[: i + 1]) for i, row in enumerate(mat)]
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / pivot
            if f:
                row = a[i]
                for j in range(k + 1, i + 1):
                    if a[j][k]:
                        row[j] -= f * a[j][k]
    return True


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


def jacobi_derivative_matrix_mp(alpha, beta, n, mp):
    """Derivative matrix D_n, entry (i, k) = <p_i, p_k'>, of the orthonormal
    Jacobi basis for (1-x)^alpha (1+x)^beta on [-1, 1], at the working
    precision of ``mp``.

    The recurrence coefficients come from their closed forms in ``mp``
    arithmetic, from the exact values of the floats alpha and beta, and the
    columns from differentiating x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1}:
    b_k D[:, k+1] = (J - a_k) D[:, k] + e_k - b_{k-1} D[:, k-1], D[:, 0] = 0.
    """
    al, be = mp.mpf(alpha), mp.mpf(beta)
    diag = [(be - al) / (al + be + 2)]
    off = []
    for k in range(1, n + 1):
        s = 2 * k + al + be
        diag.append((be * be - al * al) / (s * (s + 2)))
        if k == 1:
            beta_k = 4 * (1 + al) * (1 + be) / ((2 + al + be) ** 2 * (3 + al + be))
        else:
            beta_k = 4 * k * (k + al) * (k + be) * (k + al + be) / (s * s * (s + 1) * (s - 1))
        off.append(mp.sqrt(beta_k))
    cols = [[mp.zero] * (n + 1)]
    for k in range(n):
        col = cols[k]
        nxt = []
        for i in range(n + 1):
            v = (diag[i] - diag[k]) * col[i]
            if i > 0:
                v += off[i - 1] * col[i - 1]
            if i < n:
                v += off[i] * col[i + 1]
            if i == k:
                v += 1
            if k > 0:
                v -= off[k - 1] * cols[k - 1][i]
            nxt.append(v / off[k])
        cols.append(nxt)
    return mp.matrix([[cols[k][i] for k in range(n + 1)] for i in range(n + 1)])


def top_singular_value_mp(mat, n, mp):
    """Greatest singular value of the leading (n+1) x (n+1) block of ``mat``,
    from ``mp.eigsy`` of its Gram matrix at the working precision of ``mp``."""
    block = mat[: n + 1, : n + 1]
    return mp.sqrt(max(mp.eigsy(block.T * block, eigvals_only=True)))


def lupas_constant(n, alpha, beta):
    """Lupas' sup-norm versus weighted-L2 constant for the Jacobi weight on [-1, 1].

    For P of degree at most n,
    ||P||_inf <= sqrt(G(n+a+b+2) / (2^(a+b+1) G(q+1) G(n+q'+1)) * C(n+q+1, n))
    * ||P||_L2(w), with q = max(a,b) >= -1/2 and q' = min(a,b).  Evaluated
    through log-gamma to avoid overflow.
    """
    q, qp = max(alpha, beta), min(alpha, beta)
    assert q >= -0.5, "Lupas' inequality needs max(alpha, beta) >= -1/2"
    lg = math.lgamma
    log_sq = (
        lg(n + alpha + beta + 2)
        - (alpha + beta + 1) * math.log(2)
        - lg(q + 1)
        - lg(n + qp + 1)
        + lg(n + q + 2)
        - lg(n + 1)
        - lg(q + 2)
    )
    return math.exp(0.5 * log_sq)
