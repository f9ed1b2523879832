"""Independent float64 reference for sharp Markov constants.

Shares no code with ``markovsharp`` and never imports it.  Weights are given
as the same JSON-style mappings the package accepts.  The pipeline is:

* a discretization of the weight: ``scipy.special`` Gauss rules for the
  classical families; for generalized weights, Gauss-Jacobi pieces split at
  every singular point, graded towards off-piece singular points, and cut
  at a radius far beyond the package's truncation radius;
* a Stieltjes loop of its own on that discretization, giving the
  orthonormal recurrence x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1};
* the derivative matrix straight from the recurrence,
  b_k c_{k+1} = (J - a_k) c_k + e_k - b_{k-1} c_{k-1},
  where column c_k holds the coefficients of p_k' (so the degree-n matrix is
  the leading block of the degree-N one);
* ``numpy.linalg.svd`` for the L2 constant and ``scipy.linalg.eigh(A, B)``
  for the Sobolev constant.

``self_check`` validates all of this against closed forms before any value
is trusted.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
from scipy import special

# Cut-off radii for the unbounded generalized families.  The package's
# certified radius is about 160 (Laguerre) and 12 (Hermite) at degree 80.
LAGUERRE_RADIUS = 640.0
HERMITE_RADIUS = 24.0
# Longest piece over which the exponential factor is integrated.
LAGUERRE_PIECE = 8.0
HERMITE_PIECE = 1.0
# Gauss nodes per piece beyond what the polynomial degree needs.
EXTRA_NODES = 40
FIT_SLACK = 0.1
_SUM_TOL = 1e-12

_DEFAULT_INTERVALS = {
    "jacobi": (-1.0, 1.0),
    "laguerre": (0.0, math.inf),
    "hermite": (-math.inf, math.inf),
    "gen_laguerre": (0.0, math.inf),
    "gen_hermite": (-math.inf, math.inf),
}


class ReferenceFault(RuntimeError):
    """The reference itself failed validation; no program output can be judged."""


def _endpoint(v) -> float:
    if isinstance(v, str):
        return {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf}[v.strip().lower()]
    return float(v)


def parse_weight(raw: dict):
    """(family, (lo, hi), alpha, beta, singularities) from a weight mapping."""
    family = raw["family"]
    if "interval" in raw:
        lo, hi = (_endpoint(v) for v in raw["interval"])
    else:
        lo, hi = _DEFAULT_INTERVALS[family]
    alpha = float(raw.get("alpha", 0.0))
    beta = float(raw.get("beta", 0.0))
    sings = sorted((float(c), float(g)) for c, g in raw.get("singularities", ()))
    if family == "gen_hermite" and alpha:
        sings = sorted(sings + [(0.0, alpha)])
        alpha = 0.0
    return family, (lo, hi), alpha, beta, tuple(sings)


@functools.lru_cache(maxsize=None)
def _legendre(m: int):
    return special.roots_legendre(m)


@functools.lru_cache(maxsize=4096)
def _jacobi(m: int, alpha: float, beta: float):
    return special.roots_jacobi(m, alpha, beta)


def _graded(u: float, v: float, points, max_len: float) -> list[tuple[float, float]]:
    """Split [u, v] until each piece is no longer than max_len nor than its
    distance to any singular point other than its own two ends."""
    out = []
    stack = [(u, v)]
    while stack:
        s, t = stack.pop()
        # No singular point lies inside a piece: every one is a break point.
        dist = min((min(abs(c - s), abs(c - t)) for c in points if c != s and c != t),
                   default=math.inf)
        if t - s <= min(max_len, dist):
            out.append((s, t))
        else:
            mid = 0.5 * (s + t)
            stack.extend(((s, mid), (mid, t)))
    return sorted(out)


def _composite(family, lo, hi, sings, degree):
    """Nodes and weights for a generalized weight, integrating polynomials of
    the given degree times the weight to full double precision."""
    if family == "gen_laguerre":
        lo, hi, max_len, smooth = 0.0, LAGUERRE_RADIUS, LAGUERRE_PIECE, lambda x: -x
    elif family == "gen_hermite":
        lo, hi, max_len, smooth = -HERMITE_RADIUS, HERMITE_RADIUS, HERMITE_PIECE, lambda x: -x * x
    else:
        max_len, smooth = hi - lo, lambda x: np.zeros_like(x)
    exponent_at = dict(sings)
    points = [c for c, _ in sings]
    breaks = sorted({lo, hi, *(c for c in points if lo < c < hi)})
    m = degree // 2 + 1 + EXTRA_NODES
    nodes, weights = [], []
    for u, v in zip(breaks, breaks[1:]):
        for s, t in _graded(u, v, points, max_len):
            g_lo, g_hi = exponent_at.get(s, 0.0), exponent_at.get(t, 0.0)
            if g_lo == 0.0 and g_hi == 0.0:
                x, w = _legendre(m)
            else:
                x, w = _jacobi(m, g_hi, g_lo)
            half = 0.5 * (t - s)
            xs = s + half * (1.0 + x)
            log_w = np.log(w) + (1.0 + g_lo + g_hi) * math.log(half) + smooth(xs)
            for c, g in sings:
                if c != s and c != t:
                    log_w = log_w + g * np.log(np.abs(xs - c))
            nodes.append(xs)
            weights.append(np.exp(log_w))
    x = np.concatenate(nodes)
    w = np.concatenate(weights)
    keep = w > 0.0
    return x[keep], w[keep]


def discretize(raw: dict, degree: int):
    """Nodes and weights integrating p * w exactly (classical) or to double
    precision (generalized) for every polynomial p of the given degree."""
    family, (lo, hi), alpha, beta, sings = parse_weight(raw)
    m = degree // 2 + 1 + 8
    if family == "jacobi":
        t, w = special.roots_jacobi(m, alpha, beta)
        half = 0.5 * (hi - lo)
        return lo + half * (1.0 + t), w * half ** (1.0 + alpha + beta)
    if family == "laguerre":
        return special.roots_genlaguerre(m, alpha)
    if family == "hermite":
        return special.roots_hermite(m)
    return _composite(family, lo, hi, sings, degree)


def stieltjes(nodes, weights, n: int):
    """Orthonormal recurrence (a_0..a_n, b_0..b_{n-1}) of a discrete measure."""
    a = np.zeros(n + 1)
    b = np.zeros(n)
    mass = weights.sum()
    q_prev = np.zeros_like(nodes)
    q = np.full_like(nodes, 1.0 / math.sqrt(mass))
    a[0] = np.dot(weights * nodes, q * q)
    for k in range(n):
        r = (nodes - a[k]) * q - (b[k - 1] * q_prev if k else 0.0)
        b[k] = math.sqrt(np.dot(weights, r * r))
        q_prev, q = q, r / b[k]
        a[k + 1] = np.dot(weights * nodes, q * q)
    return a, b


def recurrence(raw: dict, n: int):
    """Recurrence coefficients through degree n for the weight."""
    nodes, weights = discretize(raw, 2 * n + 1)
    return stieltjes(nodes, weights, n)


def derivative_matrix(a, b):
    """Square matrix C with p_k' = sum_i C[i, k] p_i, from the recurrence."""
    size = a.shape[0]
    c = np.zeros((size, size))
    for k in range(size - 1):
        ck = c[:, k]
        # J c_k: (J c)_i = b_{i-1} c_{i-1} + a_i c_i + b_i c_{i+1}
        col = a * ck
        col[1:] += b[: size - 1] * ck[:-1]
        col[:-1] += b[: size - 1] * ck[1:]
        col -= a[k] * ck
        col[k] += 1.0
        if k:
            col -= b[k - 1] * c[:, k - 1]
        c[:, k + 1] = col / b[k]
    return c


class Basis:
    """Recurrence and derivative matrix of one weight, good through degree n_max."""

    def __init__(self, raw: dict, n_max: int):
        self.a, self.b = recurrence(raw, n_max)
        self.c = derivative_matrix(self.a, self.b)

    def l2(self, n: int) -> float:
        return float(np.linalg.svd(self.c[:n, : n + 1], compute_uv=False)[0])

    def sobolev(self, lambdas, n: int) -> float:
        d = self.c[: n + 1, : n + 1]
        powers = [np.eye(n + 1)]
        for _ in range(len(lambdas) + 1):
            powers.append(d @ powers[-1])
        gram = [p.T @ p for p in powers]
        a = gram[1] + sum(lam * gram[j + 2] for j, lam in enumerate(lambdas))
        b = gram[0] + sum(lam * gram[j + 1] for j, lam in enumerate(lambdas))
        theta = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[n, n])[0]
        return math.sqrt(max(theta, 0.0))

    def mirsky(self, n: int) -> float:
        d = self.c[:n, : n + 1]
        return math.sqrt(float(np.dot(np.arange(n + 1), np.sum(d * d, axis=0))))


# ---------------------------------------------------------------------------
# growth-exponent verdicts, from the theorem statements
# ---------------------------------------------------------------------------

def _pair_max(gammas) -> float:
    padded = [0.0, *gammas, 0.0]
    return max(g1 + g2 + abs(g1 - g2) + 2.0 for g1, g2 in zip(padded, padded[1:]))


def predicted_exponent(case_id: str, raw: dict) -> float:
    _, _, _, _, sings = parse_weight(raw)
    fixed = {"laguerre_1": 1.0, "gen_hermite_2": 0.5, "schmidt": 0.5, "jacobi_3": 2.0,
             "gen_jacobi_4": 2.0, "gen_laguerre_51": 2.0, "mirsky": 1.5}
    if case_id in fixed:
        return fixed[case_id]
    if case_id == "gen_laguerre_52":
        gammas = [g for c, g in sings if c >= 0]
        return max(2.0, (_pair_max(gammas) + 2.0) / 2.0)
    if case_id == "gen_hermite_6":
        return max(2.0, (_pair_max([g for _, g in sings]) + 1.0) / 2.0)
    raise KeyError(case_id)


def default_case(raw: dict) -> str:
    family, _, _, _, sings = parse_weight(raw)
    if family == "gen_hermite":
        return "gen_hermite_2" if all(c == 0.0 for c, _ in sings) else "gen_hermite_6"
    if family == "gen_laguerre":
        inner = sum(g for _, g in sings[:-1])
        return "gen_laguerre_51" if abs(inner) <= _SUM_TOL else "gen_laguerre_52"
    return {"hermite": "schmidt", "laguerre": "laguerre_1", "jacobi": "jacobi_3",
            "gen_jacobi": "gen_jacobi_4"}[family]


def envelope(case_id: str, raw: dict, n: int) -> float:
    if case_id in ("gen_hermite_2", "schmidt"):
        return math.sqrt(2.0 * n)
    if case_id == "mirsky":
        return math.sqrt(n * (n + 1) * (2 * n + 1) / 3.0)
    return float(n) ** predicted_exponent(case_id, raw)


def fitted_exponent(ns, values) -> float:
    pairs = sorted(zip(ns, values))[len(ns) // 2:]
    slope, _ = np.polyfit(np.log([p[0] for p in pairs]), np.log([p[1] for p in pairs]), 1)
    return float(slope)


def verdict(case_id: str, raw: dict, ns, values) -> bool:
    """Pass/fail of a growth check recomputed from reference constants."""
    ok = fitted_exponent(ns, values) <= predicted_exponent(case_id, raw) + FIT_SLACK
    if case_id == "gen_hermite_2":
        ok = ok and all(v <= math.sqrt(2.0 * n) * (1 + 1e-9) for n, v in zip(ns, values))
    if case_id == "schmidt":
        ok = ok and all(abs(v - math.sqrt(2.0 * n)) <= 1e-10 * math.sqrt(2.0 * n)
                        for n, v in zip(ns, values))
    return ok


# ---------------------------------------------------------------------------
# validation against closed forms
# ---------------------------------------------------------------------------

def _rel(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)) / np.maximum(np.abs(y), 1.0)))


def self_check(n_max: int = 42, tol: float = 1e-12) -> list[str]:
    """Validate the reference against closed forms; raise ReferenceFault if any
    check misses.  Returns one line per check."""
    lines = []

    def check(name, err):
        lines.append(f"{name}: max rel error {err:.2e} (tol {tol:.0e})")
        if not err <= tol:
            raise ReferenceFault(lines[-1])

    hermite = Basis({"family": "hermite"}, n_max)
    ns = range(1, n_max + 1)
    check("hermite sharp = sqrt(2n)",
          _rel([hermite.l2(n) for n in ns], [math.sqrt(2 * n) for n in ns]))
    check("hermite mirsky = sqrt(n(n+1)(2n+1)/3)",
          _rel([hermite.mirsky(n) for n in ns],
               [math.sqrt(n * (n + 1) * (2 * n + 1) / 3) for n in ns]))

    # In the basis L_k = (-1)^k p_k, L_k' = -(L_0 + ... + L_{k-1}).
    lag = Basis({"family": "laguerre", "alpha": 0.0}, n_max)
    sign = (-1.0) ** np.arange(n_max + 1)
    expected = -np.triu(np.ones((n_max + 1, n_max + 1)), k=1)
    check("laguerre alpha=0 derivative matrix = -1 above the diagonal",
          _rel(sign[:, None] * lag.c * sign[None, :], expected))

    k = np.arange(n_max + 1.0)
    alpha = 0.5
    a, b = recurrence(
        {"family": "gen_laguerre", "singularities": [[0.0, alpha], [1.5, 0.0]]}, n_max)
    check("split gen_laguerre recurrence = closed-form laguerre alpha=0.5",
          max(_rel(a, 2 * k + alpha + 1), _rel(b, np.sqrt((k[1:]) * (k[1:] + alpha)))))

    g = 1.0
    a, b = recurrence(
        {"family": "gen_hermite", "singularities": [[-0.7, 0.0], [0.0, g]]}, n_max)
    closed = np.sqrt(k[1:] / 2 + np.where(k[1:] % 2 == 1, g / 2, 0.0))
    check("split gen_hermite recurrence = closed-form generalized hermite",
          max(_rel(a, np.zeros_like(a)), _rel(b, closed)))

    a, b = recurrence({"family": "gen_jacobi", "interval": [-1, 1],
                       "singularities": [[-1.0, 0.5], [0.2, 0.0], [1.0, 1.5]]}, n_max)
    a_ref, b_ref = recurrence({"family": "jacobi", "interval": [-1, 1],
                               "alpha": 1.5, "beta": 0.5}, n_max)
    check("split gen_jacobi recurrence = gauss-jacobi recurrence",
          max(_rel(a, a_ref), _rel(b, b_ref)))
    return lines
