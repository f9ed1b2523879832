"""Gauss rules from recurrence tables and composite rules for generalized weights.

``gauss_rule`` is the Golub-Welsch construction: nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix, weights come from the Christoffel
function.  ``composite_rule`` handles generalized weights by splitting the
interval at every singular point (and, on unbounded intervals, truncating at
a certified radius): each finite piece gets a Gauss-Jacobi rule whose weight
absorbs the endpoint factors |x-c|^gamma exactly, while the exponential
factor and the off-piece singular factors are folded into the rule weights.
All piece rules of a composite rule are built together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EigenError, QuadratureError, WeightError
from .orthopoly import GENERALIZED_FAMILIES, RecurrenceTable, WeightSpec, _jacobi_coefficients

TAIL_TOL = 1e-14
_MAX_RADIUS_DOUBLINGS = 60
_GAMMA_TERMS = 1000
_GAMMA_EPS = 1e-16
_GAMMA_TINY = 1e-300


@dataclass(frozen=True)
class QuadRule:
    """Positive quadrature rule for integrals against one weight."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ValueError("empty rule")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must be strictly positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _gauss_rules(tables):
    """Gauss rules for a list of (diag, offdiag, mass) recurrences.

    The rule of a table has m = len(diag) points; offdiag has m-1 entries.
    Returns (nodes, weights), one rule per row, padded to the largest m;
    entries past a row's size are meaningless.  Nodes are the eigenvalues of
    the dense Jacobi matrices, one LAPACK call per distinct m; the weights of
    all rules come from one Christoffel pass.
    """
    sizes = [d.shape[0] for d, _, _ in tables]
    width = max(sizes)
    diag = np.zeros((len(tables), width))
    offdiag = np.zeros((len(tables), width - 1))
    p0 = np.empty(len(tables))
    for r, (d, o, mass) in enumerate(tables):
        diag[r, : sizes[r]] = d
        offdiag[r, : sizes[r] - 1] = o
        p0[r] = 1.0 / math.sqrt(mass)
    nodes = np.zeros_like(diag)
    for m in set(sizes):
        rows = [r for r, size in enumerate(sizes) if size == m]
        i = np.arange(m)
        jacobi = np.zeros((len(rows), m, m))
        jacobi[:, i, i] = diag[rows, :m]
        jacobi[:, i[1:], i[:-1]] = offdiag[rows, : m - 1]  # eigvalsh reads the lower triangle
        try:
            nodes[rows, :m] = np.linalg.eigvalsh(jacobi)
        except np.linalg.LinAlgError as exc:
            raise EigenError(f"Jacobi-matrix eigensolver did not converge: {exc}") from exc
    return nodes, _kernels.christoffel_weights(diag, offdiag, p0, nodes)


def gauss_rule(rec: RecurrenceTable, m: int) -> QuadRule:
    """m-point Gauss rule for the measure behind a recurrence table.

    Nodes are the eigenvalues of the m x m Jacobi matrix.  The weight at a
    node equals mass times the squared first eigenvector component, which is
    computed here through the equivalent Christoffel-function identity
    w_j = 1 / sum_k p_k(x_j)^2: LAPACK flushes first components below ~1e-17
    to zero (extreme Gauss-Laguerre nodes), while the polynomial form keeps
    them positive.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > rec.n_max + 1:
        raise ValueError(f"recurrence table too short for an {m}-point rule (n_max={rec.n_max})")
    nodes, weights = _gauss_rules([(rec.diag[:m], rec.offdiag[: m - 1], rec.mass)])
    return QuadRule(nodes=nodes[0], weights=weights[0])


def integrate(rule: QuadRule, f) -> float:
    """Sum of weights_i * f(nodes_i)."""
    try:
        vals = np.asarray(f(rule.nodes), dtype=float)
        if vals.shape != rule.nodes.shape:
            raise ValueError
    except (TypeError, ValueError):
        vals = np.array([float(f(t)) for t in rule.nodes])
    return float(np.dot(rule.weights, vals))


def _exponent_sums(spec: WeightSpec):
    total = sum(g for _, g in spec.singularities)
    absolute = sum(abs(g) for _, g in spec.singularities)
    return total, absolute


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x), for a > 0 and x >= 0.

    Below x = a + 1 through the series of P = 1 - Q, above through the
    continued fraction of Q in modified Lentz form (Numerical Recipes, 2nd
    ed., sec. 6.2).  Both converge within 1000 terms for a <= 1e4.
    """
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, _GAMMA_TERMS):
            term *= x / (a + k)
            total += term
            if term < total * _GAMMA_EPS:
                break
        return 1.0 - front * total
    b = x + 1.0 - a
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _GAMMA_TINY else _GAMMA_TINY)
        c = b + an / c
        c = c if abs(c) > _GAMMA_TINY else _GAMMA_TINY
        h *= d * c
        if abs(d * c - 1.0) < _GAMMA_EPS:
            break
    return front * h


def _truncation_radius(spec: WeightSpec, degree: int) -> float:
    """Radius beyond which the weight's degree-weighted tail is negligible.

    The estimate bounds every singular factor by powers of x (valid once
    x >= 2 max|c_j|) and reduces the tail to a regularized incomplete gamma
    function of the base family, ``_gammaincc``.  The radius is doubled until
    the relative tail drops below 1e-14.
    """
    total, absolute = _exponent_sums(spec)
    cmax = max((abs(c) for c, _ in spec.singularities), default=0.0)
    fudge = 4.0**absolute
    if spec.family == "gen_laguerre":
        radius = max(10.0, 1.0 + cmax, 2.0 * cmax)
        a = degree + total + 1.0

        def rel_tail(r):
            return fudge * _gammaincc(a, r)

    else:  # gen_hermite
        radius = max(6.0, 1.0 + cmax, 2.0 * cmax)
        a = 0.5 * (degree + total + 1.0)

        def rel_tail(r):
            return fudge * _gammaincc(a, r * r)

    for _ in range(_MAX_RADIUS_DOUBLINGS):
        if rel_tail(radius) < TAIL_TOL:
            return radius
        radius *= 2.0
    raise QuadratureError("tail mass beyond the truncation radius exceeds tolerance")


def _graded_subpieces(u: float, v: float, spec: WeightSpec) -> list[float]:
    """Split [u, v] dyadically away from nearby off-piece singular points.

    A singular factor whose branch point sits just outside a long piece makes
    Gauss rules on the whole piece converge slowly; sub-pieces whose lengths
    grow geometrically away from that end restore fast convergence.
    """
    outside_left = [u - c for c, _ in spec.singularities if c < u]
    outside_right = [c - v for c, _ in spec.singularities if c > v]
    delta_u = min(outside_left) if outside_left else math.inf
    delta_v = min(outside_right) if outside_right else math.inf
    length = v - u
    pts = {u, v}
    if length > 4 * delta_u:
        step = delta_u
        x = u + step
        while x < u + 0.6 * length:
            pts.add(x)
            step *= 2
            x += step
    if length > 4 * delta_v:
        step = delta_v
        x = v - step
        while x > v - 0.6 * length:
            pts.add(x)
            step *= 2
            x -= step
    ordered = sorted(pts)
    out = [ordered[0]]
    for p in ordered[1:]:
        if p - out[-1] > 1e-8 * length:
            out.append(p)
    out[-1] = v
    return out


def _piece_node_count(spec: WeightSpec, lo: float, hi: float, degree: int, refine: int) -> int:
    base = degree // 2 + 1 + 8
    if spec.family == "gen_laguerre":
        span = hi - lo
    elif spec.family == "gen_hermite":
        if lo < 0.0 < hi:
            span = max(lo * lo, hi * hi)
        else:
            span = abs(hi * hi - lo * lo)
    else:
        span = 0.0
    if span > 0.0:
        # resolve the exponential factor's variation across the piece
        base += math.ceil(0.25 * span) + 13
    return base * (2**refine)


def composite_rule(spec: WeightSpec, degree: int, refine: int = 0) -> QuadRule:
    """Singularity-respecting rule for a generalized weight.

    Accurate to a tolerance, not exact, for integrands polynomial of the given
    degree times the weight.  ``refine`` doubles the
    per-piece node count ``refine`` times; the Stieltjes stabilization loop
    uses this to certify convergence.
    """
    if spec.family not in GENERALIZED_FAMILIES:
        raise WeightError(f"composite_rule needs a generalized family, got {spec.family!r}")
    if degree < 0:
        raise ValueError("degree must be >= 0")

    a, b = spec.interval
    if spec.family == "gen_jacobi":
        lo, hi = a, b
    elif spec.family == "gen_laguerre":
        lo, hi = 0.0, _truncation_radius(spec, degree)
    else:
        r = _truncation_radius(spec, degree)
        lo, hi = -r, r

    exponent_at = dict(spec.singularities)
    breaks = [lo] + [c for c, _ in spec.singularities if lo < c < hi] + [hi]
    pieces = []
    for u, v in zip(breaks, breaks[1:]):
        for lo_s, hi_s in zip(sub := _graded_subpieces(u, v, spec), sub[1:]):
            g_lo = exponent_at.get(lo_s, 0.0)
            g_hi = exponent_at.get(hi_s, 0.0)
            m = _piece_node_count(spec, lo_s, hi_s, degree, refine)
            pieces.append((lo_s, hi_s, g_lo, g_hi, m))

    # Gauss-Jacobi rules on [-1, 1] for (1-t)^g_hi (1+t)^g_lo, one row per piece
    ref_nodes, ref_weights = _gauss_rules(
        [_jacobi_coefficients(g_hi, g_lo, m - 1) for _, _, g_lo, g_hi, m in pieces]
    )
    lo_s, hi_s, g_lo, g_hi, m = (np.array(col)[:, None] for col in zip(*pieces))
    half = 0.5 * (hi_s - lo_s)
    nodes = 0.5 * (lo_s + hi_s) + half * ref_nodes
    # the [-1,1] rule's mass is 2^(g_lo+g_hi+1) B(...); rescale to the piece length
    weights = ref_weights * half ** (g_lo + g_hi + 1)

    if spec.family == "gen_laguerre":
        smooth = spec.scale * np.exp(-nodes)
    elif spec.family == "gen_hermite":
        smooth = spec.scale * np.exp(-(nodes**2))
    else:
        smooth = spec.scale * np.ones_like(nodes)
    for c, g in spec.singularities:
        rows = (lo_s[:, 0] != c) & (hi_s[:, 0] != c)
        smooth[rows] = smooth[rows] * np.abs(nodes[rows] - c) ** g
    weights = weights * smooth
    # drop the padding, and any node whose weight underflowed
    keep = (np.arange(nodes.shape[1]) < m) & (weights > 0)
    nodes = nodes[keep]
    weights = weights[keep]
    order = np.argsort(nodes)
    return QuadRule(nodes[order], weights[order])
