"""Gauss rules from recurrence tables and composite rules for generalized weights.

``gauss_rule`` is the Golub-Welsch construction: nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix, weights come from the Christoffel
function.  ``composite_rules`` handles generalized weights by splitting the
interval at every singular point: each finite piece gets a Gauss-Jacobi rule
whose weight absorbs the endpoint factors |x-c|^gamma exactly, while the
exponential factor and the off-piece singular factors are folded into the
rule weights.  On unbounded intervals the finite part ends TAIL_GAP beyond
the outermost singular point, and each tail beyond it gets a Gauss-Laguerre
rule that takes the exponential factor exactly, so nothing is truncated.
The piece rules are affine images of reference rules on [-1, 1]; those and
the tail's reference rules on [0, inf) are built in one batch per
``composite_rules`` call, for all the refinement levels it is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EigenError, QuadratureError, WeightError
from .orthopoly import GENERALIZED_FAMILIES, RecurrenceTable, WeightSpec, _jacobi_coefficients

TAIL_GAP = 4.0  # the tails start this far beyond the outermost singular point
MAX_PIECE_NODES = 2000  # a dense Jacobi matrix of this size takes 32 MB


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
    all rules come from one Christoffel pass.  Raises QuadratureError when a
    weight is not positive and finite: the mass or its reciprocal is not
    finite, that pass overflows at the outer nodes of large Laguerre and
    Hermite rules, or the nodes or recurrence are not finite.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = _kernels.christoffel_weights(diag, offdiag, p0, nodes)
    padding = np.arange(width) >= np.array(sizes)[:, None]
    ok = np.all(((weights > 0) & np.isfinite(weights)) | padding, axis=1)
    if not ok.all():
        r = int(np.argmin(ok))
        m = sizes[r]
        mass = tables[r][2]
        if not (math.isfinite(mass) and math.isfinite(1.0 / mass)):
            # p_0^2 = 1/mass: a subnormal mass leaves p_0 finite but its square not
            raise QuadratureError(
                f"{m}-point Gauss rule: the weight's mass {mass!r} or its reciprocal is not "
                "finite, so its weights cannot be represented"
            )
        inputs = (nodes[r, :m], diag[r, :m], offdiag[r, : m - 1], p0[r])
        if all(np.isfinite(v).all() for v in inputs):
            # from finite nodes and recurrence, only an overflow leaves the sum non-finite
            raise QuadratureError(
                f"{m}-point Gauss rule: the Christoffel sum sum_k p_k(x)^2 overflows at an "
                "outer node, so its weight cannot be represented"
            )
        raise QuadratureError(
            f"{m}-point Gauss rule: its nodes or recurrence are not finite, so it has no "
            "positive weights"
        )
    return nodes, weights


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


def _piece_node_count(spec: WeightSpec, lo: float, hi: float, degree: int) -> int:
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
    return base


def _reference_rules(keys) -> dict:
    """Reference Gauss rules of m points, one per distinct key: (g_hi, g_lo, m)
    for (1-t)^g_hi (1+t)^g_lo on [-1, 1], ("laguerre", m) for e^-s on [0, inf).

    All are built together in one ``_gauss_rules`` call.  A rule does not
    depend on which other rules are built with it, so neither do results
    depend on what else a batch holds.  Returns a dict from each key to its
    (nodes, weights) pair.
    """
    keys = list(dict.fromkeys(keys))
    nodes, weights = _gauss_rules([
        (2.0 * np.arange(key[1]) + 1.0, np.arange(1.0, key[1]), 1.0)
        if key[0] == "laguerre" else _jacobi_coefficients(key[0], key[1], key[2] - 1)
        for key in keys
    ])
    return {key: (nodes[row, : key[-1]], weights[row, : key[-1]]) for row, key in enumerate(keys)}


def _tail_rule(spec: WeightSpec, start: float, s, w):
    """Nodes and weights beyond ``start`` from a Gauss-Laguerre rule (s, w) for e^-s.

    The nodes are start + s (gen_laguerre) or +-sqrt(start^2 + s) (gen_hermite),
    and the weights, formed in log space, carry the exponential factor at
    ``start`` and the singular factors.  Weights beyond the floating-point
    range raise an OverflowError that names the family and its absolute
    exponent sum; weights below it come out as zeros.
    """
    if spec.family == "gen_laguerre":
        x, log_w = start + s, np.log(w) - start
    else:
        root = np.sqrt(start * start + s)
        x = np.concatenate([-root, root])
        log_w = np.tile(np.log(w) - np.log(2.0 * root) - start * start, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = log_w + math.log(spec.scale)
        for c, g in spec.singularities:
            log_w = log_w + g * np.log(np.abs(x - c))
        weights = np.exp(log_w)
    if not np.isfinite(weights).all():
        absolute = sum(abs(g) for _, g in spec.singularities)
        raise OverflowError(
            f"the tail of the {spec.family} weight with absolute exponent sum "
            f"{absolute!r} is out of floating-point range"
        )
    return x, weights


def composite_rules(spec: WeightSpec, degree: int, levels) -> list[QuadRule]:
    """Singularity-respecting rules for a generalized weight, one per level in ``levels``.

    Accurate to a tolerance, not exact, for integrands polynomial of the given
    degree times the weight.  The level-0 pieces split the interval, or on
    unbounded intervals [0, T] or [-T, T] with T = TAIL_GAP + max|c_j|, at the
    singular points, graded dyadically near them; each gets an m-point
    Gauss-Jacobi rule with 2m-1 >= degree+16.  Each tail beyond T gets a
    Gauss-Laguerre rule (``_tail_rule``) of degree//2 + 9 points, half as many
    again at each level.  Level L splits every level-0 piece into 2^L equal
    parts of m points each: the first part keeps the piece's lower-end
    exponent, the last its upper-end exponent, and the interior ends get
    exponent 0.  The Stieltjes stabilization loop uses the levels to certify
    convergence, of the pieces and the tails alike.  The reference rules of
    all the listed levels are built in one ``_reference_rules`` batch; since a
    rule does not depend on its batch, each level's rule is the one it gets
    when built alone.  No reference rule outlives the call.
    """
    if spec.family not in GENERALIZED_FAMILIES:
        raise WeightError(f"composite_rules needs a generalized family, got {spec.family!r}")
    if degree < 0:
        raise ValueError("degree must be >= 0")

    tails = {}
    if spec.family == "gen_jacobi":
        lo, hi = spec.interval
    else:
        hi = TAIL_GAP + max((abs(c) for c, _ in spec.singularities), default=0.0)
        lo = 0.0 if spec.family == "gen_laguerre" else -hi
        # a weight out of range where the tails start fails before any rule is built
        _tail_rule(spec, hi, np.zeros(1), np.ones(1))
        base = degree // 2 + 9
        tails = {level: ("laguerre", base + level * ((base + 1) // 2)) for level in levels}

    exponent_at = dict(spec.singularities)
    breaks = [lo] + [c for c, _ in spec.singularities if lo < c < hi] + [hi]
    coarse = []
    for u, v in zip(breaks, breaks[1:]):
        for lo_p, hi_p in zip(sub := _graded_subpieces(u, v, spec), sub[1:]):
            m = _piece_node_count(spec, lo_p, hi_p, degree)
            if m > MAX_PIECE_NODES:
                raise QuadratureError(
                    f"the piece [{lo_p!r}, {hi_p!r}] needs a {m}-point Gauss rule, more "
                    f"than the {MAX_PIECE_NODES} points a piece may have"
                )
            coarse.append((lo_p, hi_p, exponent_at.get(lo_p, 0.0), exponent_at.get(hi_p, 0.0), m))
    layouts = []
    for parts in (2**level for level in levels):
        pieces = []
        for lo_p, hi_p, g_lo, g_hi, m in coarse:
            ends = [lo_p + (hi_p - lo_p) * j / parts for j in range(parts)] + [hi_p]
            pieces += [(ends[j], ends[j + 1], g_lo if j == 0 else 0.0,
                        g_hi if j == parts - 1 else 0.0, m) for j in range(parts)]
        layouts.append(pieces)
    found = _reference_rules(list(tails.values()) + [
        (g_hi, g_lo, m) for pieces in layouts for _, _, g_lo, g_hi, m in pieces
    ])

    rules = []
    for level, pieces in zip(levels, layouts):
        # the [-1, 1] rules, padded into one row per piece
        width = max(m for *_, m in pieces)
        ref_nodes = np.zeros((len(pieces), width))
        ref_weights = np.zeros((len(pieces), width))
        for row, (_, _, g_lo, g_hi, m) in enumerate(pieces):
            ref_nodes[row, :m], ref_weights[row, :m] = found[g_hi, g_lo, m]
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
        # drop the padding, add the tails, and drop any node whose weight underflowed
        padding = np.arange(nodes.shape[1]) >= m
        nodes, weights = nodes[~padding], (weights * smooth)[~padding]
        if tails:
            x, w = _tail_rule(spec, hi, *found[tails[level]])
            nodes, weights = np.concatenate([nodes, x]), np.concatenate([weights, w])
        keep = weights > 0
        order = np.argsort(nodes[keep])
        rules.append(QuadRule(nodes[keep][order], weights[keep][order]))
    return rules
