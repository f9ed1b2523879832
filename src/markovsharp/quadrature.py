"""Gauss rules, composite rules, and the Stieltjes recurrences they certify.

``gauss_rule`` is the Golub-Welsch construction: nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix, weights come from the Christoffel
function.  One builder (``_gauss_rules``) makes every rule, for a stack of
recurrences at once: it reads the weights from ``_kernels.deriv_tables`` at
order 0 on the nodes of the stack.  ``composite_rules`` handles
generalized weights by splitting the interval at every singular point: each
finite piece gets a Gauss-Jacobi rule whose weight absorbs the endpoint
factors |x-c|^gamma exactly, while the exponential factor and the off-piece
singular factors are folded into the rule weights.  On unbounded intervals
the finite part ends TAIL_GAP beyond the outermost singular point, and each
tail beyond it gets a Gauss-Laguerre rule that takes the exponential factor
exactly, so nothing is truncated.
The piece rules are affine images of reference Gauss-Jacobi rules on
[-1, 1]; those and the tails' reference Gauss-Laguerre rules on [0, inf) are
built in one batch per ``composite_rules`` call, for all the refinement
levels it is asked for.  The only reference rules that outlive a call are
the Gauss-Legendre (interior and split pieces) and Gauss-Laguerre (tails)
ones, which depend on their node count alone: the process keeps up to
REFERENCE_RULES_KEPT of them, read-only, and a call's batch holds only the
rules it does not find there.  A rule does not depend on its batch, so the
store changes what a call costs, never what it returns.
``stabilized_stieltjes`` gives a generalized weight with no closed form its
recurrence: the discretized Stieltjes procedure on the composite rules,
refined level by level until two levels agree.  It returns the recurrence
alone, and no composite rule outlives it.  A basis checks its constants
without a rule, by Parseval on its derivative matrix, and
``markov.basis_for`` builds the Gauss rule of its recurrence only when
called.  This module imports only ``errors``, ``_kernels`` and
``orthopoly``.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple

import numpy as np

from . import _kernels
from .errors import EigenError, QuadratureError, WeightError
from .orthopoly import GENERALIZED_FAMILIES, RecurrenceTable, WeightSpec
from .orthopoly import _jacobi_coefficients, _laguerre_coefficients

TAIL_GAP = 4.0  # the tails start this far beyond the outermost singular point
MAX_PIECE_NODES = 2000  # a dense Jacobi matrix of this size takes 32 MB
STABILIZE_TOL = 1e-12
MAX_REFINE = 6
# Gauss-Legendre and Gauss-Laguerre reference rules kept per process: at most
# 8 MB at MAX_PIECE_NODES, and more than the distinct sizes of n <= 40 requests
REFERENCE_RULES_KEPT = 256

# ("laguerre", m) or (0.0, 0.0, m) -> read-only (nodes, weights) of that reference rule
_REFERENCE = {}
_REFERENCE_LOCK = threading.Lock()


class QuadRule(namedtuple("QuadRule", "nodes weights")):
    """Positive quadrature rule for integrals against one weight.

    Nodes strictly increasing and weights positive, as read-only float
    arrays, checked on every construction, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
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
        return super().__new__(cls, nodes, weights)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _jacobi_nodes(diag, offdiag):
    """Eigenvalues of the Jacobi matrices of a stack of m-point recurrences, shape (rows, m).

    Row r holds diag[r] (m entries) and offdiag[r] (m - 1 entries); the
    dense matrices go to one LAPACK call, whose failure raises EigenError.
    """
    rows, m = diag.shape
    i = np.arange(m)
    jacobi = np.zeros((rows, m, m))
    jacobi[:, i, i] = diag
    jacobi[:, i[1:], i[:-1]] = offdiag  # eigvalsh reads the lower triangle
    try:
        return np.linalg.eigvalsh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"Jacobi-matrix eigensolver did not converge: {exc}") from exc


def _check_weights(nodes, weights, diag, offdiag, sizes):
    """Raise QuadratureError for the first rule of a stack whose weights are not usable.

    Row r holds a rule of sizes[r] points, padded past it.  Every weight of
    a rule must be positive and finite.  From finite nodes and recurrence
    only an overflow of the Christoffel sum at the outer nodes (large
    Laguerre and Hermite rules) can spoil one, and the message says so;
    otherwise it names the nodes or recurrence that are not finite.
    """
    padding = np.arange(nodes.shape[1]) >= np.array(sizes)[:, None]
    ok = np.all(((weights > 0) & np.isfinite(weights)) | padding, axis=1)
    if ok.all():
        return
    r = int(np.argmin(ok))
    m = sizes[r]
    inputs = (nodes[r, :m], diag[r, :m], offdiag[r, : m - 1])
    cause = (
        "the Christoffel sum sum_k p_k(x)^2 overflows at an outer node, so its weight "
        "cannot be represented" if all(np.isfinite(v).all() for v in inputs)
        else "its nodes or recurrence are not finite, so it has no positive weights"
    )
    raise QuadratureError(f"{m}-point Gauss rule: {cause}")


def _gauss_rules(tables):
    """Gauss rules of a list of (diag, offdiag, mass) recurrences, one rule per row.

    The rule of a table has m = len(diag) points; offdiag has m-1 entries.
    Returns (nodes, weights), padded with zeros to the largest m.  Nodes
    come from one ``_jacobi_nodes`` call per stretch of equal m.  The
    weights 1 / sum_k p_k(x_j)^2 come from ``_kernels.deriv_tables`` at
    order 0, run on consecutive rules zero-padded to the largest of them,
    squared in place and summed in order from k = 0; a new run starts where
    padding the run to the next rule's m would make its table more than
    twice its rules' own.  Listed in increasing m, as ``composite_rules``
    lists them (any order gives the same rules), a batch of close sizes is
    one pass, and one of far sizes needs no more memory than the eigensolve
    of its largest rules.  Raises QuadratureError before any solve when a
    mass or its reciprocal is not finite, and through ``_check_weights``
    when a weight is not positive and finite.
    """
    sizes = [d.shape[0] for d, _, _ in tables]
    width = max(sizes)
    diag = np.zeros((len(tables), width))
    offdiag = np.zeros((len(tables), width - 1))
    p0 = np.array([_kernels._p0(mass) for _, _, mass in tables])
    for r, (d, o, _) in enumerate(tables):
        diag[r, : sizes[r]], offdiag[r, : sizes[r] - 1] = d, o
    nodes, weights = np.zeros_like(diag), np.zeros_like(diag)
    # stretches of equal size go to one eigensolve, runs of close sizes to one kernel pass
    stretches = [r for r in range(len(sizes)) if r == 0 or sizes[r] != sizes[r - 1]]
    runs, own = [0], 0
    for r, m in enumerate(sizes[1:], 1):
        own += sizes[r - 1] ** 2
        if (r - runs[-1] + 1) * m * m > 2 * (own + m * m):
            runs.append(r)
            own = 0
    for lo, hi in zip(stretches, stretches[1:] + [len(sizes)]):
        m = sizes[lo]
        nodes[lo:hi, :m] = _jacobi_nodes(diag[lo:hi, :m], offdiag[lo:hi, : m - 1])
    for lo, hi in zip(runs, runs[1:] + [len(sizes)]):
        m = max(sizes[lo:hi])
        a, b = diag[lo:hi, :m], offdiag[lo:hi, : m - 1]
        # an overflow at an outer node spoils its weight, which _check_weights names
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = _kernels.deriv_tables(a, b, p0[lo:hi], nodes[lo:hi, :m], 0)[0]
            weights[lo:hi, :m] = 1.0 / np.sum(np.square(values, out=values), axis=0)
    weights[np.arange(width) >= np.array(sizes)[:, None]] = 0.0
    _check_weights(nodes, weights, diag, offdiag, sizes)
    return nodes, weights


def gauss_rule(rec: RecurrenceTable, m: int) -> QuadRule:
    """m-point Gauss rule for the measure behind a recurrence table.

    Nodes are the eigenvalues of the m x m Jacobi matrix.  The weight at a
    node equals mass times the squared first eigenvector component, which is
    computed here through the equivalent Christoffel-function identity
    w_j = 1 / sum_k p_k(x_j)^2: LAPACK flushes first components below ~1e-17
    to zero (extreme Gauss-Laguerre nodes), while the polynomial form keeps
    them positive.  This is ``_gauss_rules`` of a one-row stack.
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


def _reference_rules(keys):
    """Reference rules of the distinct ``keys``, in order: (nodes, weights), zero-padded.

    The keys are ``composite_rules``'s, listed in increasing node count.  Those
    not in ``_REFERENCE`` go to one ``_gauss_rules`` batch, in the same
    order; its Gauss-Legendre and Gauss-Laguerre rows, which no weight
    changes, go into the store as read-only copies, and the oldest entries
    leave it past REFERENCE_RULES_KEPT.  A rule does not depend on its
    batch, so a row reads the same from the store as from the batch.
    """
    with _REFERENCE_LOCK:
        rules = {key: _REFERENCE[key] for key in keys if key in _REFERENCE}
    missing = [key for key in keys if key not in rules]
    if missing:
        nodes, weights = _gauss_rules([
            _laguerre_coefficients(0.0, key[1] - 1) if key[0] == "laguerre"
            else _jacobi_coefficients(key[0], key[1], key[2] - 1) for key in missing
        ])
        for r, key in enumerate(missing):
            rules[key] = (nodes[r, : key[-1]].copy(), weights[r, : key[-1]].copy())
            for a in rules[key]:
                a.setflags(write=False)
        with _REFERENCE_LOCK:
            _REFERENCE.update((key, rules[key]) for key in missing
                              if key[0] == "laguerre" or key[:2] == (0.0, 0.0))
            for key in list(_REFERENCE)[: max(0, len(_REFERENCE) - REFERENCE_RULES_KEPT)]:
                del _REFERENCE[key]
    ref_nodes = np.zeros((len(keys), max(key[-1] for key in keys)))
    ref_weights = np.zeros_like(ref_nodes)
    for row, key in enumerate(keys):
        ref_nodes[row, : key[-1]], ref_weights[row, : key[-1]] = rules[key]
    return ref_nodes, ref_weights


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
    convergence, of the pieces and the tails alike.  The reference rules are
    the classical Gauss-Jacobi rules for (1-t)^g_hi (1+t)^g_lo on [-1, 1],
    one per key (g_hi, g_lo, m), and the Gauss-Laguerre rules for e^-s on
    [0, inf), one per key ("laguerre", m).  Those of all the listed levels
    come from ``_reference_rules``: one ``_gauss_rules`` batch of the keys
    the process does not keep, and the kept Gauss-Legendre (0.0, 0.0, m) and
    Gauss-Laguerre rules.  Since a rule does not depend on its batch, each
    level's rule is the one it gets when built alone, from any store.  The
    rules whose exponents come from the weight die with the call.
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
    # one row per distinct key, in increasing node count, so the batch pads only close sizes
    row_of = {key: row for row, key in enumerate(sorted(dict.fromkeys(list(tails.values()) + [
        (g_hi, g_lo, m) for pieces in layouts for _, _, g_lo, g_hi, m in pieces
    ]), key=lambda key: key[-1]))}
    ref_nodes, ref_weights = _reference_rules(row_of)

    rules = []
    for level, pieces in zip(levels, layouts):
        # each piece's [-1, 1] rule is its row of the batch, zero-padded to this level's widest
        rows = [row_of[g_hi, g_lo, m] for _, _, g_lo, g_hi, m in pieces]
        width = max(m for *_, m in pieces)
        lo_s, hi_s, g_lo, g_hi, m = (np.array(col)[:, None] for col in zip(*pieces))
        half = 0.5 * (hi_s - lo_s)
        nodes = 0.5 * (lo_s + hi_s) + half * ref_nodes[rows, :width]
        if spec.family == "gen_jacobi":
            smooth = np.full_like(nodes, spec.scale)
        else:  # the exponential factor e^-x or e^(-x^2)
            smooth = spec.scale * np.exp(-(nodes if spec.family == "gen_laguerre" else nodes**2))
        # a scale or exponent near the float range overflows here (and inf * 0 is
        # NaN); the Stieltjes mass check names the result
        with np.errstate(over="ignore", invalid="ignore"):
            # the [-1,1] rule's mass is 2^(g_lo+g_hi+1) B(...); rescale to the piece length
            weights = ref_weights[rows, :width] * half ** (g_lo + g_hi + 1)
            for c, g in spec.singularities:
                off = (lo_s[:, 0] != c) & (hi_s[:, 0] != c)
                smooth[off] = smooth[off] * np.abs(nodes[off] - c) ** g
            # drop the padding, add the tails, and drop any node whose weight underflowed
            padding = np.arange(nodes.shape[1]) >= m
            nodes, weights = nodes[~padding], (weights * smooth)[~padding]
        if tails:
            row, size = row_of[tails[level]], tails[level][1]
            x, w = _tail_rule(spec, hi, ref_nodes[row, :size], ref_weights[row, :size])
            nodes, weights = np.concatenate([nodes, x]), np.concatenate([weights, w])
        if not weights.any():
            raise QuadratureError(
                f"every weight of the {weights.shape[0]}-point composite rule underflowed to 0"
            )
        keep = weights > 0
        order = np.argsort(nodes[keep])
        rules.append(QuadRule(nodes[keep][order], weights[keep][order]))
    return rules


def _recurrence_change(old: RecurrenceTable, new: RecurrenceTable, hint: float = 0.0) -> float:
    # componentwise relative change; entries far below the natural scale of
    # the recurrence (roundoff-level diag entries of symmetric weights, say)
    # are measured against that scale instead.  The Stieltjes sums round off
    # proportionally to the node magnitudes, hence the hint.
    scale = float(np.max(np.abs(new.diag)))
    if new.n_max > 0:
        scale = max(scale, float(np.max(new.offdiag)))
    floor = max(scale, hint, 1e-300)
    d = np.max(np.abs(new.diag - old.diag) / np.maximum(np.abs(new.diag), floor))
    if new.n_max > 0:
        d = max(d, np.max(np.abs(new.offdiag - old.offdiag) / np.maximum(new.offdiag, floor)))
    return float(d)


def stabilized_stieltjes(spec: WeightSpec, n: int):
    """Stieltjes recurrence certified by rule refinement.

    Builds composite rules for integrals of polynomial degree 2n+1 at
    refinement levels 0, 1, 2, ...: level L splits every piece of level 0
    into 2^L equal parts with the same node count, so each level doubles the
    nodes.  Every stabilization compares levels 0 and 1, so one
    ``composite_rules`` call builds both from one batch of reference rules;
    each later level is built alone.  The Gauss-Legendre and Gauss-Laguerre
    reference rules of every level may come from the process's store, so a
    ladder can cost less after others, and returns the same table.  Each
    level runs ``_kernels.stieltjes`` on its rule's arrays; a rule of n or
    fewer nodes raises QuadratureError first, since the kernel would return
    a last b_k of roundoff size rather than fail.  Accepts once two
    consecutive levels give coefficients within 1e-12 relative of each other
    (at most 6 refinements, else an error).
    Returns the accepted table; no composite rule outlives the ladder.
    """
    prev, degree, weight_id = None, 2 * n + 1, spec.weight_id
    first = composite_rules(spec, degree, (0, 1))
    for level in range(MAX_REFINE + 1):
        rule = first[level] if level < 2 else composite_rules(spec, degree, (level,))[0]
        size = rule.nodes.shape[0]
        if size < n + 1:
            raise QuadratureError(
                f"rule too short: {size} nodes cannot support degree {n} (need at least {n + 1})"
            )
        cur = RecurrenceTable(n, *_kernels.stieltjes(rule.nodes, rule.weights, n), weight_id)
        hint = float(np.max(np.abs(rule.nodes)))
        if prev is not None and _recurrence_change(prev, cur, hint) <= STABILIZE_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        f"recurrence coefficients did not stabilize after {MAX_REFINE} rule refinements"
    )
