"""Gauss rules, composite rules, and the Stieltjes recurrences they certify.

``gauss_rule`` is the Golub-Welsch construction: nodes are the eigenvalues of
the symmetric tridiagonal Jacobi matrix, weights come from the Christoffel
function.  One builder (``_gauss_rules``) makes every rule, for a stack of
recurrences at once: it reads the weights from ``orthopoly.deriv_tables`` at
order 0 on the nodes of the stack.  It pads the stack with zeros for its
eigensolves and kernel passes, and the padding stays inside it: every rule
leaves it as its own nodes and weights, exactly its points.
``composite_rules`` handles generalized weights by splitting the interval at
every singular point: each finite piece gets a Gauss-Jacobi rule whose
weight absorbs the endpoint factors |x-c|^gamma exactly, while the
exponential factor and the off-piece singular factors are folded into the
rule weights.  On unbounded intervals the finite part ends TAIL_GAP beyond
the outermost singular point, and each tail beyond it gets a Gauss-Laguerre
rule that takes the exponential factor exactly, so nothing is truncated.
The piece rules are affine images of reference Gauss-Jacobi rules on
[-1, 1]; those and the tails' reference Gauss-Laguerre rules on [0, inf) are
built in one batch per ``composite_rules`` call, for all the refinement
levels it is asked for; a level's pieces read their rules end to end.  The
only reference rules that outlive a call are the Gauss-Legendre (interior
and split pieces) and Gauss-Laguerre (tails) ones, which depend on their
node count alone.  This module holds the one store of what the process
keeps (``_store_get``, ``_store_put``): those reference rules and
``markov``'s kept bases, each a pure function of its key, under one lock,
in one least recently used order, within KEPT_BYTES of arrays in all.
Every array kept there is read-only: a rule's nodes and weights, a basis's
recurrence and D_N.  A call's batch holds only the reference rules it does
not find there.  A rule does not depend on its batch, so the store changes
what a call costs, never what it returns.
``_recurrence`` holds the one decision of how a weight's recurrence is
built: a weight that ``orthopoly.closed_form`` restates takes its closed
form, with its mass checked, and any other goes through
``stabilized_stieltjes``: the discretized Stieltjes procedure on the
composite rules, refined level by level until two levels agree.  Each level
runs ``stieltjes`` on its rule's arrays, a loop over the degree that raises
``QuadratureError`` naming the degree, or through ``_p0`` the mass, that
fails.  It returns the recurrence alone, and no composite rule outlives
it.  A basis checks its constants without a rule, by Parseval on its
derivative matrix, and ``markov.basis_for`` builds the Gauss rule of its
recurrence only when called.  This module imports only ``errors`` and
``orthopoly``, whose closed forms, point tables (``deriv_tables``) and mass
check (``_p0``) it reads.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple

import numpy as np

from .errors import EigenError, QuadratureError, WeightError
from .orthopoly import GENERALIZED_FAMILIES, RecurrenceTable, WeightSpec, closed_form
from .orthopoly import _degree, _frozen, _jacobi_coefficients, _laguerre_coefficients, _p0, _Record
from .orthopoly import deriv_tables, recurrence_classical

TAIL_GAP = 4.0  # the tails start this far beyond the outermost singular point
MAX_PIECE_NODES = 2000  # a dense Jacobi matrix of this size takes 32 MB
STABILIZE_TOL = 1e-12
MAX_REFINE = 6
# Bytes of arrays the process keeps: about 300 bases at n = 40, or 3 at n = 400,
# beside the reference rules that requests of n <= 40 read
KEPT_BYTES = 4 * 1024 * 1024

# What the process keeps, least recently used first: key -> (value, bytes of its
# arrays).  A weight_id keys markov's basis of that weight, with its read-only
# recurrence and D_N; ("laguerre", m) and (0.0, 0.0, m) key the read-only
# (nodes, weights) of a reference rule.
# _STORE_BYTES is the running total of the bytes.
_STORE = OrderedDict()
_STORE_BYTES = 0
_STORE_LOCK = threading.Lock()


def _store_get(key):
    """The value kept under ``key``, now the most recently used, or None."""
    with _STORE_LOCK:
        value, _ = _STORE.get(key, (None, 0))
        if value is not None:
            _STORE.move_to_end(key)
    return value


def _store_put(key, value, nbytes: int) -> None:
    """Keep ``value``, whose arrays hold ``nbytes``, under ``key`` as the most recently used.

    It replaces the key's entry, whose bytes leave the total; then the least
    recently used entries leave while the total exceeds KEPT_BYTES, all but
    the newest.  Every value is read-only and a pure function of its key, so
    the store changes what a call costs, never what it returns.
    """
    global _STORE_BYTES
    with _STORE_LOCK:
        _STORE_BYTES += nbytes - _STORE.pop(key, (None, 0))[1]
        _STORE[key] = (value, nbytes)
        while _STORE_BYTES > KEPT_BYTES and len(_STORE) > 1:
            _STORE_BYTES -= _STORE.popitem(last=False)[1][1]


class QuadRule(_Record, namedtuple("QuadRule", "nodes weights")):
    """Positive quadrature rule for integrals against one weight.

    Nodes strictly increasing and weights positive, as read-only float
    arrays, checked on every construction, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, nodes, weights):
        nodes, weights = np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ValueError("empty rule")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must be strictly positive")
        return super().__new__(cls, _frozen(nodes), _frozen(weights))


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


def _check_weights(rules, tables):
    """Raise QuadratureError for the first rule whose weights are not usable.

    rules[r] is the (nodes, weights) pair of the recurrence tables[r], each
    exactly its m points.  Every weight of a rule must be positive and
    finite.  From finite nodes and recurrence only an overflow of the
    Christoffel sum at the outer nodes (large Laguerre and Hermite rules)
    can spoil one, and the message says so; otherwise it names the nodes or
    recurrence that are not finite.
    """
    for (nodes, weights), (diag, offdiag, _) in zip(rules, tables):
        if not np.all((weights > 0) & np.isfinite(weights)):
            cause = (
                "the Christoffel sum sum_k p_k(x)^2 overflows at an outer node, so its weight "
                "cannot be represented" if all(np.isfinite(v).all() for v in (nodes, diag, offdiag))
                else "its nodes or recurrence are not finite, so it has no positive weights"
            )
            raise QuadratureError(f"{nodes.shape[0]}-point Gauss rule: {cause}")


def _gauss_rules(tables):
    """Gauss rules of a list of (diag, offdiag, mass) recurrences, one rule per row.

    The rule of a table has m = len(diag) points; offdiag has m-1 entries.
    Returns a list with one (nodes, weights) pair per table, each exactly
    its m points: views of the builder's own arrays, which it pads with
    zeros to the largest m and which no caller sees whole.  Nodes come from
    one ``_jacobi_nodes`` call per stretch of equal m.  The weights
    1 / sum_k p_k(x_j)^2 come from ``deriv_tables`` at order 0, run on
    consecutive rules zero-padded to the largest of them, squared in place
    and summed in order from k = 0; a new run starts where padding the run
    to the next rule's m would make its table more than twice its rules'
    own.  Listed in increasing m, as ``composite_rules``
    lists them (any order gives the same rules), a batch of close sizes is
    one pass, and one of far sizes needs no more memory than the eigensolve
    of its largest rules.  Raises QuadratureError before any solve when a
    mass or its reciprocal is not finite, and through ``_check_weights``,
    which reads each returned rule, when a weight is not positive and
    finite.
    """
    sizes = [d.shape[0] for d, _, _ in tables]
    diag = np.zeros((len(tables), max(sizes)))
    offdiag = np.zeros((len(tables), max(sizes) - 1))
    p0 = np.array([_p0(mass) for _, _, mass in tables])
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
            values = deriv_tables(a, b, p0[lo:hi], nodes[lo:hi, :m], 0)[0]
            weights[lo:hi, :m] = 1.0 / np.sum(np.square(values, out=values), axis=0)
    rules = [(nodes[r, :m], weights[r, :m]) for r, m in enumerate(sizes)]
    _check_weights(rules, tables)
    return rules


def gauss_rule(rec: RecurrenceTable, m: int) -> QuadRule:
    """m-point Gauss rule for the measure behind a recurrence table.

    Nodes are the eigenvalues of the m x m Jacobi matrix.  The weight at a
    node equals mass times the squared first eigenvector component, which is
    computed here through the equivalent Christoffel-function identity
    w_j = 1 / sum_k p_k(x_j)^2: LAPACK flushes first components below ~1e-17
    to zero (extreme Gauss-Laguerre nodes), while the polynomial form keeps
    them positive.  This is ``_gauss_rules`` of a one-row stack.
    """
    m = _degree(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > rec.n_max + 1:
        raise ValueError(f"recurrence table too short for an {m}-point rule (n_max={rec.n_max})")
    (rule,) = _gauss_rules([(rec.diag[:m], rec.offdiag[: m - 1], rec.mass)])
    return QuadRule(*rule)


def _graded_subpieces(u: float, v: float, spec: WeightSpec) -> list[float]:
    """Split [u, v] dyadically away from nearby off-piece singular points.

    A singular factor whose branch point sits just outside a long piece makes
    Gauss rules on the whole piece converge slowly; sub-pieces whose lengths
    grow geometrically away from that end restore fast convergence.
    """
    length = v - u
    pts = {u, v}
    # side -1 grades away from u, side +1 away from v
    for end, side in ((u, -1), (v, 1)):
        delta = min((d for c, _ in spec.singularities if (d := side * (c - end)) > 0),
                    default=math.inf)
        if length > 4 * delta:
            step, limit = delta, end - side * 0.6 * length
            x = end - side * step
            while side * x > side * limit:
                pts.add(x)
                step *= 2
                x -= side * step
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
    """Reference rules of the distinct ``keys``: a mapping key -> (nodes, weights).

    The keys are ``composite_rules``'s, listed in increasing node count.  Those
    the store does not hold go to one ``_gauss_rules`` batch, in the same
    order, and each comes back as a read-only copy of its own pair;
    its Gauss-Legendre and Gauss-Laguerre rules, which no weight changes, go
    into the store under their keys, each the most recently used, and a key
    read from the store becomes so too.  A rule does not depend on its
    batch, so it reads the same from the store as from the batch.
    """
    rules = {key: _store_get(key) for key in keys}
    missing = [key for key, rule in rules.items() if rule is None]
    if missing:
        built = _gauss_rules([
            _laguerre_coefficients(0.0, key[1] - 1) if key[0] == "laguerre"
            else _jacobi_coefficients(key[0], key[1], key[2] - 1) for key in missing
        ])
        for key, rule in zip(missing, built):
            rules[key] = tuple(_frozen(a) for a in rule)
            if key[0] == "laguerre" or key[:2] == (0.0, 0.0):
                _store_put(key, rules[key], 2 * rules[key][0].nbytes)
    return rules


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
    the process does not keep, and the Gauss-Legendre (0.0, 0.0, m) and
    Gauss-Laguerre rules kept in the process's one store, each read by its
    key as its own nodes and weights.  A level
    lays its pieces' reference rules end to end, with each piece's ends and
    exponents repeated over that piece's nodes.  Since a rule does not
    depend on its batch, each level's rule is the one it gets when built
    alone, from any store.  The rules whose exponents come from the weight
    die with the call.  A level is an integer in 0..MAX_REFINE, the levels
    the Stieltjes ladder can ask for, read as every count is read (any
    ``__index__`` integer but a bool), else ValueError names it.  A piece
    whose nodes leave the floating-point range raises QuadratureError naming
    the piece of the first such node.
    """
    if spec.family not in GENERALIZED_FAMILIES:
        raise WeightError(f"composite_rules needs a generalized family, got {spec.family!r}")
    degree = _degree(degree)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    for level in levels:
        if isinstance(level, bool) or not hasattr(type(level), "__index__") or not (
                0 <= level.__index__() <= MAX_REFINE):
            raise ValueError(f"refinement level {level!r} is not an integer in 0..{MAX_REFINE}")
    levels = [level.__index__() for level in levels]

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
    # the distinct keys in increasing node count, so the batch pads only close sizes
    refs = _reference_rules(sorted(dict.fromkeys(list(tails.values()) + [
        (g_hi, g_lo, m) for pieces in layouts for _, _, g_lo, g_hi, m in pieces
    ]), key=lambda key: key[-1]))

    rules = []
    for level, pieces in zip(levels, layouts):
        # the pieces' [-1, 1] rules end to end, each piece's ends and exponents over its nodes
        ref_nodes, ref_weights = (np.concatenate(col) for col in zip(*(
            refs[g_hi, g_lo, m] for _, _, g_lo, g_hi, m in pieces)))
        *columns, counts = zip(*pieces)
        lo_s, hi_s, g_lo, g_hi = (np.repeat(col, counts) for col in columns)
        # a piece, scale or exponent near the float range overflows here (and
        # inf * 0 is NaN); a piece is named at once, the rest by the Stieltjes
        # mass check
        with np.errstate(over="ignore", invalid="ignore"):
            half = 0.5 * (hi_s - lo_s)
            nodes = 0.5 * (lo_s + hi_s) + half * ref_nodes
            finite = np.isfinite(nodes)
            if not finite.all():
                first = int(np.argmin(finite))
                raise QuadratureError(f"the nodes of the piece [{float(lo_s[first])!r}, "
                                      f"{float(hi_s[first])!r}] are out of floating-point range")
            if spec.family == "gen_jacobi":
                smooth = np.full_like(nodes, spec.scale)
            else:  # the exponential factor e^-x or e^(-x^2)
                power = nodes if spec.family == "gen_laguerre" else nodes**2
                smooth = spec.scale * np.exp(-power)
            for c, g in spec.singularities:
                off = (lo_s != c) & (hi_s != c)
                smooth[off] = smooth[off] * np.abs(nodes[off] - c) ** g
            # the [-1,1] rule's mass is 2^(g_lo+g_hi+1) B(...); rescale to the piece length
            weights = ref_weights * half ** (g_lo + g_hi + 1) * smooth
        if tails:
            x, w = _tail_rule(spec, hi, *refs[tails[level]])
            nodes, weights = np.concatenate([nodes, x]), np.concatenate([weights, w])
        if not weights.any():
            raise QuadratureError(
                f"every weight of the {weights.shape[0]}-point composite rule underflowed to 0"
            )
        keep = weights > 0  # drop any node whose weight underflowed
        order = np.argsort(nodes[keep])
        rules.append(QuadRule(nodes[keep][order], weights[keep][order]))
    return rules


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
    reference rules of every level may come from the process's one store,
    beside the kept bases, so a ladder can cost less after others, and
    returns the same table.  Each level runs ``stieltjes`` on its rule's
    arrays; a rule of n or fewer nodes raises QuadratureError first, since
    ``stieltjes`` would return a last b_k of roundoff size rather than fail.
    Accepts once two consecutive levels give coefficients within 1e-12
    relative of each other (at most 6 refinements, else an error).
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
        cur = RecurrenceTable(n, *stieltjes(rule.nodes, rule.weights, n), weight_id)
        hint = float(np.max(np.abs(rule.nodes)))
        if prev is not None and _recurrence_change(prev, cur, hint) <= STABILIZE_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        f"recurrence coefficients did not stabilize after {MAX_REFINE} rule refinements"
    )


def _recurrence(spec: WeightSpec, n: int) -> RecurrenceTable:
    """The recurrence of ``spec`` to degree n, built as every kept basis builds it.

    A weight that ``closed_form`` restates takes its closed form, whose mass
    is checked (``_p0``); any other weight takes ``stabilized_stieltjes``,
    whose ``stieltjes`` checks the mass of every level.
    """
    if closed_form(spec) is None:
        return stabilized_stieltjes(spec, n)
    rec = recurrence_classical(spec, n)
    _p0(rec.mass)
    return rec
