"""Sharp Markov constants in weighted L2 and weighted Sobolev norms.

For polynomials of degree at most n and a weight w, the least constant in
||P'|| <= C ||P|| over the weighted L2 norm is the greatest singular value of
the derivative connection matrix whose entries pair the derivatives of the
orthonormal basis with the basis itself.  The Sobolev variant replaces both
norms by ||P||^2 + sum_j lambda_j ||P^(j)||^2, whose Gram matrix B in the
orthonormal basis has a Cholesky factor B = L L^T; the constant is then the
greatest singular value of D in that norm, L^T D L^-T (the weighted L2 norm is
the case B = I).

The connection matrix is built column by column from the three-term
recurrence, with no quadrature.  It is stored square, with rows indexed by
the target basis (the transpose of the usual convention), so it acts directly
on coefficient vectors and its powers give the higher derivatives; singular
values are unaffected.  Each constant is then checked a posteriori: the
extremal polynomial is evaluated by quadrature on the basis rule, a path that
shares no code with the matrix, and the ratio it achieves must match.

The basis is nested and D is strictly upper triangular, so a degree range is
one computation at its largest degree N: one ``basis_for(spec, N)``, one
D_N, one table of the p_k^(d) at the rule nodes and, for a Sobolev norm, one
Cholesky factor L_N of B_N and one L_N^T D_N L_N^-T.  Degree n takes its
top singular pair from the leading (n+1) x (n+1) block of that matrix.  For
a weight symmetric about its centre that block maps even coefficient indices
to odd ones and odd to even, so its Gram matrix is an even and an odd block;
degree n adds index n to one of them, so it solves that block alone and
keeps the other's pair from degree n - 1.  The rest is one pass over the
range: one back substitution with L_N^T gives every coefficient vector, and
one product per derivative order with the table checks every degree.  In the
weighted L2 norm the values and coefficients are bit for bit what a single
degree computes on that basis, and the residual and achieved ratio, summed
by one zero-padded product, agree with it to 1e-15.  In a Sobolev norm the
entries of B_N are sums over more (exactly zero) terms than those of B_n,
which round differently, so the values agree with a single degree to 1e-11
relative and to a high-precision reference as closely as single degrees do.
``sharp_constants`` and ``mirsky_bounds`` are these range paths; the
single-degree functions call them with one degree.  ``basis_for`` keeps the
last pair it built for a weight while that weight is alive, so every range
over the same degrees (the columns of a sweep, a Mirsky check beside its
constants) and the extremal evaluator after its constant share one build.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EigenError, QuadratureError, WeightError
from .linalg import _fix_sign, solve_triangular, svd_largest
from .orthopoly import (
    RecurrenceTable,
    WeightSpec,
    closed_form,
    eval_derivative_table,
    eval_orthonormal,
    max_degree_cap,
    recurrence_classical,
    stabilized_stieltjes,
)
from .quadrature import QuadRule, gauss_rule

RESIDUAL_TOL = 1e-8
MAX_SOBOLEV_ORDER = 4

_BASES = weakref.WeakKeyDictionary()  # WeightSpec -> (n, (RecurrenceTable, QuadRule))
_BASES_LOCK = threading.Lock()


@dataclass(frozen=True)
class SobolevSpec:
    """Derivative weights lambda_1..lambda_k of a weighted Sobolev norm."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) < 1:
            raise WeightError("need at least one lambda (k >= 1)")
        if any(not (v >= 0 and math.isfinite(v)) for v in lams):
            raise WeightError(f"lambdas must be finite and >= 0, got {lams}")
        if len(lams) > MAX_SOBOLEV_ORDER:
            raise WeightError(
                f"derivative order k={len(lams)} beyond the supported cap {MAX_SOBOLEV_ORDER} "
                "(higher orders are numerically fragile at these degrees)"
            )
        object.__setattr__(self, "lambdas", lams)


@dataclass(frozen=True)
class SharpResult:
    """Sharp constant, extremal coefficients, and the ratio they achieve on the basis rule.

    ``residual`` is the relative gap between ``achieved_ratio`` and ``value``.
    """

    n: int
    value: float
    coeffs: np.ndarray
    residual: float
    weight: WeightSpec
    achieved_ratio: float
    lambdas: tuple[float, ...] = ()

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def _check_degree(n: int):
    if n < 1:
        raise WeightError(f"n must be >= 1, got {n}")


def basis_for(spec: WeightSpec, n: int) -> tuple[RecurrenceTable, QuadRule]:
    """Recurrence table (to degree n+1 at least) plus a rule good for degree 2n+2 integrals.

    The last pair built for a weight is kept while that weight (or an equal
    one) is alive, and serves the same n again: the ranges of a sweep over
    one degree range, or ``sharp_constant_l2(spec, n)`` and then
    ``basis_for(spec, n)`` for the extremal evaluator, build once.  A basis
    built for another degree has another rule, so it never serves n.
    Nothing outlives the weight, so a request that makes its weight from
    JSON costs the same whatever requests came before it.  Both objects of a
    pair are immutable.
    """
    _check_degree(n)
    cap = max_degree_cap()
    if n > cap:
        raise WeightError(f"n={n} exceeds the degree cap {cap} (set MARKOVSHARP_MAX_N to raise it)")
    with _BASES_LOCK:
        last = _BASES.get(spec)
    if last is not None and last[0] == n:
        return last[1]
    if closed_form(spec) is not None:
        rec = recurrence_classical(spec, n + 2)
        basis = rec, gauss_rule(rec, n + 2)
    else:
        basis = stabilized_stieltjes(spec, n + 1)
    with _BASES_LOCK:
        _BASES[spec] = n, basis
    return basis


def _basis(spec: WeightSpec, ns) -> tuple[RecurrenceTable, QuadRule]:
    """``basis_for(spec, max(ns))``, once every degree in ``ns`` is checked."""
    if not ns:
        raise WeightError("need at least one degree")
    _check_degree(min(ns))
    return basis_for(spec, max(ns))


def derivative_matrix(rec: RecurrenceTable, n: int) -> np.ndarray:
    """Square (n+1) x (n+1) derivative matrix D, entry (i, k) = <p_i, p_k'>.

    Built from the recurrence alone: differentiating
    x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1} gives the columns
    b_k D[:, k+1] = (J - a_k) D[:, k] + e_k - b_{k-1} D[:, k-1] with D[:, 0] = 0,
    where J is the Jacobi matrix.  Column k holds the coefficients of p_k'
    (degree k-1), so every entry on or below the diagonal is exactly zero and
    so is the last row.
    """
    if n < 0:
        raise WeightError("n must be >= 0")
    if n > rec.n_max:
        raise WeightError(f"recurrence table too short: n={n} > n_max={rec.n_max}")
    a, b = rec.diag[: n + 1], rec.offdiag[:n]
    mat = np.zeros((n + 1, n + 1))
    for k in range(n):
        col = mat[:, k]
        nxt = (a - a[k]) * col
        nxt[1:] += b * col[:-1]
        nxt[:-1] += b * col[1:]
        nxt[k] += 1.0
        if k > 0:
            nxt -= b[k - 1] * mat[:, k - 1]
        mat[:, k + 1] = nxt / b[k]
    return mat


def sobolev_gram(mat: np.ndarray, lambdas: tuple[float, ...]) -> np.ndarray:
    """Gram matrix B of ||P||_W^2 = ||P||^2 + sum_j lambda_j ||P^(j)||^2, orthonormal basis.

    ``mat`` is the square derivative matrix, so P^(j) has coefficients D^j c;
    ``lambdas`` = () gives the weighted L2 norm, B = I.  numpy forms every
    term (D^j)^T D^j exactly symmetric, so B needs no symmetrizing.  A B out
    of floating-point range raises an EigenError that names the lambdas.
    """
    power = mat
    b = np.eye(mat.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for j, lam in enumerate(lambdas):
            if j:
                power = mat @ power
            b = b + lam * (power.T @ power)
    if not np.isfinite(b).all():
        raise EigenError(
            f"the Sobolev Gram matrix B for lambdas {lambdas!r} is out of floating-point range"
        )
    return b


def _checked_lambdas(lambdas) -> tuple[float, ...]:
    """Validated derivative weights of a Sobolev norm; () is the weighted L2 norm."""
    lambdas = tuple(lambdas)
    return SobolevSpec(lambdas).lambdas if lambdas else ()


def _checked_residual(stack, weights, coeffs, ns, values, lambdas=()):
    """||P'||_W / ||P||_W by quadrature for each row of ``coeffs``, and its gap to ``values``.

    Row i of ``coeffs`` holds the coefficients of P in the basis for degree
    ns[i], zero past it; ``stack[d, k]`` holds p_k^(d) at the rule nodes and
    ``weights`` the rule weights, and orders past len(lambdas) + 1 are not
    read.  Each order d is one product over the whole range,
    ||P^(d)||^2 = (coeffs @ stack[d])^2 @ weights.  With no lambdas the ratio
    is the weighted L2 ratio ||P'|| / ||P||.  The gaps are relative;
    QuadratureError names the first degree whose value is not positive and
    finite, else the first whose gap exceeds RESIDUAL_TOL.
    """
    for n, value in zip(ns, values):
        if not (math.isfinite(value) and value > 0):
            raise QuadratureError(
                f"sharp constant {value!r} at n={n} is not positive and finite; "
                "the recurrence or its mass is out of floating-point range"
            )
    norms = [(coeffs @ stack[d]) ** 2 @ weights for d in range(len(lambdas) + 2)]
    den = norms[0] + sum(lam * norms[j + 1] for j, lam in enumerate(lambdas))
    num = norms[1] + sum(lam * norms[j + 2] for j, lam in enumerate(lambdas))
    achieved = np.sqrt(num / den)
    residual = np.abs(achieved - values) / values
    for n, gap in zip(ns, residual):
        if not gap <= RESIDUAL_TOL:
            raise QuadratureError(
                f"sharp-constant residual {gap:.3e} at n={n} exceeds {RESIDUAL_TOL:.0e}; "
                "quadrature or eigensolver failure"
            )
    return achieved, residual


def _symmetric(spec: WeightSpec) -> bool:
    """Whether the weight is symmetric about the centre of its interval.

    Decided on the closed-form restatement, so a generalized weight and its
    classical twin agree: hermite always, jacobi when alpha = beta, gen_hermite
    and gen_jacobi when their singular factors mirror each other about 0 and
    about (a + b) / 2 (to 4 ulps of b - a), laguerre never.  The recurrence
    diagonal of such a weight is constant, so p_k' holds only p_{k-1},
    p_{k-3}, ...
    """
    spec = closed_form(spec) or spec
    if spec.family in ("hermite", "jacobi"):
        return spec.family == "hermite" or spec.alpha == spec.beta
    if spec.family not in ("gen_hermite", "gen_jacobi"):
        return False
    # the singular points are strictly increasing, so mirror pairs are c_j, c_{m-1-j}
    total, tol = 0.0, 0.0
    if spec.family == "gen_jacobi":  # c + d rounds, so it may miss a + b by a few ulps of b - a
        a, b = spec.interval
        total, tol = a + b, 4 * np.finfo(float).eps * (b - a)
    sings = spec.singularities
    return all(abs(c + d - total) <= tol and g == h
               for (c, g), (d, h) in zip(sings, reversed(sings)))


def _top_pairs(reduced: np.ndarray, ns, split: bool):
    """Top singular value and right vector of each degree's leading block of ``reduced``.

    Row i of the vectors holds degree ns[i]'s, zero past it; one row per
    degree, C-contiguous, so the residual's products read each row as one
    contiguous vector.  With ``split`` (a symmetric weight) ``reduced`` maps
    even coefficient indices to odd ones and odd to even, so M_n^T M_n is an
    even block and an odd block.  The block ending in column c reads the
    other parity's rows above c (``reduced`` is strictly upper triangular, so
    the rows from c on are zero): a slice fixed by c alone, so a range and a
    single degree solve the same bytes.  Degree n has the blocks ending in
    n and n - 1, of which only the first grew from degree n - 1; each block is
    solved once, and the larger value wins.
    """

    def block(c):  # rows and columns of the block ending in column c
        if split:
            return slice(1 - c % 2, c, 2), slice(c % 2, c + 1, 2)
        return slice(c + 1), slice(c + 1)

    values, vecs = [], np.zeros((len(ns), reduced.shape[1]))
    pairs = {}  # last column c -> top pair of its block
    for row, n in enumerate(ns):
        ends = (n, n - 1) if split else (n,)
        for c in ends:
            if c not in pairs:
                pairs[c] = svd_largest(np.ascontiguousarray(reduced[block(c)]))
        c = max(ends, key=lambda end: pairs[end][0])
        value, vecs[row, block(c)[1]] = pairs[c]
        values.append(value)
    return values, vecs


def sharp_constants(spec: WeightSpec, ns, lambdas=()) -> list[SharpResult]:
    """Sharp constants of ||P'||_W <= C ||P||_W over P_n, one per degree n in ``ns``.

    ``lambdas`` are the derivative weights of the Sobolev norm W; () gives the
    weighted L2 norm.  Every degree reads the one D_N and residual table of
    ``basis_for(spec, N)``, N = max(ns), and in a Sobolev norm the one factor
    L_N of B_N.  Trailing zero lambdas add exactly
    nothing to B or to the residual, so they are dropped after validation;
    all-zero lambdas take the L2 path.  Results keep the lambdas as given.

    With B = L L^T, the ratio for P = sum c_k p_k is ||L^T D c|| / ||L^T c||,
    so the constant is sigma_max(L^T D L^-T); its right singular vector v gives
    c = L^-T v with c^T B c = 1.  For B = I that is sigma_max(D) and c = v.

    Each degree takes its top pair from its own leading block
    (``_top_pairs``): for a symmetric weight, from the larger of its two
    parity blocks, of which only the one that grew from degree n - 1 is
    solved anew.  The rest is one pass over the range.  The vectors,
    zero-padded to N+1 entries, are the columns of one matrix V, and one back
    substitution L_N^T C = V gives every coefficient vector: L_N^T is upper
    triangular and column n of V is zero past row n, so its solution is too,
    and its top part solves the leading block.  One product per derivative
    order then checks every degree (``_checked_residual``).
    """
    ns, given = list(ns), _checked_lambdas(lambdas)
    lambdas = given
    while lambdas and lambdas[-1] == 0.0:
        lambdas = lambdas[:-1]
    rec, rule = _basis(spec, ns)
    top = max(ns)
    mat = derivative_matrix(rec, top)
    stack = eval_derivative_table(rec, rule.nodes, top, order=len(lambdas) + 1)
    if lambdas:
        # D_N[:, :n+1] = [D_n; 0], so B_n, L_n and L_n^T D_n L_n^-T are the
        # leading blocks of the degree-N ones: one factorization serves the
        # range.  Every factor is triangular with exact zeros, so the product
        # is too, and its leading blocks read no entry past degree n
        try:
            chol = np.linalg.cholesky(sobolev_gram(mat, lambdas))
        except np.linalg.LinAlgError as exc:
            raise EigenError("Sobolev Gram matrix B is not positive definite") from exc
        reduced = chol.T @ solve_triangular(chol, mat.T, lower=True).T
    else:
        # B = I needs no Cholesky factor or solves (4.5% of random_requests
        # p50 on a 2-vCPU Xeon)
        reduced = mat
    values, vecs = _top_pairs(reduced, ns, _symmetric(spec))
    coeffs = vecs
    if lambdas:
        solved, coeffs = solve_triangular(chol.T, vecs.T).T, np.zeros_like(vecs)
        for row, n in enumerate(ns):
            c, v = solved[row, : n + 1], vecs[row, : n + 1]
            # the solve can turn -0.0 into 0.0; exact zeros keep their sign in v
            coeffs[row, : n + 1] = _fix_sign(np.where(c == 0.0, np.copysign(0.0, v), c))
    achieved, residual = _checked_residual(stack, rule.weights, coeffs, ns, values, lambdas)
    return [
        SharpResult(
            n=n, value=value, coeffs=coeffs[row, : n + 1], residual=float(residual[row]),
            weight=spec, achieved_ratio=float(achieved[row]), lambdas=given,
        )
        for row, (n, value) in enumerate(zip(ns, values))
    ]


def sharp_constant_l2(spec: WeightSpec, n: int) -> SharpResult:
    """Sharp constant of ||P'|| <= C ||P|| over P_n in the weighted L2 norm."""
    return sharp_constants(spec, [n])[0]


def sharp_constant_sobolev(spec: WeightSpec, sob: SobolevSpec, n: int) -> SharpResult:
    """Sharp constant of ||P'||_W <= C ||P||_W over P_n in the weighted Sobolev norm."""
    return sharp_constants(spec, [n], sob.lambdas)[0]


def mirsky_bounds(spec: WeightSpec, ns) -> list[float]:
    """Upper bounds (sum_nu nu ||p_nu'||^2)^(1/2) for the sharp L2 constants, n in ``ns``."""
    ns = list(ns)
    rec, _ = _basis(spec, ns)
    mat = derivative_matrix(rec, max(ns))
    # D is strictly upper triangular: column k of D_n is the head of column k of D_N
    col_sq = np.sum(mat * mat, axis=0)
    return [float(np.sqrt(np.dot(np.arange(n + 1), col_sq[: n + 1]))) for n in ns]


def mirsky_bound(spec: WeightSpec, n: int) -> float:
    """Upper bound (sum_nu nu ||p_nu'||^2)^(1/2) for the sharp L2 constant."""
    return mirsky_bounds(spec, [n])[0]


class ExtremalPolynomial:
    """Evaluator for the extremal polynomial of a SharpResult, with the ratio it achieves."""

    def __init__(self, res: SharpResult, rec: RecurrenceTable):
        if rec.weight_id != res.weight.weight_id:
            raise WeightError("the recurrence table belongs to another weight than the result")
        if rec.n_max < res.n + 1:
            raise WeightError(f"recurrence table too short: need n_max >= {res.n + 1}")
        self.result = res
        self._rec = rec
        self.achieved_ratio = res.achieved_ratio

    def __call__(self, x):
        table = eval_orthonormal(self._rec, x, self.result.n)
        return self.result.coeffs @ table


def extremal_polynomial(res: SharpResult, rec: RecurrenceTable) -> ExtremalPolynomial:
    """Wrap a SharpResult as a callable polynomial with the ratio it achieves."""
    return ExtremalPolynomial(res, rec)
