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
ratio its extremal coefficients c achieve is read from D and c alone, by
Parseval, ||P^(d)||^2 = ||D^d c||^2 in the orthonormal basis, never from the
factored matrix whose singular value it checks.

The basis is nested and D is strictly upper triangular, so a degree range is
one computation at its largest degree N on one kept basis (``_kept``): one
recurrence to N+1, one D_N and, for a Sobolev norm, one Cholesky factor L_N
of B_N and one L_N^T D_N L_N^-T (``_sobolev_factor``).  When the basis is
built, ``quadrature._recurrence`` builds its recurrence, as it decides for
the weight, and ``_symmetric`` decides whether the weight is symmetric,
which the basis keeps as ``split``.  Degree n takes its top singular pair
from the leading (n+1) x (n+1) block of that matrix.  For a weight symmetric
about its centre that block maps even coefficient indices to odd ones and
odd to even, so its Gram matrix is an even and an odd block; degree n adds
index n to one of them, so it solves that block alone and keeps the other's
pair from degree n - 1.  Each block costs only its copy, its Gram product and one eigensolve,
with the square root of its top eigenvalue; the choice of block is one
comparison per degree, and the rest is one pass over the range: the
placement of every vector in one zero-padded matrix and the sign rule,
then one back substitution with L_N^T for every coefficient vector, the step
that gives exact zeros their sign from the vector, the sign rule again, and
one product with D_N^T per derivative order to check every degree.  Squares
that leave the floating-point range (of D_N on a tiny interval, say) fail as
a named numerical error with the degree: one check per range before the
Gram products, and one on the norms of the residual.  In the weighted L2
norm the values and coefficients are bit for bit what a single degree
computes on that basis, and the residual and achieved ratio, summed by one
zero-padded product, agree with it to 1e-15.  In a Sobolev norm the entries
of B_N are sums over more (exactly zero) terms than those of B_n, which
round differently, so the values agree with a single degree to 1e-11
relative and to a high-precision reference as closely as single degrees do.
``sharp_constants`` and ``mirsky_bounds`` are these range paths; the
single-degree functions call them with one degree.  The basis of the last
degree N asked for is kept per process under the weight's ``weight_id``, so
every range up to the same N (the columns of a sweep, a Mirsky check beside
its constants) and ``basis_for``, which the extremal evaluator reads after
its constant, share one recurrence and one D_N, also when each call makes
its weight afresh from JSON.  The bases are kept in ``quadrature``'s one
store, beside its reference rules: the least recently used entries of
either kind leave once their arrays exceed ``quadrature.KEPT_BYTES``.  A
basis is a pure function of the weight_id and N, and read-only, its
recurrence and D_N alike, so what ran before changes what a call costs,
never what it returns.  No Gauss rule is kept:
``basis_for`` builds the (N+2)-point rule of the recurrence each time it is
called.

The sign rule (``_fix_sign``), which makes the last entry of non-negligible
size of every vector positive so outputs are deterministic, and the
triangular solve (``solve_triangular``, which ``cli`` uses too) live here.
numpy has no triangular solver, but LAPACK's partially pivoted LU on a
triangular matrix is plain substitution, so ``solve_triangular`` is
``np.linalg.solve``.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import EigenError, QuadratureError, WeightError
from .orthopoly import (
    RecurrenceTable,
    WeightSpec,
    _as_float,
    _degree,
    _frozen,
    _Record,
    _symmetric,
    eval_orthonormal,
    max_degree_cap,
)
from .quadrature import QuadRule, _recurrence, _store_get, _store_put, gauss_rule

RESIDUAL_TOL = 1e-8
MAX_SOBOLEV_ORDER = 4
_SIGN_RTOL = 1e-12

# The basis kept for one weight and top degree n: the recurrence to n+1, D_n
# and whether the weight is symmetric (``_symmetric``)
_Basis = namedtuple("_Basis", "n rec mat split")


def _lambda_values(lambdas) -> tuple[float, ...]:
    """``lambdas`` as a tuple of floats: not a string, each item a number and not a bool."""
    # a string iterates character by character, and "10" is not (1.0, 0.0)
    if isinstance(lambdas, (str, bytes)):
        raise WeightError(f"lambdas must be a sequence of numbers, got {lambdas!r}")
    try:
        values = tuple(lambdas)
    except TypeError as exc:
        raise WeightError(f"lambdas must be a sequence of numbers, got {lambdas!r}") from exc
    return tuple(_as_float(v, "lambda", finite=False) for v in values)


class SobolevSpec(_Record, namedtuple("SobolevSpec", "lambdas")):
    """Derivative weights lambda_1..lambda_k of a weighted Sobolev norm.

    ``lambdas`` is a tuple of 0 to MAX_SOBOLEV_ORDER finite floats >= 0,
    checked on every construction, ``_replace`` included; ``()`` is the
    weighted L2 norm.
    """

    __slots__ = ()

    def __new__(cls, lambdas):
        lams = _lambda_values(lambdas)
        if any(not (v >= 0 and math.isfinite(v)) for v in lams):
            raise WeightError(f"lambdas must be finite and >= 0, got {lams}")
        if len(lams) > MAX_SOBOLEV_ORDER:
            raise WeightError(
                f"derivative order k={len(lams)} beyond the supported cap {MAX_SOBOLEV_ORDER} "
                "(higher orders are numerically fragile at these degrees)"
            )
        return super().__new__(cls, lams)


class SharpResult(
    _Record, namedtuple("SharpResult", "n value coeffs residual weight achieved_ratio lambdas")
):
    """Sharp constant, extremal coefficients, and the ratio they achieve.

    ``residual`` is the relative gap between ``achieved_ratio`` and ``value``.
    ``n`` is a Python int (``_degree``) and ``coeffs`` a read-only float array
    of the n+1 coefficients, both checked on every construction, ``_replace``
    included.
    """

    __slots__ = ()

    def __new__(cls, n: int, value: float, coeffs, residual: float, weight: WeightSpec,
                achieved_ratio: float, lambdas: tuple[float, ...] = ()):
        n = _degree(n)
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (n + 1,):
            raise ValueError(f"coeffs of shape {c.shape} for degree {n}; need ({n + 1},)")
        return super().__new__(cls, n, value, _frozen(c), residual, weight, achieved_ratio,
                               lambdas)


def _degrees(ns) -> list[int]:
    """``ns`` as Python ints, once each is an integer >= 1 and the largest is within the cap."""
    ns = [_degree(n) for n in ns]
    if not ns:
        raise WeightError("need at least one degree")
    if min(ns) < 1:
        raise WeightError(f"n must be >= 1, got {min(ns)}")
    cap = max_degree_cap()
    if max(ns) > cap:
        raise WeightError(
            f"n={max(ns)} exceeds the degree cap {cap} (set MARKOVSHARP_MAX_N to raise it)"
        )
    return ns


def _kept(spec: WeightSpec, ns) -> _Basis:
    """The kept basis of ``spec`` for degrees ``ns`` checked by ``_degrees``: that of N = max(ns).

    A kept entry for N is read as it is; otherwise ``quadrature._recurrence``
    builds the recurrence to N+1, once.  D_N is built with it and made
    read-only, as the recurrence's arrays are, since every later call for
    the weight reads it, and ``_symmetric`` decides, once, whether
    the weight's blocks split by parity (``split``).  The entry is kept as
    ``basis_for`` describes: in ``quadrature``'s one store, under the
    weight's ``weight_id``, in place of the entry for another N, as the most
    recently used, with the bytes of its recurrence and D_N.  Least recently
    used entries of the store, bases and reference rules alike, then leave
    while its arrays exceed ``quadrature.KEPT_BYTES``, all but the newest.
    """
    top, key = max(ns), spec.weight_id
    kept = _store_get(key)
    if kept is not None and kept.n == top:
        return kept
    rec = _recurrence(spec, top + 1)
    kept = _Basis(top, rec, _frozen(derivative_matrix(rec, top)), _symmetric(spec))
    _store_put(key, kept, rec.diag.nbytes + rec.offdiag.nbytes + kept.mat.nbytes)
    return kept


def recurrence_for(spec: WeightSpec, n: int) -> RecurrenceTable:
    """Recurrence table to degree n+1 of the basis kept for the weight (``_kept``).

    It builds no Gauss rule, so it is the table ``basis_for`` returns without
    the cost of its rule.
    """
    return _kept(spec, _degrees([n])).rec


def basis_for(spec: WeightSpec, n: int) -> tuple[RecurrenceTable, QuadRule]:
    """Recurrence table (to degree n+1) plus its (n+2)-point Gauss rule, exact to degree 2n+3.

    The recurrence is that of the basis kept for the weight (``_kept``),
    which also holds D_n, so the extremal evaluator after
    ``sharp_constant_l2(spec, n)``, and every range over degrees up to the
    same n (the columns of a sweep, a Mirsky check beside its constants),
    build one recurrence and one D_n.  The process keeps the last degree
    built for each weight by its ``weight_id``, so a weight made afresh from
    the same JSON reads the basis an earlier request built, until
    ``quadrature.KEPT_BYTES`` of newer entries in the process's one store
    push it out.  A kept basis is a pure function of the weight_id and n,
    as are the reference rules of the composite rules kept beside it, so a
    request gets the same results whatever requests came before it; only
    its cost falls after them.  The rule is built on each call and not
    kept.  Both objects of the pair are immutable.
    """
    rec = recurrence_for(spec, n)
    return rec, gauss_rule(rec, n + 2)


def derivative_matrix(rec: RecurrenceTable, n: int) -> np.ndarray:
    """Square (n+1) x (n+1) derivative matrix D, entry (i, k) = <p_i, p_k'>.

    Built from the recurrence alone: differentiating
    x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1} gives the columns
    b_k D[:, k+1] = (J - a_k) D[:, k] + e_k - b_{k-1} D[:, k-1] with D[:, 0] = 0,
    where J is the Jacobi matrix.  Column k holds the coefficients of p_k'
    (degree k-1), so every entry on or below the diagonal is exactly zero and
    so is the last row.
    """
    n = _degree(n, "n")
    if n < 0:
        raise WeightError("n must be >= 0")
    if n > rec.n_max:
        raise WeightError(f"recurrence table too short: n={n} > n_max={rec.n_max}")
    a, b = rec.diag[: n + 1], rec.offdiag[:n]
    # row k of cols is column k of D, filled in place with the roundings of
    # the column recurrence; row k of shifts is a - a_k
    shifts = a - a[:n, None]
    cols = np.zeros((n + 1, n + 1))
    for k in range(n):
        col, nxt = cols[k], cols[k + 1]
        np.multiply(shifts[k], col, out=nxt)
        nxt[1:] += b * col[:-1]
        nxt[:-1] += b * col[1:]
        nxt[k] += 1.0
        if k > 0:
            nxt -= b[k - 1] * cols[k - 1]
        nxt /= b[k]
    return np.ascontiguousarray(cols.T)


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


def _sobolev_factor(mat: np.ndarray, lambdas: tuple[float, ...]):
    """The Cholesky factor L of the Sobolev Gram matrix B = L L^T of ``mat``, and L^T D L^-T.

    ``mat`` is the square derivative matrix D and ``lambdas`` are not all
    zero.  L^T D L^-T takes one forward substitution with L.  An EigenError
    says when B is not positive definite.
    """
    try:
        chol = np.linalg.cholesky(sobolev_gram(mat, lambdas))
    except np.linalg.LinAlgError as exc:
        raise EigenError("Sobolev Gram matrix B is not positive definite") from exc
    return chol, chol.T @ solve_triangular(chol, mat.T, lower=True).T


def _checked_residual(mat, coeffs, ns, values, lambdas=()):
    """||P'||_W / ||P||_W by Parseval for each row of ``coeffs``, and its gap to ``values``.

    Row i of ``coeffs`` holds the coefficients of P in the basis for degree
    ns[i], zero past it, and ``mat`` is the square derivative matrix D_N.
    Each order d is one product over the whole range: the rows times D_N^T
    are the coefficients of the next derivative, and
    ||P^(d)||^2 = ||D^d c||^2.  With no lambdas the ratio is the weighted L2
    ratio ||P'|| / ||P||.  The gaps are relative.  QuadratureError names the
    first degree whose value is not positive and finite; else, for the first
    degree whose gap exceeds RESIDUAL_TOL, it names the norms when their
    squares left the floating-point range, and otherwise EigenError names
    the gap.
    """
    for n, value in zip(ns, values):
        if not (math.isfinite(value) and value > 0):
            raise QuadratureError(
                f"sharp constant {value!r} at n={n} is not positive and finite; "
                "the recurrence or its mass is out of floating-point range"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        rows, norms = coeffs, [np.sum(coeffs * coeffs, axis=1)]
        for _ in range(len(lambdas) + 1):
            rows = rows @ mat.T
            norms.append(np.sum(rows * rows, axis=1))
        den = norms[0] + sum(lam * norms[j + 1] for j, lam in enumerate(lambdas))
        num = norms[1] + sum(lam * norms[j + 2] for j, lam in enumerate(lambdas))
        achieved = np.sqrt(num / den)
    residual = np.abs(achieved - values) / values
    for row, (n, gap) in enumerate(zip(ns, residual)):
        if not gap <= RESIDUAL_TOL:
            # a norm out of range gives a gap of 1, inf or nan, never a pass
            if not all(math.isfinite(norm[row]) for norm in norms):
                raise QuadratureError(
                    f"the norms of the extremal polynomial at n={n} are out of "
                    "floating-point range"
                )
            raise EigenError(
                f"sharp-constant residual {gap:.3e} at n={n} exceeds {RESIDUAL_TOL:.0e}; "
                "the eigensolve or the Sobolev factor failed"
            )
    return achieved, residual


def _fix_sign(rows: np.ndarray, solved) -> np.ndarray:
    """Flip each row so its last entry of non-negligible size is positive.

    Only the ``solved`` entries (a mask broadcast against ``rows``) change
    sign, so the zero padding around a row's solved entries keeps its +0.0;
    padding never decides the sign, because it is never of non-negligible
    size.  A row with no such entry is kept as it is.
    """
    mag = np.abs(rows)
    big = mag > _SIGN_RTOL * mag.max(axis=1, keepdims=True)
    last = rows.shape[1] - 1 - big[:, ::-1].argmax(axis=1)
    flip = (rows * big)[np.arange(len(rows)), last] < 0
    return np.where(flip[:, None] & solved, -rows, rows)


def solve_triangular(t: np.ndarray, x: np.ndarray, lower: bool = False) -> np.ndarray:
    """Solve t y = x for a triangular t by substitution.

    numpy has no triangular solver, but LAPACK's partially pivoted LU finds
    every pivot on the diagonal of an upper-triangular matrix and eliminates
    nothing, so ``np.linalg.solve`` reduces to back substitution there.  A
    lower-triangular system is solved as the reversed, upper-triangular one.
    """
    if lower:
        return np.linalg.solve(t[::-1, ::-1], x[::-1])[::-1]
    return np.linalg.solve(t, x)


def _top_pairs(reduced: np.ndarray, ns, split: bool):
    """Top singular value and right vector of each degree's leading block of ``reduced``.

    Returns the values, one per degree, and the vectors, one row per degree
    holding that degree's solved entries and +0.0 elsewhere (C-contiguous,
    so the residual's products read each row as one contiguous vector).
    With ``split`` (a symmetric weight) ``reduced`` maps even coefficient
    indices to odd ones and odd to even, so M_n^T M_n is an even block and
    an odd block.  ``step`` (2 with ``split``, else 1) states that layout
    once: the block ending in column c reads every ``step``-th column up to
    c and the rows of the other parity above c (``reduced`` is strictly
    upper triangular, so the rows from c on are zero), a slice fixed by c
    alone, so a range and a single degree solve the same bytes.  Degree n
    has the blocks ending in n and n - 1, of which only the first grew from
    degree n - 1; it takes the larger value, and the block ending in n on a
    tie.

    The pairs are kept in one dict keyed by each block's last column, in
    the order the degrees first use them.  Each block costs only its copy,
    its Gram product M^T M, one ``eigh`` and the square root of the top
    eigenvalue, which is well separated, so the root is accurate enough.
    The choice of block is one comparison per degree; the placement and the
    sign rule (``_fix_sign``, which negates only the solved entries) run
    once on the whole range.  One check per range keeps every Gram product
    in floating-point range: an EigenError names the first degree that
    reads a column whose squared norm overflows.
    """

    step = 2 if split else 1

    def block(c):  # rows and columns of the block ending in column c
        return slice((c + 1) % step, c + 1, step), slice(c % step, c + 1, step)

    # the sum of all squares bounds every Gram entry; only when it overflows
    # are the columns summed one by one
    with np.errstate(over="ignore"):
        if not math.isfinite(np.vdot(reduced, reduced)):
            finite = np.isfinite((reduced * reduced).sum(axis=0))
            if not finite.all():
                first = int(np.argmin(finite))
                raise EigenError(
                    f"the Gram matrix M^T M at n={min(n for n in ns if n >= first)} "
                    "is out of floating-point range"
                )
    # last column c -> (sigma, v) of its block
    pairs = dict.fromkeys(c for n in ns for c in range(n, n - step, -1))
    try:
        for c in pairs:
            m = np.ascontiguousarray(reduced[block(c)])
            vals, eig = np.linalg.eigh(m.T @ m)
            pairs[c] = math.sqrt(max(vals[-1], 0.0)), eig[:, -1]
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"eigensolver did not converge: {exc}") from exc
    last = np.array([n - 1 if split and pairs[n - 1][0] > pairs[n][0] else n for n in ns])
    cols = np.arange(reduced.shape[1])
    solved = (cols <= last[:, None]) & ((last[:, None] - cols) % step == 0)
    rows = np.zeros(solved.shape)
    rows[solved] = np.concatenate([pairs[c][1] for c in last])
    return [pairs[c][0] for c in last], _fix_sign(rows, solved)


def sharp_constants(spec: WeightSpec, ns, lambdas=()) -> list[SharpResult]:
    """Sharp constants of ||P'||_W <= C ||P||_W over P_n, one per degree n in ``ns``.

    ``lambdas`` are the 0 to MAX_SOBOLEV_ORDER derivative weights of the
    Sobolev norm W, checked as ``SobolevSpec`` checks them; () gives the
    weighted L2 norm.  The degrees are checked once (``_degrees``), and every
    result carries its degree as a Python int.  Every degree reads the one
    D_N of the basis kept for N = max(ns) (``_kept``), and in a Sobolev norm
    the one factor L_N of B_N (``_sobolev_factor``).  Trailing zero lambdas
    add exactly nothing to B or to the residual, so they are dropped after
    validation; all-zero lambdas take the L2 path.  Results keep the lambdas as given.

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
    and its top part solves the leading block.  Exact zeros of the solution
    take their sign from V, and the sign rule then runs once over the first
    n+1 entries of every row.  One product with D_N^T per derivative order
    then checks every degree (``_checked_residual``).
    """
    given, ns = SobolevSpec(lambdas).lambdas, _degrees(ns)
    lambdas = given
    while lambdas and lambdas[-1] == 0.0:
        lambdas = lambdas[:-1]
    basis = _kept(spec, ns)
    mat = basis.mat
    if lambdas:
        # D_N[:, :n+1] = [D_n; 0], so B_n, L_n and L_n^T D_n L_n^-T are the
        # leading blocks of the degree-N ones: one factorization serves the
        # range.  Every factor is triangular with exact zeros, so the product
        # is too, and its leading blocks read no entry past degree n
        chol, reduced = _sobolev_factor(mat, lambdas)
    else:
        # B = I needs no Cholesky factor or solves (4.5% of random_requests
        # p50 on a 2-vCPU Xeon)
        reduced = mat
    values, vecs = _top_pairs(reduced, ns, basis.split)
    coeffs = vecs
    if lambdas:
        solved = solve_triangular(chol.T, vecs.T).T
        # the solve can turn -0.0 into 0.0; exact zeros keep their sign in v
        # (+0.0 past each degree), and only then is the sign fixed
        coeffs = _fix_sign(np.where(solved == 0.0, np.copysign(0.0, vecs), solved),
                           np.arange(vecs.shape[1]) <= np.array(ns)[:, None])
    achieved, residual = _checked_residual(mat, coeffs, ns, values, lambdas)
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
    """Upper bounds (sum_nu nu ||p_nu'||^2)^(1/2) for the sharp L2 constants, n in ``ns``.

    They read D_N of the kept basis alone.
    """
    ns = _degrees(ns)
    mat = _kept(spec, ns).mat
    # D is strictly upper triangular: column k of D_n is the head of column k of D_N
    with np.errstate(over="ignore"):
        col_sq = np.sum(mat * mat, axis=0)
    bounds = [float(np.sqrt(np.dot(np.arange(n + 1), col_sq[: n + 1]))) for n in ns]
    for n, bound in zip(ns, bounds):
        if not math.isfinite(bound):
            raise QuadratureError(f"the Mirsky bound at n={n} is out of floating-point range")
    return bounds


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
