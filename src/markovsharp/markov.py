"""Sharp Markov constants in weighted L2 and weighted Sobolev norms.

For polynomials of degree at most n and a weight w, the least constant in
||P'|| <= C ||P|| over the weighted L2 norm is the greatest singular value of
the derivative connection matrix whose entries pair the derivatives of the
orthonormal basis with the basis itself.  The Sobolev variant replaces both
norms by ||P||^2 + sum_j lambda_j ||P^(j)||^2 and becomes a generalized
symmetric eigenproblem between the two Gram forms.

The connection matrix is built column by column from the three-term
recurrence, with no quadrature.  It is stored square, with rows indexed by
the target basis (the transpose of the usual convention), so it acts directly
on coefficient vectors and its powers give the higher derivatives; singular
values are unaffected.  Each constant is then checked a posteriori: the
extremal polynomial is evaluated by quadrature on the basis rule, a path that
shares no code with the matrix, and the ratio it achieves must match.  The
basis is nested, so every degree up to N can read one ``basis_for(spec, N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, WeightError
from .linalg import gen_sym_eigen_max, svd_largest
from .orthopoly import (
    RecurrenceTable,
    WeightSpec,
    closed_form,
    eval_derivative_table,
    eval_orthonormal,
    max_degree_cap,
    recurrence_classical,
    stabilized_stieltjes,
    weight_to_json,
)
from .quadrature import QuadRule, gauss_rule

RESIDUAL_TOL = 1e-8
MAX_SOBOLEV_ORDER = 4


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
        object.__setattr__(self, "lambdas", lams)

    @property
    def k(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class SharpResult:
    """Sharp constant, extremal coefficients, and the verification residual."""

    n: int
    value: float
    coeffs: np.ndarray
    residual: float
    weight: WeightSpec
    lambdas: tuple[float, ...] = ()

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def result_to_json(res: SharpResult) -> dict:
    return {
        "n": res.n,
        "value": res.value,
        "coeffs": [float(c) for c in res.coeffs],
        "residual": res.residual,
        "weight": weight_to_json(res.weight),
        "lambdas": list(res.lambdas),
    }


def basis_for(spec: WeightSpec, n: int) -> tuple[RecurrenceTable, QuadRule]:
    """Recurrence table (to degree n+1 at least) plus a rule good for degree 2n+2 integrals."""
    cap = max_degree_cap()
    if n > cap:
        raise WeightError(f"n={n} exceeds the degree cap {cap} (set MARKOVSHARP_MAX_N to raise it)")
    if closed_form(spec) is not None:
        rec = recurrence_classical(spec, n + 2)
        return rec, gauss_rule(rec, n + 2)
    return stabilized_stieltjes(spec, n + 1)


def _basis(spec: WeightSpec, n: int, basis) -> tuple[RecurrenceTable, QuadRule]:
    """``basis_for(spec, n)``, or ``basis`` if given: a ``basis_for(spec, N)`` pair, N >= n."""
    if n < 1:
        raise WeightError("n must be >= 1")
    if basis is not None and (basis[0].n_max < n + 1 or basis[0].weight_id != spec.weight_id):
        raise WeightError(f"the given basis does not cover degree {n} of this weight")
    return basis_for(spec, n) if basis is None else basis


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


def sobolev_forms(mat: np.ndarray, sob: SobolevSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices (A, B) of ||P'||_W^2 and ||P||_W^2 in the orthonormal basis.

    ``mat`` is the square derivative matrix, so P^(j) has coefficients D^j c.
    """
    power = mat
    a = power.T @ power
    b = np.eye(mat.shape[0])
    for lam in sob.lambdas:
        b = b + lam * (power.T @ power)
        power = mat @ power
        a = a + lam * (power.T @ power)
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def _check_order(sob: SobolevSpec, max_order: int = MAX_SOBOLEV_ORDER):
    if sob.k > max_order:
        raise WeightError(
            f"derivative order k={sob.k} beyond the supported cap {max_order} "
            "(higher orders are numerically fragile at these degrees)"
        )


def _achieved_ratio(rec, rule, coeffs, n, lambdas=()) -> float:
    """||P'||_W / ||P||_W for P = sum coeffs p_k, by quadrature on ``rule``.

    With no lambdas this is the weighted L2 ratio ||P'|| / ||P||.
    """
    order = len(lambdas) + 1
    stack = eval_derivative_table(rec, rule.nodes, n, order=order)
    norms = []
    for d in range(order + 1):
        vals = coeffs @ stack[d]
        norms.append(float(np.dot(rule.weights, vals * vals)))
    den = norms[0] + sum(lam * norms[j + 1] for j, lam in enumerate(lambdas))
    num = norms[1] + sum(lam * norms[j + 2] for j, lam in enumerate(lambdas))
    return math.sqrt(num / den)


def _checked_residual(rec, rule, coeffs, n, value, lambdas=()) -> float:
    """Relative gap between ``value`` and the ratio its extremal vector achieves.

    Raises QuadratureError above RESIDUAL_TOL.
    """
    residual = abs(_achieved_ratio(rec, rule, coeffs, n, lambdas) - value) / value
    if residual > RESIDUAL_TOL:
        raise QuadratureError(
            f"sharp-constant residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "quadrature or eigensolver failure"
        )
    return residual


def sharp_constant_l2(spec: WeightSpec, n: int, basis=None) -> SharpResult:
    """Sharp constant of ||P'|| <= C ||P|| over P_n in the weighted L2 norm."""
    rec, rule = _basis(spec, n, basis)
    mat = derivative_matrix(rec, n)
    sigma, coeffs = svd_largest(mat)
    residual = _checked_residual(rec, rule, coeffs, n, sigma)
    return SharpResult(n=n, value=sigma, coeffs=coeffs, residual=residual, weight=spec)


def sharp_constant_sobolev(spec: WeightSpec, sob: SobolevSpec, n: int, basis=None) -> SharpResult:
    """Sharp constant of ||P'||_W <= C ||P||_W over P_n in the weighted Sobolev norm."""
    _check_order(sob)
    rec, rule = _basis(spec, n, basis)
    mat = derivative_matrix(rec, n)
    a, b = sobolev_forms(mat, sob)
    theta, coeffs = gen_sym_eigen_max(a, b)
    value = math.sqrt(max(theta, 0.0))
    residual = _checked_residual(rec, rule, coeffs, n, value, sob.lambdas)
    return SharpResult(
        n=n, value=value, coeffs=coeffs, residual=residual, weight=spec, lambdas=sob.lambdas
    )


def mirsky_bound(spec: WeightSpec, n: int, basis=None) -> float:
    """Upper bound (sum_nu nu ||p_nu'||^2)^(1/2) for the sharp L2 constant."""
    rec, _ = _basis(spec, n, basis)
    mat = derivative_matrix(rec, n)
    col_sq = np.sum(mat * mat, axis=0)
    return float(np.sqrt(np.dot(np.arange(n + 1), col_sq)))


class ExtremalPolynomial:
    """Evaluator for the extremal polynomial of a SharpResult, with its report."""

    def __init__(self, res: SharpResult, rec: RecurrenceTable):
        if rec.n_max < res.n + 1:
            raise WeightError(f"recurrence table too short: need n_max >= {res.n + 1}")
        self.result = res
        self._rec = rec
        rule = gauss_rule(rec, res.n + 1)
        self.achieved_ratio = _achieved_ratio(rec, rule, res.coeffs, res.n, res.lambdas)
        self.residual = abs(self.achieved_ratio - res.value) / res.value

    def __call__(self, x):
        table = eval_orthonormal(self._rec, x, self.result.n)
        return self.result.coeffs @ table

    @property
    def report(self) -> dict:
        return {
            "n": self.result.n,
            "value": self.result.value,
            "achieved_ratio": self.achieved_ratio,
            "residual": self.residual,
        }


def extremal_polynomial(res: SharpResult, rec: RecurrenceTable) -> ExtremalPolynomial:
    """Wrap a SharpResult as a callable polynomial plus an achievement report."""
    return ExtremalPolynomial(res, rec)
