"""Weight families and orthonormal-polynomial recurrences.

A weight is one of the classical families (Jacobi, Laguerre, Hermite) or a
generalized family: the classical exponential factor times a product of
singular factors |x - c_j|^gamma_j.  The package's records, ``WeightSpec``
among them, are namedtuples derived from ``_Record``: each checks its fields
in its own ``__new__``, which every way of building one runs, and holds
read-only copies of the arrays it is given (``_frozen``).  ``make_weight``
only reads the JSON form of a weight into a ``WeightSpec``.
``closed_form`` decides which weights have closed-form recurrence
coefficients: the classical families, and the generalized weights whose
singular factors restate a classical one; every other weight gets its
recurrence from ``quadrature.stabilized_stieltjes``.
``_symmetric`` decides, from the family as ``closed_form`` restates it,
whether a weight is symmetric about the centre of its interval, so that
``markov`` names no family.
``deriv_tables`` is the one loop that evaluates a recurrence at points, for
one recurrence or a zero-padded stack of them, looping only over the degree:
the Gauss rules' weights read its order-0 values, and ``eval_orthonormal``
and ``eval_derivative_table`` its derivatives too.  No constant reads it:
the residual of a constant is taken from its derivative matrix, so the
derivative orders serve the self-test and the tests' quadrature oracle.
It takes and returns arrays only.  ``_p0`` is the one place a weight's
mass becomes p_0 = 1/sqrt(mass), and the one check that the mass allows it:
a mass that does not raises ``QuadratureError`` naming it.  This module
imports only ``errors``.

Orthonormal normalization throughout: p_0 = 1/sqrt(mass) and
x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1}, with every b_k > 0 and the
leading coefficient of each p_k positive.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

import numpy as np

from .errors import QuadratureError, WeightError

CLASSICAL_FAMILIES = ("jacobi", "laguerre", "hermite")
GENERALIZED_FAMILIES = ("gen_jacobi", "gen_laguerre", "gen_hermite")
FAMILIES = CLASSICAL_FAMILIES + GENERALIZED_FAMILIES

DEFAULT_MAX_N = 60

_SUM_TOL = 1e-12  # tolerance for the "sum of exponents is zero" hypothesis
_WEIGHT_FIELDS = ("family", "interval", "alpha", "beta", "singularities", "scale")


def max_degree_cap() -> int:
    """Degree cap for recurrence/sharp-constant computations.

    Defaults to 60 (double precision keeps the recurrences healthy there);
    override with the MARKOVSHARP_MAX_N environment variable, a positive
    integer.
    """
    raw = os.environ.get("MARKOVSHARP_MAX_N", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise WeightError(f"MARKOVSHARP_MAX_N is not an integer: {raw!r}") from exc
        if cap < 1:
            raise WeightError(f"MARKOVSHARP_MAX_N must be a positive integer: {raw!r}")
        return cap
    return DEFAULT_MAX_N


class _Record:
    """Base of the package's checked, read-only namedtuples.

    A call, ``_make``, ``_replace``, ``copy``, ``deepcopy`` and unpickling at
    every pickle protocol all build a record through its class, so its own
    ``__new__`` checks every instance.  List it before the namedtuple base.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``, so no view of the caller's array can change it."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


class WeightSpec(_Record, namedtuple("WeightSpec", _WEIGHT_FIELDS)):
    """A validated weight: family, interval, exponents, singular factors, scale.

    Every construction, ``_replace``, ``copy`` and unpickling at every
    pickle protocol included, checks the weight in its canonical form and
    raises WeightError when it fails: a known family on an interval (a, b)
    with a < b that suits the family, float fields, singular factors as
    strictly increasing (location, exponent) pairs, and the family's
    integrability and exponent-sum hypotheses.  A gen_hermite |x|^alpha factor is the
    singular factor (0, alpha), so its alpha is 0; ``make_weight`` reads
    the shorthand.
    Equal and hashed by its fields, so -0.0 and 0.0 make equal weights;
    ``weight_id`` tells them apart, and the kept bases are keyed by it.
    """

    def __new__(cls, family: str, interval: tuple[float, float], alpha: float = 0.0,
                beta: float = 0.0, singularities: tuple[tuple[float, float], ...] = (),
                scale: float = 1.0):
        if family not in FAMILIES:
            raise WeightError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise WeightError("interval must be a pair [a, b]")
        a = _as_float(interval[0], "interval[0]", finite=False)
        b = _as_float(interval[1], "interval[1]", finite=False)
        if not a < b:
            raise WeightError(f"empty interval: [{a}, {b}]")

        alpha = _as_float(alpha, "alpha")
        beta = _as_float(beta, "beta")
        scale = _as_float(scale, "scale")
        if not scale > 0:
            raise WeightError(f"scale must be a positive finite number, got {scale}")
        sings = _singular_pairs(singularities)

        if family in ("laguerre", "gen_laguerre") and (a, b) != (0.0, math.inf):
            raise WeightError(f"{family}: interval must be [0, inf)")
        if family in ("hermite", "gen_hermite") and (a, b) != (-math.inf, math.inf):
            raise WeightError(f"{family}: interval must be the whole real line")
        if family in ("jacobi", "gen_jacobi") and not (math.isfinite(a) and math.isfinite(b)):
            raise WeightError(f"{family}: interval must be finite")

        if family == "jacobi":
            if alpha <= -1 or beta <= -1:
                raise WeightError(
                    "jacobi: non-integrable endpoint singularity (need alpha, beta > -1)")
        elif family == "laguerre":
            if alpha <= -1:
                raise WeightError("laguerre: non-integrable endpoint singularity (need alpha > -1)")
            if beta != 0.0:
                raise WeightError("laguerre: beta is not used")
        elif family == "hermite":
            if alpha != 0.0 or beta != 0.0:
                raise WeightError("hermite: alpha/beta are not used")
        elif family == "gen_hermite" and beta != 0.0:
            raise WeightError("gen_hermite: beta is not used")
        elif alpha != 0.0 or beta != 0.0:
            raise WeightError(f"{family}: alpha/beta are not used (put exponents in singularities)")

        if family in CLASSICAL_FAMILIES and sings:
            raise WeightError(f"{family}: singularities are not allowed for classical families")

        cs = [c for c, _ in sings]
        if any(c2 <= c1 for c1, c2 in zip(cs, cs[1:])):
            raise WeightError("singularity locations must be strictly increasing")
        for c, g in sings:
            if a <= c <= b and g <= -1:
                raise WeightError(
                    f"non-integrable singularity: gamma={g} at c={c} inside the interval")

        if family == "gen_laguerre" and sings:
            if cs[-1] < 0:
                raise WeightError("gen_laguerre: the largest singularity location must be >= 0")
            inner_sum = sum(g for _, g in sings[:-1])
            total_sum = sum(g for _, g in sings)
            if abs(inner_sum) > _SUM_TOL and not total_sum > -1:
                raise WeightError(
                    "gen_laguerre: need either sum of all but the last exponent = 0 "
                    f"(got {inner_sum}) or total exponent sum > -1 (got {total_sum})"
                )
        if family == "gen_hermite":
            total_sum = sum(g for _, g in sings)
            if total_sum < 0:
                raise WeightError(f"gen_hermite: exponent sum must be >= 0, got {total_sum}")

        return super().__new__(cls, family, (a, b), alpha, beta, tuple(sings), scale)

    @property
    def weight_id(self) -> str:
        # built once per object: the kept bases are looked up by it, and
        # every recurrence table and extremal evaluator reads it again; a
        # tuple subclass has no slot for it, so it waits in the instance dict
        wid = self.__dict__.get("_id")
        if wid is None:
            wid = json.dumps(weight_to_json(self), sort_keys=True, separators=(",", ":"))
            self.__dict__["_id"] = wid
        return wid


class RecurrenceTable(_Record,
                      namedtuple("RecurrenceTable", "n_max diag offdiag mass weight_id")):
    """Three-term recurrence coefficients of the orthonormal polynomials.

    ``n_max`` is a Python int (``_degree``) and the coefficient arrays are
    read-only float arrays, checked against it on every construction,
    ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, n_max: int, diag, offdiag, mass: float, weight_id: str = ""):
        n_max = _degree(n_max, "n_max")
        diag, offdiag = np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)
        if diag.shape != (n_max + 1,) or offdiag.shape != (n_max,):
            raise ValueError("recurrence arrays inconsistent with n_max")
        if n_max > 0 and not np.all(offdiag > 0):
            raise ValueError("offdiag coefficients must be strictly positive")
        return super().__new__(cls, n_max, _frozen(diag), _frozen(offdiag), mass, weight_id)


def _degree(n, name: str = "degree") -> int:
    """``n`` as a Python int: a bool or a value without ``__index__`` (5.0, "5") is no count.

    The WeightError names the argument as ``name``.
    """
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise WeightError(f"{name} {n!r} is not an integer")
    return n.__index__()


def _as_float(value, name: str, finite: bool = True) -> float:
    """``value`` as a float; NaN, and unless ``finite`` is False infinity, are rejected."""
    # JSON true and false are not 1.0 and 0.0, nor is "2" the number 2
    if isinstance(value, (bool, str)):
        raise WeightError(f"{name} is not a number: {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise WeightError(f"{name} is not a number: {value!r}") from exc
    except OverflowError as exc:
        raise WeightError(f"{name} is beyond the float range: {value!r}") from exc
    if math.isnan(out):
        raise WeightError(f"{name} is NaN")
    if finite and math.isinf(out):
        raise WeightError(f"{name} must be finite, got {out}")
    return out


def _singular_pairs(pairs) -> list[tuple[float, float]]:
    """The singular factors as (location, exponent) float pairs, in the order given."""
    if not isinstance(pairs, (list, tuple)):
        raise WeightError("singularities must be pairs [c, gamma]")
    sings = []
    for item in pairs:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise WeightError("singularities must be pairs [c, gamma]")
        sings.append((_as_float(item[0], "singularity location"),
                      _as_float(item[1], "singularity exponent")))
    return sings


_INFINITE_ENDPOINTS = {
    "inf": math.inf, "+inf": math.inf, "infinity": math.inf, "+infinity": math.inf,
    "-inf": -math.inf, "-infinity": -math.inf,
}


def _parse_endpoint(value, name: str) -> float:
    if isinstance(value, str):
        token = value.strip().lower()
        if token not in _INFINITE_ENDPOINTS:
            raise WeightError(f"{name}: unrecognized endpoint {value!r}")
        return _INFINITE_ENDPOINTS[token]
    return _as_float(value, name, finite=False)


_DEFAULT_INTERVALS = {
    "jacobi": (-1.0, 1.0),
    "laguerre": (0.0, math.inf),
    "hermite": (-math.inf, math.inf),
    "gen_laguerre": (0.0, math.inf),
    "gen_hermite": (-math.inf, math.inf),
}


def make_weight(raw) -> WeightSpec:
    """Read a weight description and return its WeightSpec.

    ``raw`` is a JSON-style mapping with keys family, interval, alpha, beta,
    singularities, scale.  An endpoint may be the string "inf" or
    "infinity", signed or not, in any case; the interval defaults to the
    family's own, except for gen_jacobi; a gen_hermite alpha is the singular
    factor (0, alpha).  WeightSpec runs every other check.
    """
    if not isinstance(raw, dict):
        raise WeightError(f"weight description must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(_WEIGHT_FIELDS)
    if unknown:
        raise WeightError(f"unknown weight fields: {sorted(unknown)}")

    family, interval = raw.get("family"), raw.get("interval")
    if family in FAMILIES:  # else WeightSpec names the family first
        if "interval" not in raw:
            if family not in _DEFAULT_INTERVALS:
                raise WeightError(f"{family}: interval is required")
            interval = _DEFAULT_INTERVALS[family]
        elif isinstance(interval, (list, tuple)) and len(interval) == 2:
            interval = [_parse_endpoint(v, f"interval[{i}]") for i, v in enumerate(interval)]

    alpha, sings = raw.get("alpha", 0.0), raw.get("singularities", ())
    if family == "gen_hermite":
        alpha = _as_float(alpha, "alpha")
        if alpha < 0:
            raise WeightError("gen_hermite: the |x|^alpha exponent must be >= 0")
        if alpha != 0.0:
            sings = _singular_pairs(sings)
            if any(c == 0.0 for c, _ in sings):
                raise WeightError("gen_hermite: alpha duplicates an explicit singularity at 0")
            sings, alpha = sorted(sings + [(0.0, alpha)]), 0.0
    return WeightSpec(family, interval, alpha, raw.get("beta", 0.0), sings, raw.get("scale", 1.0))


def weight_to_json(spec: WeightSpec) -> dict:
    """JSON-ready mapping for a WeightSpec (infinite endpoints become strings).

    Its keys come in ``_WEIGHT_FIELDS`` order, which is the key order of the
    CLI's JSON output: the merge replaces values and keeps the order.
    """
    return {**spec._asdict(), "singularities": [list(p) for p in spec.singularities],
            "interval": [str(v) if math.isinf(v) else v for v in spec.interval]}


def _gamma_mass(family: str, exponent: float, x: float) -> float:
    """Gamma(x), the mass of a ``family`` weight with this exponent; OverflowError names both."""
    try:
        return math.gamma(x) if x <= 170.0 else math.exp(math.lgamma(x))
    except OverflowError as exc:
        raise OverflowError(
            f"the mass Gamma({x!r}) of the {family} weight with exponent {exponent!r} "
            "is out of floating-point range"
        ) from exc


def _jacobi_coefficients(al: float, be: float, n: int, a: float = -1.0, b: float = 1.0):
    """Orthonormal recurrence (diag, offdiag, mass) of (b-x)^al (x-a)^be on [a, b].

    diag has n+1 entries and offdiag n, from the closed forms on [-1, 1]
    mapped affinely to [a, b].  Exponents too large for these forms, or an
    interval whose length b - a overflows, raise an OverflowError that names
    the exponents and the interval.
    """
    k = np.arange(1.0, n + 1.0)
    diag = np.empty(n + 1)
    diag[0] = (be - al) / (al + be + 2)
    try:
        if math.isinf(b - a):  # the mapping below would turn a zero entry into inf * 0
            raise OverflowError
        with np.errstate(over="raise", invalid="raise"):
            s = 2 * k + al + be
            diag[1:] = (be * be - al * al) / (s * (s + 2))
            # beta_k of the monic recurrence, k = 1..n; beta_1 has its own form
            beta = np.empty(n)
            if n:
                beta[0] = 4 * (1 + al) * (1 + be) / ((2 + al + be) ** 2 * (3 + al + be))
            k, s = k[1:], s[1:]
            beta[1:] = 4 * k * (k + al) * (k + be) * (k + al + be) / (s * s * (s + 1) * (s - 1))
        mass = (b - a) ** (al + be + 1) * math.exp(
            math.lgamma(al + 1) + math.lgamma(be + 1) - math.lgamma(al + be + 2)
        )
    except ArithmeticError as exc:
        raise OverflowError(
            f"the jacobi recurrence with exponents alpha={al!r}, beta={be!r} on [{a!r}, {b!r}] "
            "is out of floating-point range"
        ) from exc
    mid, h = 0.5 * (a + b), 0.5 * (b - a)
    return mid + h * diag, h * np.sqrt(beta), mass


def _laguerre_coefficients(al: float, n: int):
    """Orthonormal recurrence (diag, offdiag, mass) of x^al e^-x on [0, inf).

    diag has n+1 entries and offdiag n.  A mass Gamma(al+1) out of
    floating-point range raises the OverflowError of ``_gamma_mass``.
    """
    mass = _gamma_mass("laguerre", al, al + 1)
    k = np.arange(1.0, n + 1.0)
    return 2.0 * np.arange(n + 1.0) + al + 1.0, np.sqrt(k * (k + al)), mass


def closed_form(spec: WeightSpec) -> WeightSpec | None:
    """The weight restated in a family with a closed-form recurrence, or None.

    Classical weights, and gen_hermite with singular factors only at the
    origin, are returned as they are.  gen_laguerre with factors only at the
    origin is laguerre(alpha=gamma); gen_jacobi with factors only at the
    interval ends is jacobi(alpha=gamma at b, beta=gamma at a).  The scale is
    kept.
    """
    at = dict(spec.singularities)
    if spec.family in CLASSICAL_FAMILIES or (spec.family == "gen_hermite" and set(at) <= {0.0}):
        return spec
    if spec.family == "gen_laguerre" and set(at) <= {0.0}:
        return WeightSpec("laguerre", spec.interval, alpha=at.get(0.0, 0.0), scale=spec.scale)
    a, b = spec.interval
    if spec.family == "gen_jacobi" and set(at) <= {a, b}:
        return WeightSpec(
            "jacobi", spec.interval, alpha=at.get(b, 0.0), beta=at.get(a, 0.0), scale=spec.scale
        )
    return None


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


def recurrence_classical(spec: WeightSpec, n: int) -> RecurrenceTable:
    """Closed-form orthonormal recurrence for a weight that ``closed_form`` restates.

    The coefficient formulas are the standard ones for the Jacobi (any finite
    interval), Laguerre and Hermite families and for |x|^gamma e^{-x^2}; see
    e.g. Gautschi, "Orthogonal Polynomials: Computation and Approximation".
    The table carries the weight_id of ``spec`` itself.
    """
    n = _degree(n, "n")
    if n < 0:
        raise WeightError("n must be >= 0")
    form = closed_form(spec)
    if form is None:
        raise WeightError(
            f"no closed-form recurrence for this {spec.family} weight; use stabilized_stieltjes"
        )

    fam = form.family
    if fam == "jacobi":
        diag, offdiag, mass = _jacobi_coefficients(form.alpha, form.beta, n, *form.interval)
    elif fam == "laguerre":
        diag, offdiag, mass = _laguerre_coefficients(form.alpha, n)
    else:  # hermite and gen_hermite, |x|^g e^{-x^2} with g = 0 for hermite
        g = form.singularities[0][1] if form.singularities else 0.0
        k = np.arange(1.0, n + 1.0)
        diag, offdiag = np.zeros(n + 1), np.sqrt(k / 2.0 + k % 2 * (g / 2.0))
        mass = _gamma_mass("gen_hermite", g, (g + 1) / 2)

    return RecurrenceTable(
        n_max=n, diag=diag, offdiag=offdiag, mass=mass * form.scale, weight_id=spec.weight_id
    )


def _as_points(x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError("evaluation points must be a scalar or 1-D array")
    return arr, np.isscalar(x) or getattr(x, "ndim", 1) == 0


def _p0(mass):
    """p_0 = 1/sqrt(mass), the constant orthonormal polynomial of a weight.

    Raises ``QuadratureError`` unless the mass and its reciprocal are
    positive and finite: p_0^2 = 1/mass, so a subnormal mass leaves p_0
    finite but its square not.
    """
    if not (0.0 < mass < math.inf and 1.0 / mass < math.inf):
        raise QuadratureError(f"the weight's mass {mass!r} or its reciprocal is not finite")
    return 1.0 / math.sqrt(mass)


def deriv_tables(diag, offdiag, p0, x, order):
    """Tables of p_k^(d)(x) for d = 0..order, shape (order+1, n+1, *x.shape).

    Obtained by differentiating the three-term recurrence d times,
    p_{k+1}^(d) = ((x - a_k) p_k^(d) + d p_k^(d-1) - b_{k-1} p_{k-1}^(d)) * (1/b_k).
    Takes one recurrence, diag (n+1,), offdiag (n,), a scalar p0 and points
    x (points,), or a stack of them, one per row: diag (rows, n+1), offdiag
    (rows, n), p0 (rows,) and x (rows, points).  A row of m < n+1 points is
    padded with offdiag = 0 from entry m-1 on; 1/b_k is taken as 0 there,
    so every p_k past its size vanishes.
    """
    n = diag.shape[-1] - 1
    # the degree first and one trailing axis, so a[k] broadcasts against x
    a, b = diag.T[..., None], offdiag.T[..., None]
    inv = np.zeros_like(b)
    np.divide(1.0, b, out=inv, where=b > 0)
    d = np.arange(1.0, order + 1.0).reshape((order,) + (1,) * x.ndim)
    # work[k] holds every order of p_k, one contiguous block per degree
    work = np.zeros((n + 1, order + 1) + x.shape)
    work[0, 0] = np.asarray(p0)[..., None]
    for k in range(n):
        nxt = work[k + 1]
        np.subtract(x, a[k], out=nxt)
        nxt *= work[k]
        if order:
            nxt[1:] += d * work[k, :-1]
        if k:
            nxt -= b[k - 1] * work[k - 1]
        nxt *= inv[k]
    return np.ascontiguousarray(work.swapaxes(0, 1))


def eval_orthonormal(rec: RecurrenceTable, x, n: int) -> np.ndarray:
    """Values (p_0(x), ..., p_n(x)) by the forward three-term recurrence."""
    return eval_derivative_table(rec, x, n, 0)[0]


def eval_derivative_table(rec: RecurrenceTable, x, n: int, order: int) -> np.ndarray:
    """Stack of derivative values p_k^(d)(x) for d = 0..order.

    Shape (order+1, n+1) for scalar x, else (order+1, n+1, len(x)).
    """
    n, order = _degree(n, "n"), _degree(order, "order")
    if n < 0 or n > rec.n_max:
        raise ValueError(f"need 0 <= n <= n_max={rec.n_max}, got {n}")
    if order < 0:
        raise ValueError("order must be >= 0")
    pts, scalar = _as_points(x)
    p0 = _p0(rec.mass)
    stack = deriv_tables(rec.diag[: n + 1], rec.offdiag[:n], p0, pts, order)
    return stack[:, :, 0] if scalar else stack
