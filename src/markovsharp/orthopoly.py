"""Weight families and orthonormal-polynomial recurrences.

A weight is one of the classical families (Jacobi, Laguerre, Hermite) or a
generalized family: the classical exponential factor times a product of
singular factors |x - c_j|^gamma_j.  ``closed_form`` decides which weights
have closed-form recurrence coefficients: the classical families, and the
generalized weights whose singular factors restate a classical one; every
other weight gets its recurrence from ``quadrature.stabilized_stieltjes``.
``_symmetric`` decides, from the family as ``closed_form`` restates it,
whether a weight is symmetric about the centre of its interval, so that
``markov`` names no family.  This module imports only ``errors`` and
``_kernels``.

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

from . import _kernels
from .errors import WeightError

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


class WeightSpec:
    """A validated weight: family, interval, exponents, singular factors, scale.

    Immutable, and equal and hashed by its field tuple, so -0.0 and 0.0
    make equal weights; ``weight_id`` tells them apart, and the kept bases
    are keyed by it.  A slotted class rather than a tuple, and weakly
    referable.
    """

    __slots__ = _WEIGHT_FIELDS + ("_id", "__weakref__")

    def __init__(self, family: str, interval: tuple[float, float], alpha: float = 0.0,
                 beta: float = 0.0, singularities: tuple[tuple[float, float], ...] = (),
                 scale: float = 1.0):
        values = (family, interval, alpha, beta, singularities, scale, None)
        for name, value in zip(_WEIGHT_FIELDS + ("_id",), values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.family, self.interval, self.alpha, self.beta, self.singularities, self.scale)

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightSpec is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"WeightSpec is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_WEIGHT_FIELDS, self._key()))
        return f"WeightSpec({fields})"

    @property
    def weight_id(self) -> str:
        # built once per object: the kept bases are looked up by it, and
        # every recurrence table and extremal evaluator reads it again
        if self._id is None:
            wid = json.dumps(weight_to_json(self), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_id", wid)
        return self._id


class RecurrenceTable(namedtuple("RecurrenceTable", "n_max diag offdiag mass weight_id")):
    """Three-term recurrence coefficients of the orthonormal polynomials.

    The coefficient arrays are read-only float arrays, checked against
    ``n_max`` on every construction, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, n_max: int, diag, offdiag, mass: float, weight_id: str = ""):
        diag = np.asarray(diag, dtype=float)
        offdiag = np.asarray(offdiag, dtype=float)
        if diag.shape != (n_max + 1,) or offdiag.shape != (n_max,):
            raise ValueError("recurrence arrays inconsistent with n_max")
        if n_max > 0 and not np.all(offdiag > 0):
            raise ValueError("offdiag coefficients must be strictly positive")
        diag.setflags(write=False)
        offdiag.setflags(write=False)
        return super().__new__(cls, n_max, diag, offdiag, mass, weight_id)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


def _parse_endpoint(value, name: str) -> float:
    if isinstance(value, str):
        token = value.strip().lower()
        if token in ("inf", "+inf", "infinity"):
            return math.inf
        if token == "-inf":
            return -math.inf
        raise WeightError(f"{name}: unrecognized endpoint {value!r}")
    return _as_float(value, name, finite=False)


_DEFAULT_INTERVALS = {
    "jacobi": (-1.0, 1.0),
    "laguerre": (0.0, math.inf),
    "hermite": (-math.inf, math.inf),
    "gen_laguerre": (0.0, math.inf),
    "gen_hermite": (-math.inf, math.inf),
}


def make_weight(raw) -> WeightSpec:
    """Validate a weight description and return a WeightSpec.

    ``raw`` is a JSON-style mapping with keys family, interval, alpha, beta,
    singularities, scale (endpoints may be the strings "inf"/"-inf"), or an
    existing WeightSpec (returned unchanged).
    """
    if isinstance(raw, WeightSpec):
        return raw
    if not isinstance(raw, dict):
        raise WeightError(f"weight description must be a mapping, got {type(raw).__name__}")
    known = {"family", "interval", "alpha", "beta", "singularities", "scale"}
    unknown = set(raw) - known
    if unknown:
        raise WeightError(f"unknown weight fields: {sorted(unknown)}")

    family = raw.get("family")
    if family not in FAMILIES:
        raise WeightError(f"unknown family {family!r}; expected one of {FAMILIES}")

    if "interval" in raw:
        pair = raw["interval"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise WeightError("interval must be a pair [a, b]")
        a = _parse_endpoint(pair[0], "interval[0]")
        b = _parse_endpoint(pair[1], "interval[1]")
    elif family in _DEFAULT_INTERVALS:
        a, b = _DEFAULT_INTERVALS[family]
    else:
        raise WeightError(f"{family}: interval is required")
    if not a < b:
        raise WeightError(f"empty interval: [{a}, {b}]")

    alpha = _as_float(raw.get("alpha", 0.0), "alpha")
    beta = _as_float(raw.get("beta", 0.0), "beta")
    scale = _as_float(raw.get("scale", 1.0), "scale")
    if not scale > 0:
        raise WeightError(f"scale must be a positive finite number, got {scale}")

    pairs, sings = raw.get("singularities", ()), []
    if not isinstance(pairs, (list, tuple)):
        raise WeightError("singularities must be pairs [c, gamma]")
    for item in pairs:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise WeightError("singularities must be pairs [c, gamma]")
        sings.append((_as_float(item[0], "singularity location"),
                      _as_float(item[1], "singularity exponent")))

    if family in ("laguerre", "gen_laguerre") and (a, b) != (0.0, math.inf):
        raise WeightError(f"{family}: interval must be [0, inf)")
    if family in ("hermite", "gen_hermite") and (a, b) != (-math.inf, math.inf):
        raise WeightError(f"{family}: interval must be the whole real line")
    if family in ("jacobi", "gen_jacobi") and not (math.isfinite(a) and math.isfinite(b)):
        raise WeightError(f"{family}: interval must be finite")

    if family == "jacobi":
        if alpha <= -1 or beta <= -1:
            raise WeightError("jacobi: non-integrable endpoint singularity (need alpha, beta > -1)")
    elif family == "laguerre":
        if alpha <= -1:
            raise WeightError("laguerre: non-integrable endpoint singularity (need alpha > -1)")
        if beta != 0.0:
            raise WeightError("laguerre: beta is not used")
    elif family == "hermite":
        if alpha != 0.0 or beta != 0.0:
            raise WeightError("hermite: alpha/beta are not used")
    elif family == "gen_hermite":
        if beta != 0.0:
            raise WeightError("gen_hermite: beta is not used")
        if alpha != 0.0:
            if alpha < 0:
                raise WeightError("gen_hermite: the |x|^alpha exponent must be >= 0")
            if any(c == 0.0 for c, _ in sings):
                raise WeightError("gen_hermite: alpha duplicates an explicit singularity at 0")
            sings.append((0.0, alpha))
            sings.sort()
            alpha = 0.0
    elif alpha != 0.0 or beta != 0.0:
        raise WeightError(f"{family}: alpha/beta are not used (put exponents in singularities)")

    if family in ("jacobi", "laguerre", "hermite") and sings:
        raise WeightError(f"{family}: singularities are not allowed for classical families")

    cs = [c for c, _ in sings]
    if any(c2 <= c1 for c1, c2 in zip(cs, cs[1:])):
        raise WeightError("singularity locations must be strictly increasing")
    for c, g in sings:
        if a <= c <= b and g <= -1:
            raise WeightError(f"non-integrable singularity: gamma={g} at c={c} inside the interval")

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

    return WeightSpec(
        family=family,
        interval=(a, b),
        alpha=alpha,
        beta=beta,
        singularities=tuple(sings),
        scale=scale,
    )


def weight_to_json(spec: WeightSpec) -> dict:
    """JSON-ready mapping for a WeightSpec (infinite endpoints become strings)."""
    def endpoint(v):
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return v

    return {
        "family": spec.family,
        "interval": [endpoint(spec.interval[0]), endpoint(spec.interval[1])],
        "alpha": spec.alpha,
        "beta": spec.beta,
        "singularities": [[c, g] for c, g in spec.singularities],
        "scale": spec.scale,
    }


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
    s = 2 * k + al + be
    diag = np.empty(n + 1)
    diag[0] = (be - al) / (al + be + 2)
    try:
        if math.isinf(b - a):  # the mapping below would turn a zero entry into inf * 0
            raise OverflowError
        with np.errstate(over="raise", invalid="raise"):
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


def eval_orthonormal(rec: RecurrenceTable, x, n: int) -> np.ndarray:
    """Values (p_0(x), ..., p_n(x)) by the forward three-term recurrence."""
    return eval_derivative_table(rec, x, n, 0)[0]


def eval_derivative_table(rec: RecurrenceTable, x, n: int, order: int) -> np.ndarray:
    """Stack of derivative values p_k^(d)(x) for d = 0..order.

    Shape (order+1, n+1) for scalar x, else (order+1, n+1, len(x)).
    """
    if n < 0 or n > rec.n_max:
        raise ValueError(f"need 0 <= n <= n_max={rec.n_max}, got {n}")
    if order < 0:
        raise ValueError("order must be >= 0")
    pts, scalar = _as_points(x)
    p0 = _kernels._p0(rec.mass)
    stack = _kernels.deriv_tables(rec.diag[: n + 1], rec.offdiag[:n], p0, pts, order)
    return stack[:, :, 0] if scalar else stack
