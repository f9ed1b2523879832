"""Growth exponents, explicit bound constants, and fit-based verification.

The upper bounds being verified have the form C * n^e with C independent of
n but not reproducible (the analysis only asserts existence), so growth is
checked at the exponent level: sharp constants are computed over a range of
degrees, a power law is fitted over the largest half of the range, and the
fitted exponent must not exceed the predicted one by more than a fixed
slack.  Explicit-constant cases (the sqrt(2n) family) are additionally
checked pointwise.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import HypothesisError, WeightError
from .markov import SobolevSpec, _degrees, mirsky_bounds, sharp_constants
from .orthopoly import _SUM_TOL, WeightSpec

FIT_SLACK = 0.1


class ExponentReport(namedtuple("ExponentReport", "exponent pair_max pair_terms")):
    """Growth exponent derived from singular-factor exponents.

    ``pair_terms`` lists g_j + g_{j+1} + |g_j - g_{j+1}| + 2 over consecutive
    zero-padded exponent pairs; ``pair_max`` is their maximum and ``exponent``
    the resulting power of n.
    """

    __slots__ = ()


def _finite(values, name: str, error) -> list[float]:
    """``values`` as floats; ``error`` names the first that is not finite by ``name`` and index."""
    out = [float(v) for v in values]
    for i, v in enumerate(out):
        if not math.isfinite(v):
            raise error(f"{name} {i} is {v!r}, not a finite number")
    return out


def _pair_report(gs: list[float], shift: float) -> ExponentReport:
    """Pair terms of the zero-padded exponents, and the exponent max(2, (pair_max + shift) / 2).

    Requires max(g_j, g_{j+1}) >= -1/2 for every consecutive padded pair.
    """
    padded = [0.0] + gs + [0.0]
    terms = []
    for g1, g2 in zip(padded, padded[1:]):
        if max(g1, g2) < -0.5:
            raise HypothesisError(
                f"need max of each consecutive exponent pair >= -1/2, got ({g1}, {g2})"
            )
        terms.append(lupas_growth_exponent(g1, g2))
    b = max(terms)
    return ExponentReport(exponent=max(2.0, (b + shift) / 2.0), pair_max=b, pair_terms=tuple(terms))


def gen_hermite_exponent(gammas) -> ExponentReport:
    """Predicted growth exponent for a generalized Hermite weight.

    Requires every exponent > -1, a non-negative exponent sum, and
    max(g_j, g_{j+1}) >= -1/2 for every consecutive zero-padded pair.
    Every exponent must be finite.
    """
    gs = _finite(gammas, "exponent", HypothesisError)
    if any(g <= -1 for g in gs):
        raise HypothesisError("every singular exponent must be > -1")
    if sum(gs) < 0:
        raise HypothesisError(f"exponent sum must be >= 0, got {sum(gs)}")
    return _pair_report(gs, 1.0)


def gen_laguerre_exponent(gammas, centers) -> ExponentReport:
    """Predicted growth exponent for a generalized Laguerre weight.

    Only singular factors at non-negative locations enter: exponents below
    the first non-negative location are zeroed before padding.  Requires
    strictly increasing locations, a non-negative largest location, total
    exponent sum > -1, every exponent at a location >= 0 strictly > -1, and
    max >= -1/2 over consecutive pairs of the zeroed-and-padded exponents.
    Every exponent and location must be finite.
    """
    gs = _finite(gammas, "exponent", HypothesisError)
    cs = _finite(centers, "location", HypothesisError)
    if len(gs) != len(cs) or not gs:
        raise HypothesisError("need equally many exponents and locations (at least one)")
    if any(c2 <= c1 for c1, c2 in zip(cs, cs[1:])):
        raise HypothesisError("locations must be strictly increasing")
    if cs[-1] < 0:
        raise HypothesisError("the largest singularity location must be >= 0")
    if any(g <= -1 for g, c in zip(gs, cs) if c >= 0):
        raise HypothesisError("exponents at non-negative locations must be > -1")
    total = sum(gs)
    if not total > -1:
        raise HypothesisError(f"total exponent sum must be > -1, got {total}")
    first = next(j for j, c in enumerate(cs) if c >= 0)
    return _pair_report(gs[first:], 2.0)


def lupas_growth_exponent(alpha: float, beta: float) -> float:
    """Power of n governing the squared Lupas constant: a + b + |a-b| + 2."""
    return alpha + beta + abs(alpha - beta) + 2.0


def growth_fit(ns, values) -> tuple[float, float]:
    """Fit values ~ C n^e by least squares on the largest half of the range.

    Returns (C, e).  Requires at least four points, and finite positive
    degrees and values.
    """
    ns = _finite(ns, "degree", WeightError)
    values = _finite(values, "value", WeightError)
    if len(ns) != len(values) or len(ns) < 4:
        raise WeightError("growth_fit needs at least 4 (n, value) points")
    if any(v <= 0 for v in values) or any(n <= 0 for n in ns):
        raise WeightError("growth_fit needs positive degrees and values")
    pairs = sorted(zip(ns, values))
    top = pairs[len(pairs) // 2 :]
    log_n = np.log([p[0] for p in top])
    log_v = np.log([p[1] for p in top])
    if np.ptp(log_n) == 0:
        raise WeightError("degenerate fit: degrees in the fitted half are all equal")
    slope, intercept = np.polyfit(log_n, log_v, 1)
    return float(np.exp(intercept)), float(slope)


class BoundCheck(namedtuple("BoundCheck", "case_id n_range sharp_values fitted_constant "
                                       "fitted_exponent predicted_exponent passed")):
    """Outcome of one growth-bound verification run.

    ``n_range`` is the tuple of sorted degrees and ``sharp_values`` the tuple
    of values fitted over them (the Mirsky bounds for case mirsky);
    ``fitted_constant`` and ``fitted_exponent`` are the power-law fit,
    ``predicted_exponent`` the case's exponent and ``passed`` the verdict.
    """

    __slots__ = ()


def _spec_gammas(spec: WeightSpec):
    return [g for _, g in spec.singularities], [c for c, _ in spec.singularities]


def _gen_hermite_2_violation(spec: WeightSpec):
    if any(c != 0.0 for c, _ in spec.singularities):
        return "case gen_hermite_2 covers |x|^a e^(-x^2) only; use gen_hermite_6"


def _gen_laguerre_51_violation(spec: WeightSpec):
    if abs(sum(_spec_gammas(spec)[0][:-1])) > _SUM_TOL:
        return "case gen_laguerre_51 needs the exponents short of the last to sum to zero"


class _Case(namedtuple("_Case", "families exponent hypothesis envelope check l2 fits",
                        defaults=(lambda spec: None, None, None, False, None))):
    """One verification case: the weights it covers and the bound it asserts.

    ``exponent`` is the power of n in the bound, or the function of the weight
    that gives it; ``hypothesis`` returns the violated condition beyond the
    family, or None.  ``envelope`` is the explicit bound at degree n, where
    known, and ``check(value, envelope, sharp)`` the pointwise test each degree
    must pass, with ``sharp`` the sharp constant in the case's norm.  ``l2``
    is True for a case verified in the weighted L2 norm whatever Sobolev norm
    is asked for.  ``fits(spec, ns)`` gives the values the case fits in place
    of the sharp constants, or ``fits`` is None to fit the sharp constants.
    """

    __slots__ = ()


_CASES = {
    "laguerre_1": _Case(("laguerre",), 1.0),
    "gen_hermite_2": _Case(
        ("hermite", "gen_hermite"), 0.5, _gen_hermite_2_violation,
        envelope=lambda n: math.sqrt(2.0 * n), check=lambda v, env, s: v <= env * (1 + 1e-9),
    ),
    "jacobi_3": _Case(("jacobi",), 2.0),
    "gen_jacobi_4": _Case(("gen_jacobi",), 2.0),
    "gen_laguerre_51": _Case(("gen_laguerre",), 2.0, _gen_laguerre_51_violation),
    "gen_laguerre_52": _Case(
        ("gen_laguerre",), lambda spec: gen_laguerre_exponent(*_spec_gammas(spec)).exponent
    ),
    "gen_hermite_6": _Case(
        ("gen_hermite",), lambda spec: gen_hermite_exponent(_spec_gammas(spec)[0]).exponent
    ),
    "mirsky": _Case(
        ("hermite",), 1.5, envelope=lambda n: math.sqrt(n * (n + 1) * (2 * n + 1) / 3.0),
        check=lambda m, env, s: m >= s, l2=True, fits=mirsky_bounds,
    ),
    "schmidt": _Case(
        ("hermite",), 0.5, envelope=lambda n: math.sqrt(2.0 * n),
        check=lambda v, env, s: abs(v - env) <= 1e-10 * env, l2=True,
    ),
}
CASE_IDS = tuple(_CASES)
# default_case tries a family's cases in CASE_IDS order, unless listed here
_PREFERRED = {"hermite": ("schmidt",)}


def _case(case_id: str) -> _Case:
    if case_id not in _CASES:
        raise WeightError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")
    return _CASES[case_id]


def _violation(case_id: str, spec: WeightSpec):
    """Why the case does not cover the weight, or None when it does."""
    case = _case(case_id)
    if spec.family not in case.families:
        return f"case {case_id} needs a weight family in {case.families}, got {spec.family}"
    return case.hypothesis(spec)


def predicted_exponent(case_id: str, spec: WeightSpec) -> float:
    """Exponent of n in the bound the given case asserts for this weight."""
    exponent = _case(case_id).exponent
    return exponent(spec) if callable(exponent) else exponent


def predicted_envelope(case_id: str, spec: WeightSpec, n: int) -> float:
    """Pointwise bound envelope: explicit where known, else unit-constant n^e."""
    envelope = _case(case_id).envelope
    return envelope(n) if envelope else float(n) ** predicted_exponent(case_id, spec)


def default_case(spec: WeightSpec) -> str:
    """Most specific verification case applicable to a weight.

    The first of the family's cases whose hypothesis the weight meets.
    """
    cases = _PREFERRED.get(spec.family, CASE_IDS)
    return next(c for c in cases if _violation(c, spec) is None)


def verify_theorem(
    case_id: str, spec: WeightSpec, sob: SobolevSpec, ns, slack: float = FIT_SLACK
) -> BoundCheck:
    """Compute sharp constants over a degree range and check the fitted growth.

    Passes when the fitted exponent is at most predicted + slack (default
    0.1) and, for the explicit constant cases, when the pointwise bound holds
    as well (schmidt additionally checks equality with sqrt(2n) to 1e-10).
    The case says which norm it is verified in and which values it fits
    (``_Case``): mirsky fits the Mirsky bounds, and mirsky and schmidt use
    the L2 norm.  The degrees are checked as every range checks them
    (``_degrees``), then sorted; the fit needs at least four.
    """
    if violation := _violation(case_id, spec):
        raise HypothesisError(violation)
    if not math.isfinite(slack):
        raise WeightError(f"the fit slack must be finite, got {slack}")
    ns = sorted(_degrees(ns))
    if len(ns) < 4:
        raise WeightError("need at least 4 degrees for the exponent fit")
    predicted = predicted_exponent(case_id, spec)
    case = _CASES[case_id]

    lambdas = () if case.l2 else sob.lambdas
    sharp = [res.value for res in sharp_constants(spec, ns, lambdas)]
    values = case.fits(spec, ns) if case.fits else sharp
    extra_ok = case.check is None or all(
        case.check(v, case.envelope(n), s) for n, v, s in zip(ns, values, sharp))

    fitted_constant, fitted_exponent = growth_fit(ns, values)
    passed = bool(fitted_exponent <= predicted + slack) and extra_ok
    return BoundCheck(
        case_id=case_id,
        n_range=tuple(ns),
        sharp_values=tuple(values),
        fitted_constant=fitted_constant,
        fitted_exponent=fitted_exponent,
        predicted_exponent=predicted,
        passed=passed,
    )
