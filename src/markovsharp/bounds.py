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
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, WeightError
from .markov import SobolevSpec, basis_for, mirsky_bound, sharp_constant_l2, sharp_constant_sobolev
from .orthopoly import _SUM_TOL, WeightSpec, weight_to_json

FIT_SLACK = 0.1

CASE_IDS = (
    "laguerre_1",
    "gen_hermite_2",
    "jacobi_3",
    "gen_jacobi_4",
    "gen_laguerre_51",
    "gen_laguerre_52",
    "gen_hermite_6",
    "mirsky",
    "schmidt",
)


@dataclass(frozen=True)
class ExponentReport:
    """Growth exponent derived from singular-factor exponents.

    ``pair_terms`` lists g_j + g_{j+1} + |g_j - g_{j+1}| + 2 over consecutive
    zero-padded exponent pairs; ``pair_max`` is their maximum and ``exponent``
    the resulting power of n.
    """

    exponent: float
    pair_max: float
    pair_terms: tuple[float, ...]


def _pair_terms(padded: list[float]) -> list[float]:
    return [
        g1 + g2 + abs(g1 - g2) + 2.0 for g1, g2 in zip(padded, padded[1:])
    ]


def gen_hermite_exponent(gammas) -> ExponentReport:
    """Predicted growth exponent for a generalized Hermite weight.

    Requires every exponent > -1, a non-negative exponent sum, and
    max(g_j, g_{j+1}) >= -1/2 for every consecutive zero-padded pair.
    """
    gs = [float(g) for g in gammas]
    if any(g <= -1 for g in gs):
        raise HypothesisError("every singular exponent must be > -1")
    if sum(gs) < 0:
        raise HypothesisError(f"exponent sum must be >= 0, got {sum(gs)}")
    padded = [0.0] + gs + [0.0]
    for g1, g2 in zip(padded, padded[1:]):
        if max(g1, g2) < -0.5:
            raise HypothesisError(
                f"need max of each consecutive exponent pair >= -1/2, got ({g1}, {g2})"
            )
    terms = _pair_terms(padded)
    b = max(terms)
    return ExponentReport(exponent=max(2.0, (b + 1.0) / 2.0), pair_max=b, pair_terms=tuple(terms))


def gen_laguerre_exponent(gammas, centers) -> ExponentReport:
    """Predicted growth exponent for a generalized Laguerre weight.

    Only singular factors at non-negative locations enter: exponents below
    the first non-negative location are zeroed before padding.  Requires
    strictly increasing locations, a non-negative largest location, total
    exponent sum > -1, every exponent at a location >= 0 strictly > -1, and
    max >= -1/2 over consecutive pairs of the zeroed-and-padded exponents.
    """
    gs = [float(g) for g in gammas]
    cs = [float(c) for c in centers]
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
    padded = [0.0] + gs[first:] + [0.0]
    for g1, g2 in zip(padded, padded[1:]):
        if max(g1, g2) < -0.5:
            raise HypothesisError(
                f"need max of each consecutive exponent pair >= -1/2, got ({g1}, {g2})"
            )
    terms = _pair_terms(padded)
    b = max(terms)
    return ExponentReport(exponent=max(2.0, (b + 2.0) / 2.0), pair_max=b, pair_terms=tuple(terms))


def lupas_constant(n: int, alpha: float, beta: float) -> float:
    """Sup-norm versus weighted-L2 constant for the Jacobi weight on [-1, 1].

    Lupas' inequality: for P of degree at most n,
    ||P||_inf <= sqrt(G(n+a+b+2) / (2^(a+b+1) G(q+1) G(n+q'+1)) * C(n+q+1, n))
    * ||P||_L2(w), with q = max(a,b) >= -1/2 and q' = min(a,b).  Evaluated
    through log-gamma to avoid overflow.
    """
    if n < 0:
        raise WeightError("n must be >= 0")
    if alpha <= -1 or beta <= -1:
        raise WeightError("need alpha, beta > -1")
    q, qp = max(alpha, beta), min(alpha, beta)
    if q < -0.5:
        raise HypothesisError(f"Lupas hypothesis violated: max(alpha, beta) = {q} < -1/2")
    lg = math.lgamma
    log_sq = (
        lg(n + alpha + beta + 2)
        - (alpha + beta + 1) * math.log(2)
        - lg(q + 1)
        - lg(n + qp + 1)
        + lg(n + q + 2)
        - lg(n + 1)
        - lg(q + 2)
    )
    return math.exp(0.5 * log_sq)


def lupas_growth_exponent(alpha: float, beta: float) -> float:
    """Power of n governing the squared Lupas constant: a + b + |a-b| + 2."""
    return alpha + beta + abs(alpha - beta) + 2.0


def gamma_ratio_sequence(x: float, y: float, ns) -> list[float]:
    """The ratios G(n+x) / (G(n+y) n^(x-y)), which tend to 1 as n grows."""
    out = []
    for n in ns:
        if n + min(x, y) <= 0:
            raise WeightError(f"gamma pole: n + min(x, y) = {n + min(x, y)} <= 0")
        out.append(math.exp(math.lgamma(n + x) - math.lgamma(n + y) - (x - y) * math.log(n)))
    return out


def growth_fit(ns, values) -> tuple[float, float]:
    """Fit values ~ C n^e by least squares on the largest half of the range.

    Returns (C, e).  Requires at least four points and positive values.
    """
    ns = [float(n) for n in ns]
    values = [float(v) for v in values]
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


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one growth-bound verification run."""

    case_id: str
    n_range: tuple[int, ...]
    sharp_values: tuple[float, ...]
    fitted_constant: float
    fitted_exponent: float
    predicted_exponent: float
    passed: bool


def bound_check_to_json(check: BoundCheck, spec: WeightSpec) -> dict:
    return {
        "case_id": check.case_id,
        "n_range": list(check.n_range),
        "sharp_values": list(check.sharp_values),
        "fitted_constant": check.fitted_constant,
        "fitted_exponent": check.fitted_exponent,
        "predicted_exponent": check.predicted_exponent,
        "pass": check.passed,
        "weight": weight_to_json(spec),
    }


def bound_check_to_csv(check: BoundCheck, spec: WeightSpec) -> str:
    lines = ["case_id,n,sharp,predicted_envelope,fitted_constant,fitted_exponent,pass"]
    for n, v in zip(check.n_range, check.sharp_values):
        env = predicted_envelope(check.case_id, spec, n)
        lines.append(
            f"{check.case_id},{n},{v!r},{env!r},{check.fitted_constant!r},"
            f"{check.fitted_exponent!r},{str(check.passed).lower()}"
        )
    return "\n".join(lines) + "\n"


def _spec_gammas(spec: WeightSpec):
    return [g for _, g in spec.singularities], [c for c, _ in spec.singularities]


def predicted_exponent(case_id: str, spec: WeightSpec) -> float:
    """Exponent of n in the bound the given case asserts for this weight."""
    if case_id == "laguerre_1":
        return 1.0
    if case_id in ("gen_hermite_2", "schmidt"):
        return 0.5
    if case_id in ("jacobi_3", "gen_jacobi_4", "gen_laguerre_51"):
        return 2.0
    if case_id == "gen_laguerre_52":
        gs, cs = _spec_gammas(spec)
        return gen_laguerre_exponent(gs, cs).exponent
    if case_id == "gen_hermite_6":
        gs, _ = _spec_gammas(spec)
        return gen_hermite_exponent(gs).exponent
    if case_id == "mirsky":
        return 1.5
    raise WeightError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")


def predicted_envelope(case_id: str, spec: WeightSpec, n: int) -> float:
    """Pointwise bound envelope: explicit where known, else unit-constant n^e."""
    if case_id in ("gen_hermite_2", "schmidt"):
        return math.sqrt(2.0 * n)
    if case_id == "mirsky":
        return math.sqrt(n * (n + 1) * (2 * n + 1) / 3.0)
    return float(n) ** predicted_exponent(case_id, spec)


def default_case(spec: WeightSpec) -> str:
    """Most specific verification case applicable to a weight."""
    fam = spec.family
    if fam == "hermite":
        return "schmidt"
    if fam == "laguerre":
        return "laguerre_1"
    if fam == "jacobi":
        return "jacobi_3"
    if fam == "gen_jacobi":
        return "gen_jacobi_4"
    if fam == "gen_hermite":
        if all(c == 0.0 for c, _ in spec.singularities):
            return "gen_hermite_2"
        return "gen_hermite_6"
    gs, _ = _spec_gammas(spec)
    if not gs or abs(sum(gs[:-1])) <= _SUM_TOL:
        return "gen_laguerre_51"
    return "gen_laguerre_52"


def _check_case_applies(case_id: str, spec: WeightSpec):
    fam = spec.family
    need = {
        "laguerre_1": ("laguerre",),
        "gen_hermite_2": ("hermite", "gen_hermite"),
        "jacobi_3": ("jacobi",),
        "gen_jacobi_4": ("gen_jacobi",),
        "gen_laguerre_51": ("gen_laguerre",),
        "gen_laguerre_52": ("gen_laguerre",),
        "gen_hermite_6": ("gen_hermite",),
        "mirsky": ("hermite",),
        "schmidt": ("hermite",),
    }
    if case_id not in need:
        raise WeightError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")
    if fam not in need[case_id]:
        raise HypothesisError(f"case {case_id} needs a weight family in {need[case_id]}, got {fam}")
    if case_id == "gen_hermite_2":
        if any(c != 0.0 for c, _ in spec.singularities):
            raise HypothesisError(
                "case gen_hermite_2 covers |x|^a e^(-x^2) only; use gen_hermite_6"
            )
        if any(g < 0 for _, g in spec.singularities):
            raise HypothesisError("case gen_hermite_2 needs the |x|^a exponent >= 0")
    if case_id == "gen_laguerre_51":
        gs, cs = _spec_gammas(spec)
        if gs and abs(sum(gs[:-1])) > _SUM_TOL:
            raise HypothesisError(
                "case gen_laguerre_51 needs the exponents short of the last to sum to zero"
            )
        if gs and cs[-1] < 0:
            raise HypothesisError("the largest singularity location must be >= 0")


def verify_theorem(
    case_id: str, spec: WeightSpec, sob: SobolevSpec, ns, slack: float = FIT_SLACK
) -> BoundCheck:
    """Compute sharp constants over a degree range and check the fitted growth.

    Passes when the fitted exponent is at most predicted + slack (default
    0.1) and, for the explicit constant cases, when the pointwise bound holds
    as well (schmidt additionally checks equality with sqrt(2n) to 1e-10).
    """
    _check_case_applies(case_id, spec)
    if not math.isfinite(slack):
        raise WeightError(f"the fit slack must be finite, got {slack}")
    ns = sorted(int(n) for n in ns)
    if len(ns) < 4:
        raise WeightError("need at least 4 degrees for the exponent fit")
    predicted = predicted_exponent(case_id, spec)
    basis = basis_for(spec, ns[-1])

    if case_id == "mirsky":
        values = [mirsky_bound(spec, n, basis) for n in ns]
        sharp = [sharp_constant_l2(spec, n, basis).value for n in ns]
        extra_ok = all(m >= s for m, s in zip(values, sharp))
    elif case_id == "schmidt":
        values = [sharp_constant_l2(spec, n, basis).value for n in ns]
        extra_ok = all(
            abs(v - math.sqrt(2.0 * n)) <= 1e-10 * math.sqrt(2.0 * n)
            for n, v in zip(ns, values)
        )
    else:
        values = [sharp_constant_sobolev(spec, sob, n, basis).value for n in ns]
        extra_ok = True
        if case_id == "gen_hermite_2":
            extra_ok = all(
                v <= math.sqrt(2.0 * n) * (1 + 1e-9) for n, v in zip(ns, values)
            )

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
