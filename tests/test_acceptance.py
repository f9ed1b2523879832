"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.

Criterion 5 checks the growth claims ||P'||_W <= C n^e ||P||_W for each
weight in two steps.  The L2 sub-case (lambda = (0,)) must pass
`verify_theorem`: fitted exponent at most predicted + 0.1 over degrees
4..40, plus the pointwise sqrt(2n) checks where they apply.  The Sobolev
sub-case (lambda = (1, 0.5)) must stay below the L2 constant at every degree,
S_n <= sigma_n.  This holds for every lambda >= 0 because P^(j) lies in P_n,
so ||P^(j+1)|| <= sigma_n ||P^(j)|| for each j, and it puts the Sobolev
constants under the same n^(e + 0.1) envelope as the L2 ones.  The Sobolev
top-half slope is printed but not asserted: for Laguerre alpha = 0 the
constants are exactly linear, S_n = (2/pi)(n - c) with c ~ 2.87, so the
least-squares slope over degrees 22..40 is 1.107 however accurate they are.
`test_criterion_5_laguerre_sobolev_constants_mpmath` pins that sub-case's
constants to a high-precision reference instead, one degree at a time, and
`test_criterion_5_laguerre_sobolev_range_mpmath` pins the degree range that
`verify_theorem` reads.
"""

import math
import time

import numpy as np
import pytest

from markovsharp import (
    SobolevSpec,
    gauss_rule,
    growth_fit,
    lupas_growth_exponent,
    make_weight,
    mirsky_bound,
    recurrence_classical,
    sharp_constant_l2,
    sharp_constant_sobolev,
    sharp_constants,
    verify_theorem,
)
from markovsharp.cli import build_parser, cmd_selftest
from markovsharp.markov import basis_for
from markovsharp.orthopoly import eval_derivative_table, eval_orthonormal

from oracles import lupas_constant, pencil_power_iteration

HERMITE = make_weight({"family": "hermite"})
LEGENDRE = make_weight({"family": "jacobi", "interval": [-1, 1]})


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_schmidt_identity():
    sharp_constant_l2(HERMITE, 2)  # warm the whole path before timing
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 41):
        value = sharp_constant_l2(HERMITE, n).value
        worst = max(worst, abs(value - math.sqrt(2 * n)) / math.sqrt(2 * n))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _report(
        "criterion-1 schmidt-identity",
        ok,
        f"max rel error {worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_mirsky_hermite():
    worst = 0.0
    dominated = True
    for n in range(1, 41):
        bound = mirsky_bound(HERMITE, n)
        closed = math.sqrt(n * (n + 1) * (2 * n + 1) / 3)
        worst = max(worst, abs(bound - closed) / closed)
        dominated = dominated and bound >= sharp_constant_l2(HERMITE, n).value
    ratio_40 = mirsky_bound(HERMITE, 40) / sharp_constant_l2(HERMITE, 40).value
    ok = worst <= 1e-10 and dominated and ratio_40 > 5.0
    assert _report(
        "criterion-2 mirsky-hermite",
        ok,
        f"max rel error {worst:.2e}, dominance {dominated}, bound/sharp at n=40 = {ratio_40:.1f}",
    )


def test_criterion_3_closed_form_desk_cases():
    legendre = sharp_constant_l2(LEGENDRE, 1).value
    sobolev = sharp_constant_sobolev(HERMITE, SobolevSpec((1.0,)), 1).value
    err1 = abs(legendre - math.sqrt(3)) / math.sqrt(3)
    err2 = abs(sobolev - math.sqrt(2 / 3)) / math.sqrt(2 / 3)
    ok = err1 <= 1e-12 and err2 <= 1e-12
    assert _report(
        "criterion-3 closed-form-desk-cases",
        ok,
        f"legendre sqrt(3) rel err {err1:.2e}, hermite sobolev sqrt(2/3) rel err {err2:.2e}",
    )


def _oracle_sharp(spec, n, iters=100_000):
    """Power iteration on the quadrature-assembled Rayleigh quotient."""
    rec, rule = basis_for(spec, n)
    stack = eval_derivative_table(rec, rule.nodes, n, order=1)
    gram = (stack[0] * rule.weights) @ stack[0].T
    stiff = (stack[1] * rule.weights) @ stack[1].T
    return math.sqrt(pencil_power_iteration(stiff, gram, iters=iters, seed=n))


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240902)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(1, 13))
        if i % 2 == 0:
            alpha, beta = rng.uniform(-0.9, 3.0, 2)
            spec = make_weight(
                {"family": "jacobi", "interval": [-1, 1], "alpha": alpha, "beta": beta}
            )
        else:
            c = float(rng.uniform(-0.8, 0.8))
            g = float(rng.uniform(-0.9, 3.0))
            spec = make_weight(
                {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[c, g]]}
            )
        value = sharp_constant_l2(spec, n).value
        oracle = _oracle_sharp(spec, n)
        worst = max(worst, abs(value - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    assert _report(
        "criterion-4 oracle-equivalence",
        ok,
        f"max rel deviation {worst:.2e} (tol 1e-8) over 20 weights, runtime {elapsed:.1f}s (< 30s)",
    )


CASE5_MATRIX = [
    ("laguerre_1", {"family": "laguerre", "alpha": 0.0}),
    ("laguerre_1", {"family": "laguerre", "alpha": 1.5}),
    ("gen_hermite_2", {"family": "gen_hermite", "alpha": 0.0}),
    ("gen_hermite_2", {"family": "gen_hermite", "alpha": 2.0}),
    ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": 0.0, "beta": 0.0}),
    ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5}),
    ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": 1.0, "beta": 2.0}),
    (
        "gen_jacobi_4",
        {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]},
    ),
    ("gen_laguerre_51", {"family": "gen_laguerre", "singularities": [[2.0, 1.0]]}),
    (
        "gen_laguerre_52",
        {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]},
    ),
    ("gen_hermite_6", {"family": "gen_hermite", "singularities": [[0.0, 1.0]]}),
]


def test_criterion_5_theorem_exponent_suite():
    start = time.perf_counter()
    ns = range(4, 41)
    failures = []
    for case_id, raw in CASE5_MATRIX:
        spec = make_weight(raw)
        tag = f"{case_id} {raw.get('alpha', raw.get('singularities', ''))}"
        l2 = verify_theorem(case_id, spec, SobolevSpec((0.0,)), ns)
        sob = verify_theorem(case_id, spec, SobolevSpec((1.0, 0.5)), ns)
        ratio = max(s / v for s, v in zip(sob.sharp_values, l2.sharp_values))
        below_l2 = ratio <= 1 + 1e-9
        line = (
            f"  {tag}: L2 fitted {l2.fitted_exponent:.4f} vs "
            f"allowed {l2.predicted_exponent + 0.1:.4f}, max S/sigma {ratio:.4f}; "
            f"lam=(1.0, 0.5) top-half slope {sob.fitted_exponent:.4f} "
            "(reported, not asserted)"
        )
        print(("  ok " if l2.passed and below_l2 else "  RED") + line)
        if not l2.passed:
            failures.append(
                f"{tag} lam=(0.0,): verify_theorem FAIL, fitted "
                f"{l2.fitted_exponent:.4f} vs allowed {l2.predicted_exponent + 0.1:.4f}"
            )
        if not below_l2:
            failures.append(f"{tag} lam=(1.0, 0.5): max S_n/sigma_n {ratio:.6f} > 1 + 1e-9")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(
        "criterion-5 theorem-exponent-suite",
        ok,
        f"{len(CASE5_MATRIX) * 2 - len(failures)}/{len(CASE5_MATRIX) * 2} sub-cases, "
        f"runtime {elapsed:.1f}s (< 300s)",
    )
    assert not failures, (
        "growth claim not confirmed for: "
        + "; ".join(failures)
        + ".  Each L2 sub-case must pass verify_theorem (fitted exponent at most "
        "predicted + 0.1 over degrees 4..40, plus its pointwise checks), and each "
        "Sobolev constant must satisfy S_n <= sigma_n, the L2 constant of the same "
        "weight and degree, since ||P^(j+1)|| <= sigma_n ||P^(j)|| for every "
        "derivative of P in P_n."
    )
    assert elapsed < 300.0


def _laguerre_sobolev_reference(mp, n, lambdas):
    """Sobolev constant of Laguerre alpha=0 on P_n from the exact connection matrix.

    In the orthonormal Laguerre basis p_k' = sum_{j<k} (-1)^(j+k+1) p_j, so the
    Gram forms are polynomials in that matrix; the top eigenvalue of the pencil
    is found in mpmath at the working precision of `mp`.
    """
    size = n + 1
    deriv = mp.matrix(size, size)
    for k in range(size):
        for j in range(k):
            deriv[j, k] = (-1) ** (j + k + 1)
    powers = [mp.eye(size)]
    for _ in range(len(lambdas) + 1):
        powers.append(deriv * powers[-1])
    norm_form = mp.eye(size)
    deriv_form = powers[1].T * powers[1]
    for j, lam in enumerate(lambdas, start=1):
        norm_form += lam * powers[j].T * powers[j]
        deriv_form += lam * powers[j + 1].T * powers[j + 1]
    inv_chol = mp.inverse(mp.cholesky(norm_form))
    reduced = inv_chol * deriv_form * inv_chol.T
    reduced = (reduced + reduced.T) / 2
    return mp.sqrt(max(mp.eigsy(reduced, eigvals_only=True)))


def test_criterion_5_laguerre_sobolev_constants_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    spec = make_weight({"family": "laguerre", "alpha": 0.0})
    worst = 0.0
    with mpmath.workdps(30):
        # the reference reproduces the closed-form L2 constant 1/(2 sin(pi/(4n+2)))
        closed = 1 / (2 * mp.sin(mp.pi / 42))
        assert abs(_laguerre_sobolev_reference(mp, 10, ()) - closed) <= 1e-25 * closed
        for n in (10, 25, 40):
            value = sharp_constant_sobolev(spec, SobolevSpec((1.0, 0.5)), n).value
            ref = _laguerre_sobolev_reference(mp, n, (1, mp.mpf(1) / 2))
            worst = max(worst, float(abs(value - ref) / ref))
    assert _report(
        "criterion-5 laguerre-sobolev-mpmath",
        worst <= 1e-12,
        f"laguerre alpha=0 lam=(1, 0.5) at n=10,25,40: max rel error {worst:.2e} "
        "against a 30-digit pencil (tol 1e-12)",
    )


def test_criterion_5_laguerre_sobolev_range_mpmath():
    # the range path reads every degree from one factored degree-40 Gram matrix
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    spec = make_weight({"family": "laguerre", "alpha": 0.0})
    values = {res.n: res.value for res in sharp_constants(spec, range(4, 41), (1.0, 0.5))}
    worst = 0.0
    with mpmath.workdps(30):
        for n in (10, 25, 40):
            ref = _laguerre_sobolev_reference(mp, n, (1, mp.mpf(1) / 2))
            worst = max(worst, float(abs(values[n] - ref) / ref))
    assert _report(
        "criterion-5 laguerre-sobolev-range-mpmath",
        worst <= 1e-12,
        f"laguerre alpha=0 lam=(1, 0.5), range 4..40 at n=10,25,40: max rel error "
        f"{worst:.2e} against a 30-digit pencil (tol 1e-12)",
    )


def test_criterion_6_sobolev_monotonicity():
    rng = np.random.default_rng(20240903)
    checked = 0
    ok = True
    for i in range(200):
        n = int(rng.integers(1, 21))
        kind = i % 20
        if kind < 14:
            alpha, beta = rng.uniform(-0.9, 3.0, 2)
            spec = make_weight(
                {"family": "jacobi", "interval": [-1, 1], "alpha": alpha, "beta": beta}
            )
        elif kind < 17:
            spec = make_weight({"family": "laguerre", "alpha": float(rng.uniform(-0.9, 3.0))})
        elif kind < 19:
            spec = make_weight({"family": "gen_hermite", "alpha": float(rng.uniform(0.0, 3.0))})
        else:
            spec = make_weight(
                {
                    "family": "gen_jacobi",
                    "interval": [-1, 1],
                    "singularities": [[float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 2.0))]],
                }
            )
        k = int(rng.integers(1, 4))
        sob = SobolevSpec(tuple(float(v) for v in rng.uniform(0.0, 5.0, k)))
        v_sob = sharp_constant_sobolev(spec, sob, n).value
        v_l2 = sharp_constant_l2(spec, n).value
        ok = ok and v_sob <= v_l2 * (1 + 1e-9)
        checked += 1
    assert _report(
        "criterion-6 sobolev-below-l2", ok and checked == 200, f"{checked} random triples"
    )


def test_criterion_7_lupas_suite():
    violations = 0
    n = 30
    for alpha, beta in ((0.0, 0.0), (2.0, 1.0), (-0.5, 3.0)):
        spec = make_weight(
            {"family": "jacobi", "interval": [-1, 1], "alpha": alpha, "beta": beta}
        )
        rec = recurrence_classical(spec, n + 1)
        rule = gauss_rule(rec, n + 1)
        xs = np.cos(np.linspace(0.0, math.pi, 4001))
        dense = eval_orthonormal(rec, xs, n)
        at_rule = eval_orthonormal(rec, rule.nodes, n)
        const = lupas_constant(n, alpha, beta)
        rng = np.random.default_rng(int(10 * (alpha + 2) + 100 * (beta + 2)))
        for _ in range(200):
            coeffs = rng.standard_normal(n + 1)
            sup = float(np.max(np.abs(coeffs @ dense)))
            vals = coeffs @ at_rule
            l2 = math.sqrt(float(np.dot(rule.weights, vals * vals)))
            if sup > const * l2 * (1 + 1e-9):
                violations += 1

    # exponent check in the asymptotic regime (the growth claim is a limit;
    # at n <= 64 the log-log slope still carries an O(1/n) transient)
    fit_ns = [128, 181, 256, 362, 512, 724, 1024]
    worst_gap = 0.0
    for alpha, beta in ((0.0, 0.0), (2.0, 1.0), (-0.5, 3.0)):
        _, fitted = growth_fit(fit_ns, [lupas_constant(m, alpha, beta) for m in fit_ns])
        worst_gap = max(worst_gap, abs(fitted - lupas_growth_exponent(alpha, beta) / 2))
    ok = violations == 0 and worst_gap <= 0.05
    assert _report(
        "criterion-7 lupas-suite",
        ok,
        f"{violations} sup-norm violations over 600 polynomials, "
        f"max fitted-exponent gap {worst_gap:.3f} (tol 0.05)",
    )


def test_criterion_8_kernel_selftests():
    payload, passed = cmd_selftest(build_parser().parse_args(["selftest"]))
    for line in payload.strip().split("\n"):
        print("  " + line)
    assert _report("criterion-8 kernel-selftests", passed, "cmd_selftest all suites")
