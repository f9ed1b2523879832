import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from markovsharp import (
    EigenError,
    QuadratureError,
    SobolevSpec,
    WeightError,
    derivative_matrix,
    extremal_polynomial,
    gauss_rule,
    make_weight,
    mirsky_bound,
    recurrence_classical,
    sharp_constant_l2,
    sharp_constant_sobolev,
    sharp_constants,
    sobolev_gram,
)
from markovsharp import markov, quadrature
from markovsharp.cli import PRESETS
from markovsharp.markov import _fix_sign, basis_for, solve_triangular
from markovsharp.orthopoly import closed_form

from oracles import (
    derivative_matrix_by_quadrature,
    gen_hermite_moments,
    is_pd,
    jacobi_derivative_matrix_mp,
    jacobi_moments,
    laguerre_moments,
    legendre_moments,
    markov_pencil_exact,
    monic_recurrence,
    pencil_power_iteration,
    top_singular_value_mp,
)
from test_acceptance import CASE5_MATRIX
from test_quadrature import _refill

LEGENDRE = {"family": "jacobi", "interval": [-1, 1]}
HERMITE = {"family": "hermite"}
GEN_JACOBI = {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
# every family, two Jacobi weights
RANGE_WEIGHTS = [
    LEGENDRE,
    {"family": "jacobi", "interval": [-1, 2], "alpha": 0.5, "beta": -0.3},
    {"family": "laguerre", "alpha": 1.5},
    HERMITE,
    GEN_JACOBI,
    {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]},
    {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]},
]


def _bases():
    """weight_ids of the bases in the store the test runs with, least recently used first."""
    return [key for key in quadrature._STORE if isinstance(key, str)]


def _basis(spec):
    """The basis the store the test runs with keeps for ``spec``."""
    return quadrature._STORE[spec.weight_id][0]


def _nbytes(basis):
    """The bytes of a kept basis's arrays: its recurrence and D_N."""
    return basis.rec.diag.nbytes + basis.rec.offdiag.nbytes + basis.mat.nbytes


def _clear_bases():
    """Drop every kept basis from the store the test runs with, and its bytes from the total."""
    for key in _bases():
        quadrature._STORE_BYTES -= quadrature._STORE.pop(key)[1]


@pytest.fixture
def stieltjes_calls(monkeypatch):
    """Weights that basis_for builds through stabilized_stieltjes."""
    calls = []
    real = markov.stabilized_stieltjes

    def counted(spec, n):
        calls.append(spec)
        return real(spec, n)

    monkeypatch.setattr(markov, "stabilized_stieltjes", counted)
    return calls


@pytest.fixture
def outside_ladder(monkeypatch):
    """Calls of quadrature._gauss_rules and deriv_tables made outside the Stieltjes ladder.

    Every Gauss rule is built by ``_gauss_rules``, and every table of the
    p_k^(d) at points by ``deriv_tables``; the ladder's own reference rules
    are not counted.
    """
    from markovsharp import orthopoly, quadrature

    calls, depth = {"_gauss_rules": 0, "deriv_tables": 0}, [0]
    ladder = markov.stabilized_stieltjes

    def in_ladder(spec, n):
        depth[0] += 1
        try:
            return ladder(spec, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(markov, "stabilized_stieltjes", in_ladder)
    for owner, name in ((quadrature, "_gauss_rules"), (quadrature, "deriv_tables"),
                        (orthopoly, "deriv_tables")):

        def counted(*args, _name=name, _original=getattr(owner, name)):
            if not depth[0]:
                calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _affine_image(spec, stretch, shift):
    """Weight of the same family after x -> stretch*x + shift (stretch > 0)."""
    a, b = spec.interval
    return make_weight(
        {
            "family": spec.family,
            "interval": [stretch * a + shift, stretch * b + shift],
            "alpha": spec.alpha,
            "beta": spec.beta,
            "singularities": [[stretch * c + shift, g] for c, g in spec.singularities],
        }
    )


class TestDerivativeMatrix:
    def test_hermite_is_weighted_shift(self):
        rec, _ = basis_for(make_weight(HERMITE), 3)
        mat = derivative_matrix(rec, 3)
        expected = np.zeros((4, 4))
        for j in (1, 2, 3):
            expected[j - 1, j] = math.sqrt(2 * j)
        np.testing.assert_allclose(mat, expected, atol=1e-13)

    def test_legendre_degree_one_entry(self):
        rec, _ = basis_for(make_weight(LEGENDRE), 1)
        mat = derivative_matrix(rec, 1)
        np.testing.assert_allclose(mat, [[0.0, math.sqrt(3)], [0.0, 0.0]], rtol=1e-14, atol=1e-15)

    def test_degree_zero_empty(self):
        # p_0' = 0: the only entry is zero
        rec, _ = basis_for(make_weight(LEGENDRE), 1)
        mat = derivative_matrix(rec, 0)
        np.testing.assert_array_equal(mat, np.zeros((1, 1)))

    def test_lower_triangle_vanishes(self):
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 1.3, "beta": -0.2})
        rec, _ = basis_for(spec, 8)
        mat = derivative_matrix(rec, 8)
        assert mat.shape == (9, 9)
        assert np.all(mat[np.tril_indices(9)] == 0.0)

    def test_laguerre_closed_form(self):
        # orthonormal Laguerre (alpha = 0): p_k' = sum_{j<k} (-1)^(j+k+1) p_j
        n = 40
        rec, _ = basis_for(make_weight({"family": "laguerre"}), n)
        j, k = np.indices((n + 1, n + 1))
        expected = np.where(j < k, (-1.0) ** (j + k + 1), 0.0)
        np.testing.assert_allclose(derivative_matrix(rec, n), expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [10, 40])
    @pytest.mark.parametrize(
        "raw",
        [
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]},
            {"family": "gen_laguerre", "singularities": [[0, -0.5], [1, -0.4]]},
            {"family": "gen_hermite", "singularities": [[-1, 0.5], [1, 0.5]]},
        ],
        ids=["gen_jacobi", "gen_laguerre", "gen_hermite"],
    )
    def test_matches_quadrature_oracle(self, raw, n):
        rec, rule = basis_for(make_weight(raw), n)
        ref = derivative_matrix_by_quadrature(
            rec.diag, rec.offdiag, rec.mass, rule.nodes, rule.weights, n
        )
        mat = derivative_matrix(rec, n)
        assert np.max(np.abs(mat - ref)) <= 1e-12 * np.linalg.norm(ref)


class TestSharpL2:
    def test_hermite_schmidt_identity(self):
        spec = make_weight(HERMITE)
        for n in range(1, 41):
            res = sharp_constant_l2(spec, n)
            assert abs(res.value - math.sqrt(2 * n)) <= 1e-10 * math.sqrt(2 * n)

    def test_legendre_degree_one(self):
        res = sharp_constant_l2(make_weight(LEGENDRE), 1)
        assert abs(res.value - math.sqrt(3)) <= 1e-12 * math.sqrt(3)

    def test_laguerre_degree_one_by_hand(self):
        # moments 1, 1, 2: ratio b^2/(a^2+2ab+2b^2) maximized at a=-b gives 1
        res = sharp_constant_l2(make_weight({"family": "laguerre"}), 1)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_requires_positive_degree(self):
        with pytest.raises(WeightError, match=">= 1"):
            sharp_constant_l2(make_weight(HERMITE), 0)
        with pytest.raises(WeightError, match="n must be >= 1, got 0"):
            mirsky_bound(make_weight(GEN_JACOBI), 0)

    def test_monotone_in_degree(self):
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 0.7, "beta": 2.2})
        values = [sharp_constant_l2(spec, n).value for n in range(1, 10)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_weight_scale_invariance(self):
        base = {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        v1 = sharp_constant_l2(make_weight(base), 5).value
        for c in (1e-3, 1e3):
            vc = sharp_constant_l2(make_weight(dict(base, scale=c)), 5).value
            assert vc == pytest.approx(v1, rel=1e-12)

    def test_affine_covariance_jacobi(self):
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": 1.5})
        stretch, shift = 2.5, 0.7
        mapped = _affine_image(spec, stretch, shift)
        v = sharp_constant_l2(spec, 6).value
        vm = sharp_constant_l2(mapped, 6).value
        assert vm == pytest.approx(v / stretch, rel=1e-10)

    def test_affine_covariance_gen_jacobi(self):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.25, -0.4]]}
        )
        stretch, shift = 0.5, -2.0
        mapped = _affine_image(spec, stretch, shift)
        v = sharp_constant_l2(spec, 5).value
        vm = sharp_constant_l2(mapped, 5).value
        assert vm == pytest.approx(v / stretch, rel=1e-10)

    def test_matches_pencil_power_iteration_oracle(self):
        from markovsharp.orthopoly import eval_derivative_table

        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 1.1, "beta": 0.3})
        n = 7
        res = sharp_constant_l2(spec, n)
        rec, rule = basis_for(spec, n)
        stack = eval_derivative_table(rec, rule.nodes, n, order=1)
        gram = (stack[0] * rule.weights) @ stack[0].T
        stiff = (stack[1] * rule.weights) @ stack[1].T
        theta = pencil_power_iteration(stiff, gram, iters=20000, seed=2)
        assert res.value == pytest.approx(math.sqrt(theta), rel=1e-9)

    @pytest.mark.parametrize("raw", RANGE_WEIGHTS, ids=lambda raw: raw["family"])
    def test_range_equals_per_degree_bitwise(self, raw, monkeypatch):
        # degree n reads the leading block of the degree-N matrix, which is
        # exactly the degree-n one; the single degrees are run on the
        # degree-20 recurrence the range reads.  A Sobolev range
        # also reads the leading block of one factored degree-N Gram matrix,
        # whose entries round differently from the degree-n one, so lambdas > 0
        # agree to 1e-11 relative and the L2 norm bit for bit.  The residual
        # check is one zero-padded product with D_N^T per derivative order over
        # the whole range, which rounds differently from a product per degree,
        # so residual and achieved ratio agree to 1e-15
        def fields(results):
            return [(r.n, r.value, r.coeffs.tobytes()) for r in results]

        spec = make_weight(raw)
        ns = range(1, 21)
        basis = markov._kept(spec, [20])

        def degree_n(_spec, ns):
            # the degree-20 recurrence with D_n
            return basis._replace(n=max(ns), mat=markov.derivative_matrix(basis.rec, max(ns)))

        for lams in ((), (0.0,), (1.0, 0.5), (0.5, 1.0, 2.0)):
            with monkeypatch.context() as patched:
                patched.setattr(markov, "_kept", degree_n)
                if lams:
                    single = [sharp_constant_sobolev(spec, SobolevSpec(lams), n) for n in ns]
                else:
                    single = [sharp_constant_l2(spec, n) for n in ns]
            ranged = markov.sharp_constants(spec, ns, lams)
            if any(lams):
                assert [r.n for r in ranged] == list(ns)
                np.testing.assert_allclose(
                    [r.value for r in ranged], [r.value for r in single], rtol=1e-11, atol=0
                )
            else:
                assert fields(ranged) == fields(single)
                np.testing.assert_allclose(
                    [r.residual for r in ranged], [r.residual for r in single], rtol=0, atol=1e-15
                )
                np.testing.assert_allclose(
                    [r.achieved_ratio for r in ranged], [r.achieved_ratio for r in single],
                    rtol=1e-15, atol=0,
                )
            assert all(r.coeffs.flags.c_contiguous for r in ranged)

    def test_range_takes_lambdas_as_any_sequence(self):
        spec = make_weight(HERMITE)
        by_array = markov.sharp_constants(spec, [4, 6], np.array([1.0, 0.5]))
        by_tuple = markov.sharp_constants(spec, [4, 6], (1.0, 0.5))
        assert [r.value for r in by_array] == [r.value for r in by_tuple]
        assert by_array[0].lambdas == (1.0, 0.5)
        assert markov.sharp_constants(spec, [4], np.array([]))[0].lambdas == ()
        with pytest.raises(WeightError, match="lambdas must be finite and >= 0"):
            markov.sharp_constants(spec, [4], np.array([-1.0, 0.5]))

    def test_degree_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "10")
        with pytest.raises(WeightError, match="cap"):
            sharp_constant_l2(make_weight(HERMITE), 11)
        monkeypatch.delenv("MARKOVSHARP_MAX_N")
        with pytest.raises(WeightError, match="cap"):
            sharp_constant_l2(make_weight(HERMITE), 61)


class TestClosedForm:
    """Generalized weights that restate a classical one are built from its closed form."""

    TWINS = [
        (
            {"family": "gen_laguerre", "singularities": [[0.0, 0.74662]], "scale": 1.7},
            {"family": "laguerre", "alpha": 0.74662, "scale": 1.7},
        ),
        ({"family": "gen_laguerre"}, {"family": "laguerre"}),
        (
            {"family": "gen_jacobi", "interval": [-2, 1], "singularities": [[-2, 0.5], [1, 1.25]]},
            {"family": "jacobi", "interval": [-2, 1], "alpha": 1.25, "beta": 0.5},
        ),
        ({"family": "gen_jacobi", "interval": [0, 3]}, {"family": "jacobi", "interval": [0, 3]}),
    ]

    @pytest.mark.parametrize(
        "raw, twin", TWINS, ids=["laguerre_origin", "laguerre_bare", "jacobi_ends", "jacobi_bare"]
    )
    def test_equals_classical_twin(self, raw, twin, stieltjes_calls):
        spec, classical = make_weight(raw), make_weight(twin)
        assert closed_form(spec) == classical
        sob = SobolevSpec((1.0, 0.5))
        for n in (5, 32, 40):
            for got, want in (
                (sharp_constant_l2(spec, n), sharp_constant_l2(classical, n)),
                (sharp_constant_sobolev(spec, sob, n), sharp_constant_sobolev(classical, sob, n)),
            ):
                assert got.value == want.value
                np.testing.assert_array_equal(got.coeffs, want.coeffs)
        assert stieltjes_calls == []

    def test_other_weights_build_through_stieltjes(self, stieltjes_calls):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        assert closed_form(spec) is None
        rec, _ = basis_for(spec, 10)
        assert stieltjes_calls == [spec]
        assert rec.weight_id == spec.weight_id


class TestHighPrecisionOracle:
    """The accuracy the residual cannot see, pinned against a 40-digit D.

    The residual checks that a constant is a singular value of the D_n it was
    computed from; an error in D_n itself passes it.  Here D_n is rebuilt in
    40-digit mpmath from the closed-form Jacobi coefficients, and the L2
    constants must lie within 0.05 n^2 eps relative of its top singular value
    (0.030, 0.035 and 0.032 n^2 eps at n = 10, 20, 40 when this was written).
    A relative error of 1e-13 in one off-diagonal coefficient reaches
    2.3 n^2 eps or more, and one of 1e-12 in a diagonal one 0.06 n^2 eps.
    """

    def test_jacobi_l2_constants(self):
        mpmath = pytest.importorskip("mpmath")
        ns, eps = (10, 20, 40), np.finfo(float).eps
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": -0.3})
        values = sharp_constants(spec, ns)
        with mpmath.workdps(40):
            mat = jacobi_derivative_matrix_mp(0.5, -0.3, max(ns), mpmath.mp)
            refs = [top_singular_value_mp(mat, n, mpmath.mp) for n in ns]
        rel = [float(abs(res.value - ref) / ref) for res, ref in zip(values, refs)]
        assert all(r <= 0.05 * n * n * eps for n, r in zip(ns, rel)), rel


class TestExactOracle:
    """Every constant against the exact pencil of its weight, in rational arithmetic.

    The monic recurrence comes from exact moments, and the derivative
    matrix R and the Gram matrix G of the monic basis from it, all in
    Fractions (``markov_pencil_exact``); C^2 is the top eigenvalue of the
    pencil (R^T G R, G).  A value v is within tau = 0.1 n^2 eps relative
    of C when theta G - R^T G R is positive definite at theta = v^2 (1 + 2 tau)
    and not at v^2 (1 - 2 tau), each decided by an exact LDL^T (``is_pd``).
    The worst error when this was written was 0.053 n^2 eps (laguerre0,
    lambdas (1, 0.5), n = 10), and 0.045 n^2 eps the next, so 0.05 n^2 eps
    would not hold.  A relative change of 1e-13 in one closed-form
    off-diagonal coefficient, or of 1e-12 in one lambda term of B, fails it.
    """

    # the weight and its exact moments over its mass; every parameter is binary-exact
    WEIGHTS = {
        "legendre": (LEGENDRE, legendre_moments),
        "chebyshev1": ({"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5},
                       lambda count: jacobi_moments(count, -0.5, -0.5)),
        "jacobi_1_2": ({"family": "jacobi", "interval": [-1, 1], "alpha": 1.0, "beta": 2.0},
                       lambda count: jacobi_moments(count, 1, 2)),
        "laguerre0": ({"family": "laguerre"}, laguerre_moments),
        "laguerre_1.5": ({"family": "laguerre", "alpha": 1.5},
                         lambda count: laguerre_moments(count, Fraction(3, 2))),
        "hermite": ({"family": "hermite"}, lambda count: gen_hermite_moments(count, 0)),
        "gen_hermite_2": ({"family": "gen_hermite", "singularities": [[0.0, 2.0]]},
                          lambda count: gen_hermite_moments(count, 2)),
    }

    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)], ids=["l2", "sobolev"])
    @pytest.mark.parametrize("name", WEIGHTS)
    def test_values_bracket_the_exact_constant(self, name, lams):
        raw, moments = self.WEIGHTS[name]
        spec, top = make_weight(raw), 20
        k_mat, gram = markov_pencil_exact(*monic_recurrence(moments(2 * top + 2), top), lams)
        # each degree alone, and both as one range
        results = [res for ns in ([10], [20], [10, 20]) for res in sharp_constants(spec, ns, lams)]
        for res in results:
            size = res.n + 1
            tau = Fraction(res.n * res.n, 10) * Fraction(1, 2**52)  # 0.1 n^2 eps

            def shifted(theta):
                # the leading blocks of R^T G R and G are the pencil of degree n
                return [[theta * g - k for g, k in zip(g_row[:size], k_row[:size])]
                        for g_row, k_row in zip(gram[:size], k_mat[:size])]

            square = Fraction(res.value) ** 2
            assert is_pd(shifted(square * (1 + 2 * tau))), (res.n, res.value)
            assert not is_pd(shifted(square * (1 - 2 * tau))), (res.n, res.value)


PENCIL_WEIGHTS = {
    "jacobi": {"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": -0.3},
    "gen_laguerre_reducible": {"family": "gen_laguerre", "singularities": [[0.0, 0.5]]},
    "gen_jacobi": {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]},
}


class TestSobolev:
    def test_forms_reduce_to_l2_at_zero_lambdas(self):
        rec, _ = basis_for(make_weight(LEGENDRE), 4)
        mat = derivative_matrix(rec, 4)
        np.testing.assert_array_equal(sobolev_gram(mat, (0.0, 0.0)), np.eye(5))
        np.testing.assert_array_equal(sobolev_gram(mat, ()), np.eye(5))

    def test_hermite_two_by_two_assembly(self):
        rec, _ = basis_for(make_weight(HERMITE), 1)
        b = sobolev_gram(derivative_matrix(rec, 1), (1.0,))
        np.testing.assert_allclose(b, np.diag([1.0, 3.0]), rtol=1e-14)

    def test_forms_symmetric(self):
        rec, _ = basis_for(make_weight({"family": "laguerre", "alpha": 0.8}), 6)
        b = sobolev_gram(derivative_matrix(rec, 6), (0.7, 0.1))
        assert np.array_equal(b, b.T)

    def test_zero_lambdas_match_l2_value(self):
        # B = I makes every step of the reduction exact
        for raw in [
            {"family": "jacobi", "interval": [-1, 1], "alpha": 2.0, "beta": 1.0},
            {"family": "laguerre", "alpha": 0.5},
            HERMITE,
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]},
            {"family": "gen_hermite", "singularities": [[-1, 0.5], [1, 0.5]]},
        ]:
            spec = make_weight(raw)
            for n in (1, 6, 20):
                l2 = sharp_constant_l2(spec, n)
                sob = sharp_constant_sobolev(spec, SobolevSpec((0.0,)), n)
                assert sob.value == l2.value
                np.testing.assert_array_equal(sob.coeffs, l2.coeffs)

    @pytest.mark.parametrize("lambdas", [(1.0, 0.5), (2.0,), (0.5, 1.0, 2.0)])
    @pytest.mark.parametrize("name", sorted(PENCIL_WEIGHTS))
    def test_matches_scipy_pencil(self, name, lambdas):
        # sigma^2 is the top eigenvalue of the pencil (D^T B D, B), both forms
        # written out here from powers of D: at single degrees, and at every
        # degree of a range, which reads one factored degree-20 Gram matrix
        eigh = pytest.importorskip("scipy.linalg").eigh
        spec = make_weight(PENCIL_WEIGHTS[name])
        cases = []
        for n in (5, 20):
            res = sharp_constant_sobolev(spec, SobolevSpec(lambdas), n)
            cases.append((res, basis_for(spec, n)[0]))
        rec_20 = basis_for(spec, 20)[0]
        cases += [(res, rec_20) for res in markov.sharp_constants(spec, range(1, 21), lambdas)]
        for res, rec in cases:
            n = res.n
            mat = derivative_matrix(rec, n)
            gram = np.eye(n + 1)
            for j, lam in enumerate(lambdas, start=1):
                power = np.linalg.matrix_power(mat, j)
                gram += lam * power.T @ power
            stiff = mat.T @ gram @ mat
            top = eigh(stiff, gram, eigvals_only=True)[-1]
            assert res.value**2 == pytest.approx(top, rel=1e-11)
            assert res.coeffs @ gram @ res.coeffs == pytest.approx(1.0, rel=1e-11)

    def test_verify_factors_one_gram(self, monkeypatch):
        # every degree of the range reads the leading block of one L_N
        from markovsharp.bounds import verify_theorem

        calls = []
        gram, cholesky = markov.sobolev_gram, np.linalg.cholesky

        def counted_gram(mat, lambdas):
            calls.append("sobolev_gram")
            return gram(mat, lambdas)

        def counted_cholesky(a):
            calls.append("cholesky")
            return cholesky(a)

        monkeypatch.setattr(markov, "sobolev_gram", counted_gram)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        spec = make_weight(GEN_JACOBI)
        verify_theorem("gen_jacobi_4", spec, SobolevSpec((1.0, 0.5)), range(4, 41))
        assert calls == ["sobolev_gram", "cholesky"]

    def test_verify_solves_twice(self, monkeypatch):
        # one forward substitution forms L_N^T D_N L_N^-T, and one back
        # substitution with a right-hand side per degree gives every
        # coefficient vector of the range
        from markovsharp.bounds import verify_theorem

        calls = []
        solve = markov.solve_triangular

        def counted_solve(t, x, lower=False):
            calls.append(lower)
            return solve(t, x, lower)

        monkeypatch.setattr(markov, "solve_triangular", counted_solve)
        spec = make_weight(GEN_JACOBI)
        verify_theorem("gen_jacobi_4", spec, SobolevSpec((1.0, 0.5)), range(4, 41))
        assert calls == [True, False]

    def test_gram_not_positive_definite(self, monkeypatch):
        monkeypatch.setattr(markov, "sobolev_gram", lambda mat, lambdas: -np.eye(mat.shape[0]))
        with pytest.raises(EigenError, match="positive definite"):
            sharp_constant_sobolev(make_weight(HERMITE), SobolevSpec((1.0,)), 3)

    def test_hermite_closed_form(self):
        res = sharp_constant_sobolev(make_weight(HERMITE), SobolevSpec((1.0,)), 1)
        assert abs(res.value - math.sqrt(2 / 3)) <= 1e-12

    def test_monotone_decreasing_in_lambda(self):
        # hermite n=1, k=1: value^2 = 2/(1+2*lambda), decreasing in lambda
        spec = make_weight(HERMITE)
        values = [
            sharp_constant_sobolev(spec, SobolevSpec((lam,)), 1).value
            for lam in (0.0, 0.5, 1.0, 4.0)
        ]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert values[2] == pytest.approx(math.sqrt(2 / 3), rel=1e-12)

    def test_sobolev_below_l2(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            alpha, beta = rng.uniform(-0.9, 3.0, 2)
            spec = make_weight(
                {"family": "jacobi", "interval": [-1, 1], "alpha": alpha, "beta": beta}
            )
            n = int(rng.integers(1, 15))
            k = int(rng.integers(1, 4))
            sob = SobolevSpec(tuple(rng.uniform(0, 4, k)))
            v_sob = sharp_constant_sobolev(spec, sob, n).value
            v_l2 = sharp_constant_l2(spec, n).value
            assert v_sob <= v_l2 * (1 + 1e-10)

    def test_order_cap(self):
        # zero weights are dropped only after the lambdas given pass validation
        for lam in (1.0, 0.0):
            with pytest.raises(WeightError, match="cap"):
                sharp_constant_sobolev(make_weight(HERMITE), SobolevSpec((lam,) * 5), 8)
            with pytest.raises(WeightError, match="cap"):
                markov.sharp_constants(make_weight(HERMITE), [8], (lam,) * 5)

    def test_lambda_validation(self):
        # no lambdas is the weighted L2 norm, as lambdas=() is for the ranges
        sob = SobolevSpec(())
        assert sob.lambdas == ()
        for name in PRESETS:
            spec = make_weight(dict(PRESETS[name]))
            for n in range(1, 41):
                got, want = sharp_constant_sobolev(spec, sob, n), sharp_constant_l2(spec, n)
                assert got.value == want.value
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
        with pytest.raises(WeightError):
            SobolevSpec((-1.0,))

    @pytest.mark.parametrize("bad, message", [
        ("10", "lambdas must be a sequence of numbers, got '10'"),  # not (1.0, 0.0)
        ([True], "lambda is not a number: True"),  # not (1.0,)
        ((1, "2"), "lambda is not a number: '2'"),  # not (1.0, 2.0)
        (5, "lambdas must be a sequence of numbers, got 5"),  # not a bare TypeError
    ], ids=["string", "bool", "string_item", "number"])
    def test_lambdas_are_numbers(self, bad, message):
        # as make_weight takes its numbers: no bool, no string
        with pytest.raises(WeightError, match=f"^{re.escape(message)}$"):
            SobolevSpec(bad)
        with pytest.raises(WeightError, match=f"^{re.escape(message)}$"):
            sharp_constants(make_weight(HERMITE), [4], bad)


class TestLargeLambda:
    """For one lambda, S_n(lambda) -> sigma_{n-1} as lambda -> inf, and
    S_n(lambda)/sigma_{n-1} - 1 falls as 1/lambda: the norm forces the
    extremal polynomial's top coefficient to 0 at rate 1/lambda."""

    WEIGHTS = [
        LEGENDRE,
        {"family": "laguerre", "alpha": 1.5},
        {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]},
        GEN_JACOBI,
    ]

    @pytest.mark.parametrize("raw", WEIGHTS, ids=lambda raw: raw["family"])
    def test_scaled_gap_settles(self, raw):
        spec = make_weight(raw)
        ns = [5, 12, 20]
        sigma = [res.value for res in sharp_constants(spec, [n - 1 for n in ns])]
        scaled = {
            lam: [lam * (res.value / s - 1) for res, s in zip(sharp_constants(spec, ns, (lam,)), sigma)]
            for lam in (1e4, 1e6)
        }
        # 2e-4 apart at most (Laguerre, n = 5), as the 1/lambda^2 term predicts
        for n, a, b in zip(ns, scaled[1e4], scaled[1e6]):
            assert a != 0 and abs(a / b - 1) <= 1e-3, (n, a, b)


class TestZeroLambdas:
    """Trailing zero Sobolev weights add nothing, so they take the shorter path."""

    @pytest.mark.parametrize(
        "given, kept", [((0.0,), ()), ((1.0, 0.0), (1.0,)), ((0.5, 0.0, 0.0), (0.5,))]
    )
    @pytest.mark.parametrize("raw", RANGE_WEIGHTS, ids=lambda raw: raw["family"])
    def test_equal_without_trailing_zeros_bitwise(self, raw, given, kept):
        spec = make_weight(raw)
        ns = range(4, 41)
        for got, want in zip(
            markov.sharp_constants(spec, ns, given), markov.sharp_constants(spec, ns, kept)
        ):
            assert got.value == want.value
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.residual == want.residual
            assert got.achieved_ratio == want.achieved_ratio
            assert got.lambdas == given

    def test_verify_builds_no_gram_and_one_first_order_table(self, monkeypatch, outside_ladder):
        # the L2 residual reads D_N, so outside the Stieltjes ladder no Gauss
        # rule and no table of the p_k^(d) is built at all
        from markovsharp.bounds import verify_theorem

        grams, gram = [], markov.sobolev_gram

        def counted_gram(mat, lambdas):
            grams.append(lambdas)
            return gram(mat, lambdas)

        monkeypatch.setattr(markov, "sobolev_gram", counted_gram)
        spec = make_weight(GEN_JACOBI)
        verify_theorem("gen_jacobi_4", spec, SobolevSpec((0.0,)), range(4, 41))
        assert grams == []
        assert outside_ladder == {"_gauss_rules": 0, "deriv_tables": 0}
        # the counters see a rule that is built: basis_for's
        basis_for(spec, 40)
        assert outside_ladder == {"_gauss_rules": 1, "deriv_tables": 1}


class TestResidualCheck:
    """One quadrature check covers a whole range and names the degree that fails it."""

    @staticmethod
    def _patch_sigma(monkeypatch, change):
        # changes the top singular value of degree 17 alone, leaving its vector
        top = markov._top_pairs

        def patched(reduced, ns, split):
            values, vecs = top(reduced, ns, split)
            return [change(value) if n == 17 else value for n, value in zip(ns, values)], vecs

        monkeypatch.setattr(markov, "_top_pairs", patched)

    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)], ids=["l2", "sobolev"])
    def test_off_sigma_names_its_degree(self, monkeypatch, lams):
        self._patch_sigma(monkeypatch, lambda value: value * (1 + 1e-6))
        with pytest.raises(EigenError, match=r"residual 1\.0\d*e-06 at n=17 exceeds"):
            markov.sharp_constants(make_weight(GEN_JACOBI), range(4, 41), lams)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)], ids=["l2", "sobolev"])
    def test_non_finite_sigma_names_its_degree(self, monkeypatch, lams, bad):
        self._patch_sigma(monkeypatch, lambda value: bad)
        with pytest.raises(QuadratureError, match=r"constant \S+ at n=17 is not positive and finite"):
            markov.sharp_constants(make_weight(GEN_JACOBI), range(4, 41), lams)


class TestAchievedRatio:
    """The ratio read from D_N by Parseval is the ratio a Gauss rule integrates."""

    @pytest.mark.parametrize("lams", [(), (1.0, 0.5), (0.5, 1.0, 2.0)], ids=["l2", "k2", "k3"])
    @pytest.mark.parametrize("raw", RANGE_WEIGHTS, ids=lambda raw: raw["family"])
    def test_equals_the_quadrature_ratio(self, raw, lams):
        # ||P^(d)||^2 integrated on the (n+2)-point Gauss rule of the
        # recurrence, exact to degree 2n+3, from the differentiated recurrence
        # at its nodes: a path that shares no arithmetic with D_N.  The largest
        # relative gap measured is 2.2e-14, so 1e-12 leaves a margin of 45x
        from markovsharp.orthopoly import eval_derivative_table

        spec, ns = make_weight(raw), range(1, 21)
        results = sharp_constants(spec, ns, lams)
        rec = _basis(spec).rec
        for res in results:
            rule = gauss_rule(rec, res.n + 2)
            table = eval_derivative_table(rec, rule.nodes, res.n, len(lams) + 1)
            norms = [(res.coeffs @ rows) ** 2 @ rule.weights for rows in table]
            den = norms[0] + sum(lam * norms[j + 1] for j, lam in enumerate(lams))
            num = norms[1] + sum(lam * norms[j + 2] for j, lam in enumerate(lams))
            assert res.achieved_ratio == pytest.approx(math.sqrt(num / den), rel=1e-12, abs=0)


SYMMETRIC_WEIGHTS = {
    "legendre": LEGENDRE,
    "chebyshev1": {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5},
    "hermite": HERMITE,
    "gen_hermite_2": {"family": "gen_hermite", "alpha": 2.0},
    "gen_jacobi": GEN_JACOBI,
    "jacobi_0_3": {"family": "jacobi", "interval": [0, 3], "alpha": 1.5, "beta": 1.5},
    # 0.1 + 0.2 != 0.3 in floats: a mirror pair found only to a few ulps of b - a
    "gen_jacobi_rounded": {
        "family": "gen_jacobi", "interval": [0, 0.3], "singularities": [[0.1, 0.5], [0.2, 0.5]]
    },
}


class TestParitySplit:
    """A symmetric weight's degree n solves only the parity block that grew from n - 1."""

    @pytest.mark.parametrize(
        "raw, symmetric",
        [
            (HERMITE, True),
            ({"family": "jacobi", "interval": [0, 3]}, True),
            ({"family": "gen_jacobi", "interval": [0, 3]}, True),
            ({"family": "gen_jacobi", "interval": [-1, 2], "singularities": [[-1, 0.5], [2, 0.5]]},
             True),
            (GEN_JACOBI, True),
            ({"family": "gen_hermite", "alpha": 2.0}, True),
            ({"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]}, True),
            ({"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.6]]}, False),
            ({"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.5, 0.5]]}, False),
            ({"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.1, 0.5]]}, False),
            ({"family": "jacobi", "interval": [-1, 1], "alpha": 1.0, "beta": 2.0}, False),
            ({"family": "laguerre"}, False),
            ({"family": "gen_laguerre", "singularities": [[0.0, 0.5]]}, False),
            ({"family": "gen_laguerre", "singularities": [[1.0, 0.5]]}, False),
            # 0.1 + 0.2 != 0.3: a mirror pair found to 4 ulps of b - a
            ({"family": "gen_jacobi", "interval": [0, 0.3],
              "singularities": [[0.1, 0.5], [0.2, 0.5]]}, True),
            # beyond 4 ulps of b - a: a shifted mirror, and sums rounded at 1e6
            ({"family": "gen_jacobi", "interval": [0, 0.3],
              "singularities": [[0.1, 0.5], [0.2 + 1e-12, 0.5]]}, False),
            ({"family": "gen_jacobi", "interval": [1e6, 1e6 + 0.3],
              "singularities": [[1e6 + 0.1, 0.5], [1e6 + 0.2, 0.5]]}, False),
        ],
    )
    def test_symmetry_of_the_weight(self, raw, symmetric):
        assert markov._symmetric(make_weight(raw)) is symmetric

    @pytest.mark.parametrize("raw, twin", TestClosedForm.TWINS)
    def test_twins_agree(self, raw, twin):
        assert markov._symmetric(make_weight(raw)) == markov._symmetric(make_weight(twin))

    def test_parity_is_decided_once_per_basis(self, monkeypatch):
        # the kept basis holds the parity, so a range on it asks for it no more;
        # a gen_hermite twin restates a classical weight on every ask
        calls, symmetric = [0], markov._symmetric

        def counted(spec):
            calls[0] += 1
            return symmetric(spec)

        monkeypatch.setattr(markov, "_symmetric", counted)
        spec = make_weight({"family": "gen_hermite", "singularities": [[0.0, 2.0]]})
        markov.sharp_constants(spec, range(1, 11))
        built = calls[0]
        markov.sharp_constants(spec, range(1, 11), (1.0, 0.5))
        assert calls[0] == built

    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)], ids=["l2", "sobolev"])
    @pytest.mark.parametrize("name", SYMMETRIC_WEIGHTS)
    def test_values_are_the_full_blocks_top(self, name, lams):
        # the residual check passes the top pair of either block, so the block
        # choice is checked against the SVD of each degree's whole leading
        # block of M_N = L_N^T D_N L_N^-T, formed as sharp_constants forms it
        spec = make_weight(SYMMETRIC_WEIGHTS[name])
        assert markov._symmetric(spec)
        ns = range(1, 41)
        results = markov.sharp_constants(spec, ns, lams)
        mat = derivative_matrix(basis_for(spec, 40)[0], 40)
        reduced = mat
        if lams:
            chol = np.linalg.cholesky(sobolev_gram(mat, lams))
            reduced = chol.T @ markov.solve_triangular(chol, mat.T, lower=True).T
        full = [np.linalg.svd(reduced[: n + 1, : n + 1], compute_uv=False)[0] for n in ns]
        np.testing.assert_allclose([r.value for r in results], full, rtol=1e-14, atol=0)
        if name == "legendre" and not lams:
            # <p_i, p_k'> = sqrt((2i+1)(2k+1)) for k > i with k - i odd
            i, k = np.indices((41, 41))
            odd = (k > i) & ((k - i) % 2 == 1)
            closed = np.where(odd, np.sqrt((2 * i + 1) * (2 * k + 1)), 0.0)
            exact = [np.linalg.svd(closed[: n + 1, : n + 1], compute_uv=False)[0] for n in ns]
            np.testing.assert_allclose([r.value for r in results], exact, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "case, raw, solves",
        [
            ("jacobi_3", LEGENDRE, 38),
            ("gen_jacobi_4", GEN_JACOBI, 38),
            ("gen_hermite_6", {"family": "gen_hermite", "singularities": [[0.0, 1.0]]}, 38),
            ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": 1.0, "beta": 2.0}, 37),
            ("gen_laguerre_52", RANGE_WEIGHTS[5], 37),
        ],
    )
    def test_verify_eigensolves(self, monkeypatch, case, raw, solves):
        # degree 4 solves both blocks, every later degree the one that grew
        from markovsharp.bounds import verify_theorem

        shapes = []
        eigh = np.linalg.eigh

        def counted(gram):
            shapes.append(gram.shape)
            return eigh(gram)

        # markov solves each block's Gram matrix with np.linalg.eigh; the
        # rule and node solves of the basis use eigvalsh
        monkeypatch.setattr(markov.np.linalg, "eigh", counted)
        spec = make_weight(raw)
        verify_theorem(case, spec, SobolevSpec((1.0, 0.5)), range(4, 41))
        assert len(shapes) == solves
        if markov._symmetric(spec):
            assert max(max(shape) for shape in shapes) == 21


def _per_block_pairs(reduced, ns, split):
    """The per-degree loop the range pass replaced: the top eigenpair of each
    block's Gram matrix, signed by _fix_sign, max over the blocks ending in
    (n, n - 1), the vector placed in zeros."""

    def block(c):
        if split:
            return slice(1 - c % 2, c, 2), slice(c % 2, c + 1, 2)
        return slice(c + 1), slice(c + 1)

    values, vecs = [], np.zeros((len(ns), reduced.shape[1]))
    pairs = {}
    for row, n in enumerate(ns):
        ends = (n, n - 1) if split else (n,)
        for c in ends:
            if c not in pairs:
                m = np.ascontiguousarray(reduced[block(c)])
                vals, eig = np.linalg.eigh(m.T @ m)
                pairs[c] = (float(np.sqrt(max(vals[-1], 0.0))),
                            markov._fix_sign(eig[None, :, -1], True)[0])
        c = max(ends, key=lambda end: pairs[end][0])
        value, vecs[row, block(c)[1]] = pairs[c]
        values.append(value)
    return values, vecs


def _per_block_constants(spec, ns, lams):
    """Values and coefficient vectors of sharp_constants, one block and one row at a time."""
    mat = markov._kept(spec, ns).mat
    reduced = mat
    if lams:
        chol = np.linalg.cholesky(sobolev_gram(mat, lams))
        reduced = chol.T @ markov.solve_triangular(chol, mat.T, lower=True).T
    values, vecs = _per_block_pairs(reduced, ns, markov._symmetric(spec))
    coeffs = [vecs[row, : n + 1] for row, n in enumerate(ns)]
    if lams:
        solved = markov.solve_triangular(chol.T, vecs.T).T
        for row, n in enumerate(ns):
            c, v = solved[row, : n + 1], vecs[row, : n + 1]
            coeffs[row] = markov._fix_sign(np.where(c == 0.0, np.copysign(0.0, v), c)[None],
                                           True)[0]
    return values, coeffs


class TestRangePass:
    """The whole-range pass gives the bytes of the per-block loop it replaced."""

    @pytest.mark.parametrize("lams, ns", [
        pytest.param((), range(1, 41), id="l2"),
        pytest.param((1.0, 0.5), range(1, 41), id="sobolev"),
        # unsorted, with a repeat and with degree 1's empty parity block: the
        # order the pairs are kept in and the tie rule
        pytest.param((), [9, 2, 40, 2, 17, 1], id="l2-unsorted"),
        pytest.param((1.0, 0.5), [9, 2, 40, 2, 17, 1], id="sobolev-unsorted"),
    ])
    @pytest.mark.parametrize(
        "raw",
        [raw for _, raw in CASE5_MATRIX] + list(SYMMETRIC_WEIGHTS.values()),
        ids=[f"{case}-{i}" for i, (case, _) in enumerate(CASE5_MATRIX)] + list(SYMMETRIC_WEIGHTS),
    )
    def test_equals_per_block_loop(self, monkeypatch, raw, lams, ns):
        # values and coefficient bytes, signed zeros included
        spec = make_weight(raw)

        def check():
            results = markov.sharp_constants(spec, ns, lams)
            values, coeffs = _per_block_constants(spec, ns, lams)
            assert [r.value for r in results] == values
            assert [r.coeffs.tobytes() for r in results] == [c.tobytes() for c in coeffs]

        check()
        if lams:
            # a negated back substitution (the same coefficients up to their
            # sign) makes the last sign rule flip every row, so its place after
            # the "-0.0 keeps its sign" step is checked too
            solve = markov.solve_triangular
            monkeypatch.setattr(markov, "solve_triangular",
                                lambda t, x, lower=False: solve(t, x, lower) * (1 if lower else -1))
            check()

    def test_ties_go_to_the_block_ending_in_n(self):
        # the blocks ending in 2 (rows {1}, columns {0, 2}) and in 1 (rows
        # {0}, columns {1}) both have singular value 1
        reduced = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        values, vecs = markov._top_pairs(reduced, [1, 2], split=True)
        ref_values, ref_vecs = _per_block_pairs(reduced, [1, 2], split=True)
        assert values == ref_values == [1.0, 1.0]
        assert vecs.tobytes() == ref_vecs.tobytes()
        assert vecs[1].tolist() == [0.0, 0.0, 1.0]


# One measure, two paths: a generalized factor with exponent 0 leaves the
# classical measure unchanged, but closed_form does not recognise the twin, so
# it is built by composite rules, the discretized Stieltjes procedure and the
# level check, while the classical weight reads its closed-form recurrence.
CLOSED_FORM_TWINS = {
    "legendre": (LEGENDRE,
                 {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.3, 0]]}),
    "jacobi_1_2": ({"family": "jacobi", "interval": [-1, 1], "alpha": 1.0, "beta": 2.0},
                   {"family": "gen_jacobi", "interval": [-1, 1],
                    "singularities": [[-1, 2], [0.1, 0], [1, 1]]}),
    "laguerre_0.5": ({"family": "laguerre", "alpha": 0.5},
                     {"family": "gen_laguerre", "singularities": [[0, 0.5], [1.5, 0]]}),
    "laguerre_0": ({"family": "laguerre", "alpha": 0.0},
                   {"family": "gen_laguerre", "singularities": [[2, 0]]}),
    "hermite": (HERMITE, {"family": "gen_hermite", "singularities": [[-1, 0], [1, 0]]}),
    "gen_hermite_1": ({"family": "gen_hermite", "alpha": 1.0},
                      {"family": "gen_hermite", "singularities": [[0, 1], [0.7, 0]]}),
}


class TestTwinPaths:
    """A classical weight and its generalized twin give the same constants for n = 1..60.

    The largest relative gaps measured are 1.8e-14 in L2 (Legendre) and
    1.1e-13 with lambda = (1, 0.5) (laguerre(0)), so the tolerances leave
    margins of 5.5x and 4.7x.
    """

    @pytest.mark.parametrize("lams, tol", [((), 1e-13), ((1.0, 0.5), 5e-13)],
                             ids=["l2", "sobolev"])
    @pytest.mark.parametrize("classical, twin", CLOSED_FORM_TWINS.values(),
                             ids=CLOSED_FORM_TWINS)
    def test_values_agree(self, classical, twin, lams, tol):
        spec, gen = make_weight(classical), make_weight(twin)
        assert closed_form(spec) is not None and closed_form(gen) is None
        ns = range(1, 61)
        want = [r.value for r in sharp_constants(spec, ns, lams)]
        got = [r.value for r in sharp_constants(gen, ns, lams)]
        np.testing.assert_allclose(got, want, rtol=tol, atol=0)

    @pytest.mark.parametrize("lams, tol", [((), 3e-13), ((1.0, 0.5), 1e-12)],
                             ids=["l2", "sobolev"])
    @pytest.mark.parametrize("classical, twin", CLOSED_FORM_TWINS.values(),
                             ids=CLOSED_FORM_TWINS)
    def test_values_agree_under_raised_cap(self, monkeypatch, classical, twin, lams, tol):
        """The same comparison for n = 1..110, with the degree cap raised.

        n = 114 is the last degree at which the generalized Laguerre and
        Hermite twins still build their basis: at 115 the level-1 tail rule
        has 188 points and its Christoffel sum overflows.  The largest
        relative gaps measured are 1.1e-13 in L2 and 3.4e-13 with
        lambda = (1, 0.5), both on Legendre, so the tolerances leave margins
        of 2.8x and 2.9x.  This is the regression harness for work that lifts
        the degree ceiling.
        """
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "110")
        ns = range(1, 111)
        want = [r.value for r in sharp_constants(make_weight(classical), ns, lams)]
        got = [r.value for r in sharp_constants(make_weight(twin), ns, lams)]
        np.testing.assert_allclose(got, want, rtol=tol, atol=0)

    def test_legendre_twin_crosses_the_parity_split(self):
        # the twin's factor at 0.3 has no mirror, so it takes the whole-block
        # path while Legendre solves its parity blocks
        classical, twin = CLOSED_FORM_TWINS["legendre"]
        assert markov._symmetric(make_weight(classical))
        assert not markov._symmetric(make_weight(twin))


def _hermite_shift_weight(lams, k):
    """sqrt(2k B_{k-1} / B_k), B_k = 1 + sum_j lambda_j 2^j k!/(k-j)!.

    B_k and the ratio are exact; only the square root rounds.
    """

    def gram(k):
        return 1 + sum(Fraction(lam) * 2**j * math.perm(k, j) for j, lam in enumerate(lams, 1))

    return math.sqrt(Fraction(2 * k) * gram(k - 1) / gram(k))


def _hermite_sobolev(lams, n):
    """max_{1<=k<=n} of ``_hermite_shift_weight``."""
    return max(_hermite_shift_weight(lams, k) for k in range(1, n + 1))


class TestHermiteSobolevClosedForm:
    """Hermite's D is the weighted shift p_k' = sqrt(2k) p_{k-1}.

    So B is diagonal and L^T D L^-T is a weighted shift too, whose largest
    singular value is its largest weight.  The largest relative error
    measured for n = 1..60 is 6.8e-16; the tolerance leaves a margin of 14x.
    """

    NS = range(1, 61)

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 0.5), (0.3, 2.0, 0.1)])
    def test_every_degree(self, lams):
        values = [r.value for r in sharp_constants(make_weight(HERMITE), self.NS, lams)]
        want = [_hermite_sobolev(lams, n) for n in self.NS]
        np.testing.assert_allclose(values, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 0.5), (0.3, 2.0, 0.1)])
    def test_every_degree_under_raised_cap(self, monkeypatch, lams):
        """The same check for n = 1..300, with the degree cap raised.

        No constant reads a Gauss rule, so the Christoffel-sum overflow of
        the 391-point Hermite rule at n = 389 limits only ``basis_for``.
        The largest relative error measured is
        1.8e-15, with lambda = (1, 0.5), so the tolerance leaves a margin of
        5.6x.  This is the regression harness for work that lifts the degree
        ceiling.
        """
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "300")
        ns = range(1, 301)
        values = [r.value for r in sharp_constants(make_weight(HERMITE), ns, lams)]
        want = itertools.accumulate((_hermite_shift_weight(lams, k) for k in ns), max)
        np.testing.assert_allclose(values, list(want), rtol=1e-14, atol=0)

    def test_one_lambda(self):
        # with B_k = 1 + 2 lambda k the weights grow with k, so S_n is the last one
        lam = 1.0
        values = [r.value for r in sharp_constants(make_weight(HERMITE), self.NS, (lam,))]
        want = [math.sqrt(2 * n - 2 + 2 / (1 + 2 * lam * n)) for n in self.NS]
        np.testing.assert_allclose(values, want, rtol=1e-14, atol=0)


class TestBasisTable:
    """basis_for keeps the last recurrence it built for each weight, by its weight_id."""

    def test_repeat_returns_the_same_objects(self, stieltjes_calls):
        # the recurrence is kept; the rule is built anew on each call, with the same bytes
        for raw in (LEGENDRE, GEN_JACOBI):
            spec = make_weight(raw)
            rec, rule = basis_for(spec, 12)
            again = basis_for(spec, 12)
            assert again[0] is rec and again[0] is _basis(spec).rec
            assert again[1].nodes.tobytes() == rule.nodes.tobytes()
            assert again[1].weights.tobytes() == rule.weights.tobytes()
        assert len(stieltjes_calls) == 1

    def test_other_degree_or_weight_builds_anew(self, stieltjes_calls):
        spec = make_weight(GEN_JACOBI)
        other = make_weight({**GEN_JACOBI, "scale": 2.0})
        first = basis_for(spec, 12)
        # a basis of a larger degree has another recurrence, so it never serves degree 12
        bigger, scaled = basis_for(spec, 13), basis_for(other, 12)
        assert stieltjes_calls == [spec, spec, other]
        assert bigger[0] is not first[0] and scaled[0] is not first[0]
        assert scaled[0].weight_id == other.weight_id

    def test_keeps_one_degree_per_weight(self, stieltjes_calls):
        spec = make_weight(GEN_JACOBI)
        basis_for(spec, 12)
        basis_for(spec, 13)
        basis_for(spec, 12)
        assert stieltjes_calls == [spec, spec, spec]
        assert len(_bases()) == 1

    def test_outlives_the_weight(self, stieltjes_calls):
        spec = make_weight(GEN_JACOBI)
        rec = basis_for(spec, 12)[0]
        # an equal weight shares the recurrence, and so does one made after
        # every earlier weight object is gone
        assert basis_for(make_weight(GEN_JACOBI), 12)[0] is rec
        del spec
        assert basis_for(make_weight(GEN_JACOBI), 12)[0] is rec
        assert _bases() == [rec.weight_id] and len(stieltjes_calls) == 1

    def test_cached_degree_past_lowered_cap_raises(self, monkeypatch):
        spec = make_weight(HERMITE)
        basis_for(spec, 20)
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "10")
        with pytest.raises(WeightError, match="degree cap 10"):
            basis_for(spec, 20)

    def test_recurrence_for_builds_no_rule(self, monkeypatch):
        # the kept recurrence basis_for returns, without its Gauss rule
        spec, built = make_weight(LEGENDRE), []
        with monkeypatch.context() as patched:
            patched.setattr(quadrature, "_gauss_rules", built.append)
            rec = markov.recurrence_for(spec, 12)
        assert built == [] and rec.n_max == 13
        assert basis_for(spec, 12)[0] is rec

    def test_kept_arrays_are_read_only(self):
        # no caller can change what a later call for the weight reads
        spec = make_weight({"family": "laguerre", "alpha": 0.0})
        value = sharp_constant_l2(spec, 5).value
        for weight in (spec, make_weight(GEN_JACOBI)):
            basis = markov._kept(weight, [5])
            for array in (basis.rec.diag, basis.rec.offdiag, basis.mat):
                assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                basis.mat[0, 1] *= 2.0
        assert sharp_constant_l2(spec, 5).value == value
        # so is every reference rule the store keeps beside the bases
        rules = [kept for key, (kept, _) in quadrature._STORE.items() if not isinstance(key, str)]
        assert rules and not any(a.flags.writeable for rule in rules for a in rule)


class TestInputChecks:
    # each input check that no other test reaches, with the class and text it raises
    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: sharp_constants(make_weight(HERMITE), []),
                     "need at least one degree", id="no-degree"),
        pytest.param(lambda: derivative_matrix(recurrence_classical(make_weight(HERMITE), 3), -1),
                     "n must be >= 0", id="matrix-degree"),
        pytest.param(lambda: derivative_matrix(recurrence_classical(make_weight(HERMITE), 3), 4),
                     "recurrence table too short: n=4 > n_max=3", id="matrix-table"),
        pytest.param(lambda: extremal_polynomial(sharp_constant_l2(make_weight(HERMITE), 3),
                                                 recurrence_classical(make_weight(HERMITE), 3)),
                     "recurrence table too short: need n_max >= 4", id="extremal-table"),
    ])
    def test_message(self, build, message):
        with pytest.raises(WeightError) as exc:
            build()
        assert type(exc.value) is WeightError and str(exc.value) == message

    # a degree is an integer: a float or a string is not truncated or compared, a bool is not 1
    @pytest.mark.parametrize("n", [5.0, 5.5, True, "5", np.float64(3)],
                             ids=["float", "fraction", "bool", "str", "np-float"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda n: sharp_constant_l2(make_weight(HERMITE), n), id="l2-hermite"),
        pytest.param(lambda n: sharp_constant_l2(make_weight(GEN_JACOBI), n), id="l2-gen_jacobi"),
        pytest.param(lambda n: mirsky_bound(make_weight(HERMITE), n), id="mirsky"),
        pytest.param(lambda n: basis_for(make_weight(LEGENDRE), n), id="basis"),
    ])
    def test_degree_not_an_integer(self, call, n):
        self.test_message(lambda: call(n), f"degree {n!r} is not an integer")

    @pytest.mark.parametrize("weight", [HERMITE, GEN_JACOBI], ids=["hermite", "gen_jacobi"])
    def test_numpy_integer_degree(self, weight):
        got = sharp_constant_l2(make_weight(weight), np.int64(5))
        want = sharp_constant_l2(make_weight(weight), 5)
        assert got.n == 5 and got.value == want.value
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert mirsky_bound(make_weight(weight), np.int64(5)) == mirsky_bound(make_weight(weight), 5)

    @pytest.mark.parametrize("weight", [HERMITE, GEN_JACOBI], ids=["hermite", "gen_jacobi"])
    def test_results_carry_python_int_degrees(self, weight):
        # numpy integers are read once as Python ints, which JSON writes
        spec = make_weight(weight)
        for got, want in (
            ([sharp_constant_l2(spec, np.int32(4))], [sharp_constant_l2(spec, 4)]),
            (sharp_constants(spec, [np.int64(5)]), sharp_constants(spec, [5])),
            (sharp_constants(spec, np.arange(1, 6)), sharp_constants(spec, range(1, 6))),
        ):
            assert len(got) == len(want)
            for res, ref in zip(got, want):
                assert type(res.n) is int and json.dumps(res.n) == str(ref.n)
                assert res.value == ref.value
                assert res.coeffs.tobytes() == ref.coeffs.tobytes()


class TestBasisStore:
    """The process keeps each weight's basis by its weight_id in its one store,
    beside the reference rules, least recently used out first, within
    quadrature.KEPT_BYTES; a kept entry changes what a call costs, never what
    it returns."""

    # a Stieltjes weight and a classical one, each made afresh from its JSON
    VERIFY_JOBS = [("gen_jacobi_4", GEN_JACOBI),
                   ("jacobi_3", {**LEGENDRE, "alpha": 1.0, "beta": 2.0})]

    @pytest.mark.parametrize("case, raw", VERIFY_JOBS, ids=[case for case, _ in VERIFY_JOBS])
    def test_a_weight_made_afresh_reads_the_kept_entry(self, monkeypatch, case, raw,
                                                       stieltjes_calls):
        # a benchmark's or a service's pattern: each job makes its weight from JSON
        from markovsharp import verify_theorem

        built = []
        real = markov.derivative_matrix
        monkeypatch.setattr(markov, "derivative_matrix",
                            lambda rec, n: built.append(n) or real(rec, n))
        ns = range(4, 41)
        sobolev = verify_theorem(case, make_weight(raw), SobolevSpec((1.0, 0.5)), ns)
        kept = _basis(make_weight(raw))
        l2 = verify_theorem(case, make_weight(raw), SobolevSpec((0.0,)), ns)
        assert _basis(make_weight(raw)) is kept and len(_bases()) == 1
        assert built == [40]
        assert len(stieltjes_calls) == (closed_form(make_weight(raw)) is None)
        # the same values as a cold store gives each job
        for lams, check in (((1.0, 0.5), sobolev), ((0.0,), l2)):
            _clear_bases()
            cold = verify_theorem(case, make_weight(raw), SobolevSpec(lams), ns)
            assert cold.sharp_values == check.sharp_values

    def test_results_independent_of_the_store(self, empty_store):
        # values, coefficient bytes, residuals, achieved ratios and Mirsky
        # bounds from an empty store, and from one that every other weight,
        # and this weight at another degree, filled first
        ns, lams = range(1, 31), [(), (1.0, 0.5)]

        def fields(raw):
            spec = make_weight(raw)
            return ([_fields(sharp_constants(spec, ns, lam)) for lam in lams],
                    markov.mirsky_bounds(spec, ns))

        cold = []
        for raw in RANGE_WEIGHTS:
            _refill(empty_store)
            cold.append(fields(raw))
        _refill(empty_store)
        for raw in RANGE_WEIGHTS:
            basis_for(make_weight(raw), 12)
            fields(raw)
        warm = [fields(raw) for raw in RANGE_WEIGHTS]
        assert warm == cold
        assert len(_bases()) == len(RANGE_WEIGHTS) < len(empty_store)

    def test_signed_zero_weights_keep_their_own_basis(self):
        # equal WeightSpecs, distinct weight_ids: each reads a recurrence of its own id
        a = make_weight({"family": "jacobi", "alpha": 0.0, "beta": 1})
        b = make_weight({"family": "jacobi", "alpha": -0.0, "beta": 1})
        assert a == b and a.weight_id != b.weight_id
        rec_a, _ = basis_for(a, 7)
        rec_b, _ = basis_for(b, 7)
        assert (rec_a.weight_id, rec_b.weight_id) == (a.weight_id, b.weight_id)
        res = sharp_constant_l2(b, 7)
        assert extremal_polynomial(res, rec_b).achieved_ratio == res.achieved_ratio
        assert res.value == sharp_constant_l2(a, 7).value

    def test_the_newest_entry_is_kept_alone_past_the_bound(self, monkeypatch, empty_store):
        # a Stieltjes basis puts its reference rules first, so the basis is the newest
        monkeypatch.setattr(quadrature, "KEPT_BYTES", 1)
        for raw in RANGE_WEIGHTS:
            spec = make_weight(raw)
            sharp_constants(spec, range(4, 21))
            (kept,) = (value for value, _ in empty_store.values())
            assert list(empty_store) == [spec.weight_id]
            assert quadrature._STORE_BYTES == _nbytes(kept) > quadrature.KEPT_BYTES

    def test_least_recently_used_leave_first(self, monkeypatch, empty_store):
        specs = [make_weight(raw) for raw in RANGE_WEIGHTS[:4]]
        size = _nbytes(markov._kept(specs[0], [12]))
        _clear_bases()
        monkeypatch.setattr(quadrature, "KEPT_BYTES", 3 * size)
        a, b, c, d = specs
        for spec in (a, b, c, a):  # the last reads a's entry, which makes it the newest
            basis_for(spec, 12)
        basis_for(d, 12)
        assert list(empty_store) == [c.weight_id, a.weight_id, d.weight_id]
        # another degree replaces the weight's entry, and the total follows it
        basis_for(c, 13)
        assert list(empty_store) == [d.weight_id, c.weight_id]
        assert quadrature._STORE_BYTES == sum(_nbytes(v) for v, _ in empty_store.values())
        assert quadrature._STORE_BYTES <= quadrature.KEPT_BYTES

    def test_reference_rules_read_between_bases_outlive_them(self, monkeypatch, empty_store):
        # one order for both kinds: the rules a Stieltjes ladder reads again
        # become newer than the bases put before the read, so the bases leave first
        rules_of = make_weight({"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]})
        quadrature.composite_rules(rules_of, 41, (0, 1))
        rules = list(empty_store)
        assert rules and all(isinstance(key, tuple) for key in rules)
        a, b, c, d = (make_weight(raw) for raw in RANGE_WEIGHTS[:4])
        basis_for(a, 12)
        basis_for(b, 12)
        quadrature.composite_rules(rules_of, 41, (0, 1))  # reads every rule again
        assert list(empty_store) == [a.weight_id, b.weight_id] + rules
        # two more bases of the same size push out exactly the two older ones
        monkeypatch.setattr(quadrature, "KEPT_BYTES", quadrature._STORE_BYTES)
        basis_for(c, 12)
        basis_for(d, 12)
        assert list(empty_store) == rules + [c.weight_id, d.weight_id]

    def test_the_running_total_is_the_bytes_kept(self, monkeypatch, empty_store):
        # bases and reference rules, each entry with the bytes of its own
        # arrays, and a total that follows every put, replacement and eviction
        def own_bytes(value):
            if isinstance(value, markov._Basis):
                return _nbytes(value)
            nodes, weights = value
            return nodes.nbytes + weights.nbytes

        def check():
            assert all(nbytes == own_bytes(value) for value, nbytes in empty_store.values())
            assert quadrature._STORE_BYTES == sum(nbytes for _, nbytes in empty_store.values())

        for raw in RANGE_WEIGHTS:
            sharp_constants(make_weight(raw), range(4, 21))
            check()
        assert {type(key) for key in empty_store} == {str, tuple}
        for n in (21, 12):  # replacements of every basis, by a larger and a smaller one
            for raw in RANGE_WEIGHTS:
                basis_for(make_weight(raw), n)
                check()
        monkeypatch.setattr(quadrature, "KEPT_BYTES", quadrature._STORE_BYTES // 3)
        for raw in RANGE_WEIGHTS:
            basis_for(make_weight(raw), 20)
            check()
        assert quadrature._STORE_BYTES <= quadrature.KEPT_BYTES

    def test_the_store_stays_within_its_bound(self, empty_store):
        # 400 weights at N = 40 need more than the 4 MB kept: the newest stay
        specs = [make_weight({**HERMITE, "scale": 1.0 + k / 64}) for k in range(400)]
        for spec in specs:
            markov.mirsky_bounds(spec, [40])
        ids = [spec.weight_id for spec in specs]
        kept = len(empty_store)
        assert 200 < kept < 400 and list(empty_store) == ids[-kept:]
        assert quadrature._STORE_BYTES == sum(_nbytes(v) for v, _ in empty_store.values())
        assert quadrature.KEPT_BYTES - _nbytes(_basis(specs[-1])) \
            < quadrature._STORE_BYTES <= quadrature.KEPT_BYTES

    def test_concurrent_calls_share_the_store(self, monkeypatch, empty_store):
        """Threads that compute ranges at once, with a store small enough to
        evict on almost every call, get each weight's bytes and leave the
        store in bound with its byte total exact."""
        import os
        import sys
        import threading

        raws = RANGE_WEIGHTS
        want = [_fields(sharp_constants(make_weight(raw), range(4, 25))) for raw in raws]
        size = max(_nbytes(_basis(make_weight(raw))) for raw in raws)
        _refill(empty_store)
        monkeypatch.setattr(quadrature, "KEPT_BYTES", 2 * size)
        failures, done = [], []

        def compute(first):
            try:
                for i in range(3 * len(raws)):
                    k = (first + i) % len(raws)
                    if _fields(sharp_constants(make_weight(raws[k]), range(4, 25))) != want[k]:
                        failures.append(k)
                done.append(first)
            except Exception as exc:  # reported below, with the thread that raised it
                failures.append(exc)

        count = min(32, 2 * (os.cpu_count() or 1) + 2)  # more threads than cores
        threads = [threading.Thread(target=compute, args=(t,)) for t in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == [] and len(done) == count
        assert 0 < len(_bases()) <= 2
        assert quadrature._STORE_BYTES == sum(nbytes for _, nbytes in empty_store.values())
        assert quadrature._STORE_BYTES <= quadrature.KEPT_BYTES or len(empty_store) == 1


def _fields(results):
    return [(r.value, r.coeffs.tobytes(), r.residual, r.achieved_ratio) for r in results]


FUSED_WEIGHTS = [{"family": "jacobi", "alpha": 1.0, "beta": 2.0}, {"family": "laguerre"}, HERMITE]
# gen_jacobi, gen_laguerre and gen_hermite weights with no closed form
STIELTJES_WEIGHTS = RANGE_WEIGHTS[4:]


class TestFusedBasis:
    """One kept basis, a recurrence and D_N, serves every range, and basis_for's rule.

    No basis keeps a Gauss rule or a table of the p_k^(d): the residual reads
    D_N by Parseval, and ``basis_for`` builds the Christoffel rule of the kept
    recurrence when it is called.
    """

    @pytest.mark.parametrize("raw", FUSED_WEIGHTS + STIELTJES_WEIGHTS,
                             ids=lambda raw: raw["family"])
    def test_rule_matches_the_christoffel_rule(self, raw):
        # the (n+2)-point Gauss rule of the kept recurrence, which integrates
        # p_j p_k, j, k <= n+1, exactly: measured within 5.4e-14 of the
        # identity (gen_hermite, n = 60), so 1e-12 leaves a margin of 18x
        from markovsharp.orthopoly import eval_orthonormal
        from markovsharp.quadrature import _gauss_rules

        spec = make_weight(raw)
        for n in (1, 7, 40, 60):
            rec, rule = basis_for(spec, n)
            assert rec is _basis(spec).rec
            m = n + 2
            ((nodes, weights),) = _gauss_rules([(rec.diag[:m], rec.offdiag[: m - 1], rec.mass)])
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()
            table = eval_orthonormal(rec, rule.nodes, n + 1)
            gram = (table * rule.weights) @ table.T
            np.testing.assert_allclose(gram, np.eye(m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("raw", FUSED_WEIGHTS + STIELTJES_WEIGHTS,
                             ids=lambda raw: raw["family"])
    def test_table_rows_equal_eval_derivative_table(self, raw):
        # Parseval holds because column k of D^d holds the coefficients of
        # p_k^(d): the table that D_N gives from the values of the p_i matches
        # the differentiated recurrence at every order the residual reads,
        # within 1e-13 of each row's largest entry (6.6e-15 measured, n = 30)
        from markovsharp.orthopoly import eval_derivative_table

        spec, n = make_weight(raw), 30
        rec, rule = basis_for(spec, n)
        mat = _basis(spec).mat
        want = eval_derivative_table(rec, rule.nodes, n, markov.MAX_SOBOLEV_ORDER + 1)
        got = want[0]
        for d in range(1, markov.MAX_SOBOLEV_ORDER + 2):
            got = mat.T @ got
            scale = np.max(np.abs(want[d]))
            np.testing.assert_allclose(got, want[d], rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("raw", FUSED_WEIGHTS, ids=lambda raw: raw["family"])
    def test_sobolev_after_l2_equals_a_fresh_build(self, raw):
        # the L2 range builds the basis, and the Sobolev range after it reads it
        spec, ns, lams = make_weight(raw), range(4, 41), (1.0, 0.5)
        sharp_constants(spec, ns)
        after_l2 = sharp_constants(spec, ns, lams)
        _clear_bases()
        assert _fields(after_l2) == _fields(sharp_constants(spec, ns, lams))

    @pytest.mark.parametrize("raw", FUSED_WEIGHTS + [GEN_JACOBI], ids=lambda raw: raw["family"])
    def test_l2_after_sobolev_reads_the_kept_table(self, raw):
        # a sweep's order: the L2 range after the Sobolev one reads the same
        # kept recurrence table and D_N, Stieltjes bases included, and builds nothing
        spec, ns = make_weight(raw), range(4, 41)
        sharp_constants(spec, ns, (1.0, 0.5))
        kept = _basis(spec)
        after_sobolev = sharp_constants(spec, ns)
        assert _basis(spec) is kept
        _clear_bases()
        assert _fields(after_sobolev) == _fields(sharp_constants(spec, ns))

    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)])
    @pytest.mark.parametrize("raw", FUSED_WEIGHTS + STIELTJES_WEIGHTS,
                             ids=lambda raw: raw["family"])
    def test_one_pass_per_range(self, raw, lams, outside_ladder):
        # a range builds its basis and checks every degree on D_N: outside the
        # Stieltjes ladder it builds no Gauss rule and runs no table kernel,
        # and a classical basis runs them nowhere
        spec = make_weight(raw)
        sharp_constants(spec, range(4, 41), lams)
        assert outside_ladder == {"_gauss_rules": 0, "deriv_tables": 0}
        # the counters see a rule that is built: basis_for's
        basis_for(spec, 40)
        assert outside_ladder == {"_gauss_rules": 1, "deriv_tables": 1}


class TestMirsky:
    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)])
    @pytest.mark.parametrize("raw", FUSED_WEIGHTS + [GEN_JACOBI], ids=lambda raw: raw["family"])
    def test_range_after_mirsky_equals_a_fresh_range(self, raw, lams):
        # Mirsky keeps the basis, and the range after it reads that same basis
        spec, ns = make_weight(raw), range(4, 41)
        markov.mirsky_bounds(spec, ns)
        rec = _basis(spec).rec
        after_mirsky = sharp_constants(spec, ns, lams)
        assert _basis(spec).rec is rec
        _clear_bases()
        assert _fields(after_mirsky) == _fields(sharp_constants(spec, ns, lams))

    def test_hermite_closed_form(self):
        spec = make_weight(HERMITE)
        for n in (1, 2, 10, 40):
            want = math.sqrt(n * (n + 1) * (2 * n + 1) / 3)
            assert mirsky_bound(spec, n) == pytest.approx(want, rel=1e-10)

    def test_classical_builds_no_rule(self, monkeypatch):
        # D needs the recurrence alone, so Mirsky reaches past the degree where
        # the Gauss rule's Christoffel sum overflows
        from markovsharp import quadrature

        def no_rule(*args):
            raise AssertionError("a Gauss rule was built")

        monkeypatch.setenv("MARKOVSHARP_MAX_N", "500")
        monkeypatch.setattr(quadrature, "_jacobi_nodes", no_rule)
        ns = [4, 60, 200]
        got = markov.mirsky_bounds(make_weight({"family": "laguerre"}), ns)
        # ||p_nu'||^2 = nu for Laguerre alpha = 0
        want = [math.sqrt(n * (n + 1) * (2 * n + 1) / 6) for n in ns]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        # the basis of the largest degree is kept, a recurrence and D_200 alone
        (key,) = _bases()
        kept = quadrature._STORE[key][0]
        assert kept.n == 200 and kept.rec.n_max == 201 and kept.mat.shape == (201, 201)

    def test_classical_checks_the_mass(self):
        with pytest.raises(QuadratureError, match="mass 1.772e-320"):
            markov.mirsky_bounds(make_weight({"family": "hermite", "scale": 1e-320}), [5])

    def test_tight_at_degree_one(self):
        spec = make_weight(HERMITE)
        assert mirsky_bound(spec, 1) == pytest.approx(math.sqrt(2), rel=1e-12)
        assert mirsky_bound(spec, 1) == pytest.approx(
            sharp_constant_l2(spec, 1).value, rel=1e-12
        )

    def test_dominates_sharp_value(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            alpha, beta = rng.uniform(-0.9, 3.0, 2)
            spec = make_weight(
                {"family": "jacobi", "interval": [-1, 1], "alpha": alpha, "beta": beta}
            )
            n = int(rng.integers(1, 12))
            assert mirsky_bound(spec, n) >= sharp_constant_l2(spec, n).value


class TestExtremal:
    def test_hermite_top_basis_vector(self):
        spec = make_weight(HERMITE)
        res = sharp_constant_l2(spec, 2)
        np.testing.assert_allclose(res.coeffs, [0.0, 0.0, 1.0], atol=1e-12)
        rec, _ = basis_for(spec, 2)
        poly = extremal_polynomial(res, rec)
        assert poly.achieved_ratio == pytest.approx(2.0, rel=1e-12)

    def test_legendre_degree_one_is_pure_x(self):
        res = sharp_constant_l2(make_weight(LEGENDRE), 1)
        np.testing.assert_allclose(res.coeffs, [0.0, 1.0], atol=1e-12)

    def test_achieved_ratio_matches_value(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            alpha = rng.uniform(-0.5, 2.0)
            spec = make_weight({"family": "laguerre", "alpha": alpha})
            n = int(rng.integers(2, 10))
            res = sharp_constant_l2(spec, n)
            rec, _ = basis_for(spec, n)
            poly = extremal_polynomial(res, rec)
            assert res.residual <= 1e-8
            # the evaluator's ratio is the residual check's own computation
            assert poly.achieved_ratio == res.achieved_ratio

    def test_report_builds_no_rule(self, monkeypatch):
        # every Gauss rule takes its nodes from eigvalsh; the evaluator reuses the result's
        spec = make_weight(LEGENDRE)
        res = sharp_constant_sobolev(spec, SobolevSpec((1.0, 0.5)), 9)
        rec, _ = basis_for(spec, 9)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        poly = extremal_polynomial(res, rec)
        assert calls == []
        assert poly.achieved_ratio == res.achieved_ratio

    def test_table_of_another_weight_rejected(self):
        # a Legendre result read with a Hermite table would evaluate the wrong polynomial
        res = sharp_constant_l2(make_weight(LEGENDRE), 4)
        rec, _ = basis_for(make_weight(HERMITE), 4)
        with pytest.raises(WeightError, match="another weight"):
            extremal_polynomial(res, rec)

    def test_evaluator_matches_basis_expansion(self):
        from markovsharp import eval_orthonormal

        spec = make_weight(LEGENDRE)
        res = sharp_constant_l2(spec, 3)
        rec, _ = basis_for(spec, 3)
        poly = extremal_polynomial(res, rec)
        x = np.linspace(-1, 1, 7)
        want = res.coeffs @ eval_orthonormal(rec, x, 3)
        np.testing.assert_allclose(poly(x), want, rtol=1e-14)

    def test_sobolev_extremal_report(self):
        spec = make_weight(HERMITE)
        res = sharp_constant_sobolev(spec, SobolevSpec((1.0,)), 1)
        rec, _ = basis_for(spec, 1)
        poly = extremal_polynomial(res, rec)
        assert poly.achieved_ratio == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        assert res.residual <= 1e-8
        assert poly.achieved_ratio == res.achieved_ratio


def test_gauss_rule_from_generalized_recurrence():
    # rules built from a Stieltjes table integrate against that weight
    spec = make_weight(
        {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
    )
    rec, _ = basis_for(spec, 6)
    rule = gauss_rule(rec, 7)
    assert np.sum(rule.weights) == pytest.approx(4 / 3, rel=1e-12)
    got = float(np.dot(rule.weights, rule.nodes**2))
    assert got == pytest.approx(4 / 7, rel=1e-12)


def test_classical_recurrence_available_beyond_cap():
    # internal rule building needs long tables; the cap guards sharp-constant entry points
    rec = recurrence_classical(make_weight(HERMITE), 200)
    assert rec.n_max == 200


class TestFixSign:
    def test_last_entry_of_size_made_positive(self):
        # the last entry is below the 1e-12 relative threshold, so the one before it decides
        rows = np.array([[0.0, 2.0, -1.0], [3.0, -1.0, 1e-13], [1.0, 2.0, 3.0]])
        got = _fix_sign(rows, True)
        np.testing.assert_array_equal(got, [[-0.0, -2.0, 1.0], [-3.0, 1.0, -1e-13], rows[2]])

    def test_padding_keeps_positive_zero(self):
        # only the solved entries change sign; the padding stays +0.0, never -0.0
        rows = np.array([[1.0, 0.0, -2.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
        solved = np.array([[True, True, True, False], [True, True, False, False]])
        got = _fix_sign(rows, solved)
        np.testing.assert_array_equal(got, [[-1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert not np.signbit(got[:, -1]).any()
        assert not np.signbit(got[1, 2:]).any()

    def test_zero_row_kept(self):
        rows = np.array([[0.0, -0.0, 0.0], [0.0, -1.0, 0.0]])
        got = _fix_sign(rows, True)
        assert got[0].tobytes() == rows[0].tobytes()
        np.testing.assert_array_equal(got[1], [-0.0, 1.0, -0.0])


class TestSolveTriangular:
    def test_substitution_keeps_the_zeros(self):
        # a strictly lower right-hand side has a strictly lower solution, with
        # exact zeros, whose leading block is the leading block's solution
        rng = np.random.default_rng(11)
        low = np.tril(rng.standard_normal((9, 9)), -1) + np.diag(rng.uniform(1.0, 2.0, 9))
        rhs = np.tril(rng.standard_normal((9, 9)), -1)
        y = solve_triangular(low, rhs, lower=True)
        np.testing.assert_allclose(low @ y, rhs, rtol=0, atol=1e-13)
        assert np.all(np.triu(y) == 0.0)
        lead = solve_triangular(low[:4, :4], rhs[:4, :4], lower=True)
        np.testing.assert_allclose(lead, y[:4, :4], rtol=0, atol=1e-14)

    def test_upper_system(self):
        rng = np.random.default_rng(13)
        up = np.triu(rng.standard_normal((7, 7)), 1) + np.diag(rng.uniform(1.0, 2.0, 7))
        rhs = rng.standard_normal(7)
        np.testing.assert_allclose(up @ solve_triangular(up, rhs), rhs, rtol=0, atol=1e-13)
