import math

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
    sobolev_gram,
)
from markovsharp import markov
from markovsharp.markov import basis_for
from markovsharp.orthopoly import closed_form

from oracles import derivative_matrix_by_quadrature, pencil_power_iteration

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
        # degree n reads the leading blocks of the degree-N matrix and table,
        # which are exactly the degree-n ones; the single degrees are run on
        # the degree-20 basis the range builds.  A Sobolev range also reads
        # the leading block of one factored degree-N Gram matrix, whose
        # entries round differently from the degree-n one, so lambdas > 0
        # agree to 1e-11 relative and the L2 norm bit for bit.  The residual
        # check is one zero-padded product per derivative order over the
        # whole range, which rounds differently from a product per degree,
        # so residual and achieved ratio agree to 1e-15
        def fields(results):
            return [(r.n, r.value, r.coeffs.tobytes()) for r in results]

        spec = make_weight(raw)
        ns = range(1, 21)
        basis = basis_for(spec, 20)
        for lams in ((), (0.0,), (1.0, 0.5), (0.5, 1.0, 2.0)):
            with monkeypatch.context() as patched:
                patched.setattr(markov, "basis_for", lambda _spec, _n: basis)
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
        with pytest.raises(WeightError):
            SobolevSpec(())
        with pytest.raises(WeightError):
            SobolevSpec((-1.0,))


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

    def test_verify_builds_no_gram_and_one_first_order_table(self, monkeypatch):
        from markovsharp.bounds import verify_theorem

        grams, orders = [], []
        gram, table = markov.sobolev_gram, markov.eval_derivative_table

        def counted_gram(mat, lambdas):
            grams.append(lambdas)
            return gram(mat, lambdas)

        def counted_table(rec, x, n, order):
            orders.append(order)
            return table(rec, x, n, order)

        monkeypatch.setattr(markov, "sobolev_gram", counted_gram)
        monkeypatch.setattr(markov, "eval_derivative_table", counted_table)
        spec = make_weight(GEN_JACOBI)
        verify_theorem("gen_jacobi_4", spec, SobolevSpec((0.0,)), range(4, 41))
        assert grams == []
        assert orders == [1]


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
        with pytest.raises(QuadratureError, match=r"residual 1\.0\d*e-06 at n=17 exceeds"):
            markov.sharp_constants(make_weight(GEN_JACOBI), range(4, 41), lams)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("lams", [(), (1.0, 0.5)], ids=["l2", "sobolev"])
    def test_non_finite_sigma_names_its_degree(self, monkeypatch, lams, bad):
        self._patch_sigma(monkeypatch, lambda value: bad)
        with pytest.raises(QuadratureError, match=r"constant \S+ at n=17 is not positive and finite"):
            markov.sharp_constants(make_weight(GEN_JACOBI), range(4, 41), lams)


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
        top = markov.svd_largest

        def counted(m):
            shapes.append(m.shape)
            return top(m)

        monkeypatch.setattr(markov, "svd_largest", counted)
        spec = make_weight(raw)
        verify_theorem(case, spec, SobolevSpec((1.0, 0.5)), range(4, 41))
        assert len(shapes) == solves
        if markov._symmetric(spec):
            assert max(max(shape) for shape in shapes) == 21


class TestBasisTable:
    """basis_for keeps the last pair it built for a weight while the weight lives."""

    def test_repeat_returns_the_same_objects(self, stieltjes_calls):
        for raw in (LEGENDRE, GEN_JACOBI):
            spec = make_weight(raw)
            rec, rule = basis_for(spec, 12)
            again = basis_for(spec, 12)
            assert again[0] is rec and again[1] is rule
        assert len(stieltjes_calls) == 1

    def test_other_degree_or_weight_builds_anew(self, stieltjes_calls):
        spec = make_weight(GEN_JACOBI)
        other = make_weight({**GEN_JACOBI, "scale": 2.0})
        first = basis_for(spec, 12)
        # a basis of a larger degree has another rule, so it never serves degree 12
        bigger, scaled = basis_for(spec, 13), basis_for(other, 12)
        assert stieltjes_calls == [spec, spec, other]
        assert bigger[1] is not first[1] and scaled[1] is not first[1]
        assert scaled[0].weight_id == other.weight_id

    def test_keeps_one_degree_per_weight(self, stieltjes_calls):
        spec = make_weight(GEN_JACOBI)
        basis_for(spec, 12)
        basis_for(spec, 13)
        basis_for(spec, 12)
        assert stieltjes_calls == [spec, spec, spec]
        assert len(markov._BASES) == 1

    def test_nothing_outlives_the_weight(self):
        spec = make_weight(GEN_JACOBI)
        first = basis_for(spec, 12)
        # an equal weight shares the pair while one of them is alive
        assert basis_for(make_weight(GEN_JACOBI), 12)[1] is first[1]
        del spec, first
        assert len(markov._BASES) == 0

    def test_cached_degree_past_lowered_cap_raises(self, monkeypatch):
        spec = make_weight(HERMITE)
        basis_for(spec, 20)
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "10")
        with pytest.raises(WeightError, match="degree cap 10"):
            basis_for(spec, 20)


class TestMirsky:
    def test_hermite_closed_form(self):
        spec = make_weight(HERMITE)
        for n in (1, 2, 10, 40):
            want = math.sqrt(n * (n + 1) * (2 * n + 1) / 3)
            assert mirsky_bound(spec, n) == pytest.approx(want, rel=1e-10)

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
