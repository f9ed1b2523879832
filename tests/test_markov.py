import json
import math

import numpy as np
import pytest

from markovsharp import (
    SobolevSpec,
    WeightError,
    derivative_matrix,
    extremal_polynomial,
    gauss_rule,
    make_weight,
    mirsky_bound,
    recurrence_classical,
    result_to_json,
    sharp_constant_l2,
    sharp_constant_sobolev,
    sobolev_forms,
)
from markovsharp.markov import basis_for
from markovsharp.orthopoly import closed_form

from oracles import derivative_matrix_by_quadrature, pencil_power_iteration

LEGENDRE = {"family": "jacobi", "interval": [-1, 1]}
HERMITE = {"family": "hermite"}


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

    def test_given_basis_must_cover_degree_and_weight(self):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        basis = basis_for(spec, 8)
        assert sharp_constant_l2(spec, 8, basis).value == sharp_constant_l2(spec, 8).value
        with pytest.raises(WeightError, match="basis does not cover"):
            sharp_constant_l2(spec, 9, basis)
        with pytest.raises(WeightError, match="basis does not cover"):
            mirsky_bound(make_weight(HERMITE), 4, basis)

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

    @pytest.fixture
    def stieltjes_calls(self, monkeypatch):
        import markovsharp.markov as markov

        calls = []
        real = markov.stabilized_stieltjes

        def counted(spec, n):
            calls.append(spec)
            return real(spec, n)

        monkeypatch.setattr(markov, "stabilized_stieltjes", counted)
        return calls

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


class TestSobolev:
    def test_forms_reduce_to_l2_at_zero_lambdas(self):
        rec, _ = basis_for(make_weight(LEGENDRE), 4)
        mat = derivative_matrix(rec, 4)
        a, b = sobolev_forms(mat, SobolevSpec((0.0, 0.0)))
        np.testing.assert_allclose(a, mat.T @ mat, atol=1e-14)
        np.testing.assert_array_equal(b, np.eye(5))

    def test_hermite_two_by_two_assembly(self):
        rec, _ = basis_for(make_weight(HERMITE), 1)
        a, b = sobolev_forms(derivative_matrix(rec, 1), SobolevSpec((1.0,)))
        np.testing.assert_allclose(a, np.diag([0.0, 2.0]), atol=1e-14)
        np.testing.assert_allclose(b, np.diag([1.0, 3.0]), rtol=1e-14)

    def test_forms_symmetric(self):
        rec, _ = basis_for(make_weight({"family": "laguerre", "alpha": 0.8}), 6)
        a, b = sobolev_forms(derivative_matrix(rec, 6), SobolevSpec((0.7, 0.1)))
        assert np.array_equal(a, a.T) and np.array_equal(b, b.T)

    def test_zero_lambdas_match_l2_value(self):
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 2.0, "beta": 1.0})
        v_l2 = sharp_constant_l2(spec, 6).value
        v_sob = sharp_constant_sobolev(spec, SobolevSpec((0.0,)), 6).value
        assert v_sob == pytest.approx(v_l2, rel=1e-10)

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
        with pytest.raises(WeightError, match="cap"):
            sharp_constant_sobolev(make_weight(HERMITE), SobolevSpec((1.0,) * 5), 8)

    def test_lambda_validation(self):
        with pytest.raises(WeightError):
            SobolevSpec(())
        with pytest.raises(WeightError):
            SobolevSpec((-1.0,))


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
            assert poly.residual <= 1e-8

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
        assert poly.report["achieved_ratio"] == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        assert poly.residual <= 1e-8


def test_result_serialization_schema():
    res = sharp_constant_sobolev(make_weight(HERMITE), SobolevSpec((1.0, 0.5)), 3)
    payload = result_to_json(res)
    assert set(payload) == {"n", "value", "coeffs", "residual", "weight", "lambdas"}
    assert payload["lambdas"] == [1.0, 0.5]
    assert len(payload["coeffs"]) == 4
    json.dumps(payload)  # round-trippable


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
