import math

import numpy as np
import pytest

from markovsharp import (
    composite_rule,
    gauss_rule,
    integrate,
    make_weight,
    recurrence_classical,
)
from markovsharp.errors import WeightError
from markovsharp.quadrature import _truncation_radius


def _rule(raw, m, table_len=None):
    spec = make_weight(raw)
    rec = recurrence_classical(spec, table_len or m)
    return gauss_rule(rec, m)


class TestGaussRule:
    def test_legendre_one_point_is_midpoint(self):
        rule = _rule({"family": "jacobi", "interval": [-1, 1]}, 1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-16)
        np.testing.assert_allclose(rule.weights, [2.0], rtol=1e-15)

    def test_legendre_two_point(self):
        rule = _rule({"family": "jacobi", "interval": [-1, 1]}, 2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_hermite_two_point(self):
        rule = _rule({"family": "hermite"}, 2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-15)
        np.testing.assert_allclose(
            rule.weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-14
        )

    def test_laguerre_high_order_weights_stay_positive(self):
        rule = _rule({"family": "laguerre"}, 60)
        assert np.all(rule.weights > 0)
        assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("m", [3, 8, 17])
    def test_exactness_against_denser_reference(self, m):
        rng = np.random.default_rng(m)
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 0.3, "beta": 1.2})
        rec = recurrence_classical(spec, 4 * m)
        rule = gauss_rule(rec, m)
        ref = gauss_rule(rec, 4 * m)
        for _ in range(25):
            coeffs = rng.standard_normal(2 * m)  # degree 2m-1
            got = integrate(rule, lambda x: np.polyval(coeffs, x))
            want = integrate(ref, lambda x: np.polyval(coeffs, x))
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_nodes_inside_interval_weights_sum_to_mass(self):
        for raw in (
            {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": 2.0},
            {"family": "laguerre", "alpha": 0.2},
            {"family": "hermite"},
        ):
            spec = make_weight(raw)
            rec = recurrence_classical(spec, 14)
            rule = gauss_rule(rec, 14)
            a, b = spec.interval
            assert np.all(rule.nodes > a) and np.all(rule.nodes < b)
            assert np.all(rule.weights > 0)
            assert np.sum(rule.weights) == pytest.approx(rec.mass, rel=1e-10)


class TestCompositeRule:
    def test_abs_sqrt_weight_moment(self):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        rule = composite_rule(spec, 5)
        assert integrate(rule, lambda x: x**2) == pytest.approx(4 / 7, rel=1e-12)
        assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(4 / 3, rel=1e-12)

    def test_gen_hermite_squared_factor_mass(self):
        spec = make_weight({"family": "gen_hermite", "alpha": 2.0})
        rule = composite_rule(spec, 2)
        assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-12
        )

    def test_classical_family_rejected(self):
        with pytest.raises(WeightError, match="generalized"):
            composite_rule(make_weight({"family": "hermite"}), 4)

    def test_nodes_contained_and_positive(self):
        spec = make_weight(
            {
                "family": "gen_laguerre",
                "singularities": [[-0.5, 2.0], [1.0, -0.5], [3.0, 1.0]],
            }
        )
        rule = composite_rule(spec, 13)
        assert np.all(rule.weights > 0)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_scale_multiplies_mass(self):
        base = {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.2, -0.3]]}
        m0 = integrate(composite_rule(make_weight(base), 3), lambda x: np.ones_like(x))
        m1 = integrate(
            composite_rule(make_weight(dict(base, scale=7.0)), 3), lambda x: np.ones_like(x)
        )
        assert m1 == pytest.approx(7.0 * m0, rel=1e-14)

    def test_truncation_radius_certified(self, monkeypatch):
        import markovsharp.quadrature as quad

        spec = make_weight({"family": "gen_hermite", "singularities": [[1.0, 1.0]]})
        mass = integrate(composite_rule(spec, 11), lambda x: np.ones_like(x))
        r0 = _truncation_radius(spec, 11)
        monkeypatch.setattr(quad, "_truncation_radius", lambda s, d: 2.0 * r0)
        mass_doubled = integrate(composite_rule(spec, 11), lambda x: np.ones_like(x))
        assert abs(mass_doubled - mass) <= 1e-13 * abs(mass)

    def test_refine_changes_little(self):
        spec = make_weight(
            {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]}
        )
        coarse = composite_rule(spec, 15)
        fine = composite_rule(spec, 15, refine=2)
        f = lambda x: x**3 - 2 * x + 1
        assert integrate(coarse, f) == pytest.approx(integrate(fine, f), rel=1e-12)


class TestIntegrate:
    def test_constant_gives_mass(self):
        rule = _rule({"family": "hermite"}, 6)
        assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(
            math.sqrt(math.pi), rel=1e-14
        )

    def test_odd_function_on_symmetric_weight(self):
        rule = _rule({"family": "hermite"}, 9)
        assert abs(integrate(rule, lambda x: x)) <= 1e-12

    def test_orthonormal_square_integrates_to_one(self):
        from markovsharp import eval_orthonormal

        spec = make_weight({"family": "jacobi", "interval": [-1, 1]})
        rec = recurrence_classical(spec, 4)
        rule = gauss_rule(rec, 4)
        val = integrate(rule, lambda x: eval_orthonormal(rec, x, 3)[3] ** 2)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_scalar_only_callable_supported(self):
        rule = _rule({"family": "jacobi", "interval": [-1, 1]}, 3)
        val = integrate(rule, lambda x: float(x) ** 2)
        assert val == pytest.approx(2 / 3, rel=1e-14)

