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
from markovsharp.orthopoly import _jacobi_coefficients
from markovsharp.quadrature import _gammaincc, _gauss_rules, _truncation_radius

from oracles import gauss_jacobi_point_mp

# (m, alpha, beta): every exponent pair from {-0.6, 0, 2.5} at each size
PIECE_CASES = [
    (m, al, be) for m in (5, 60, 286) for al in (-0.6, 0.0, 2.5) for be in (-0.6, 0.0, 2.5)
]


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


class TestPieceRules:
    """The Gauss-Jacobi rules composite_rule builds, all in one padded stack."""

    @pytest.fixture(scope="class")
    def stack(self):
        return _gauss_rules([_jacobi_coefficients(al, be, m - 1) for m, al, be in PIECE_CASES])

    def test_nodes_match_scipy(self, stack):
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        nodes, _ = stack
        for row, (m, al, be) in enumerate(PIECE_CASES):
            want, _ = roots_jacobi(m, al, be)
            np.testing.assert_allclose(nodes[row, :m], want, rtol=0, atol=1e-13)

    def test_weights_match_scipy_at_low_order(self, stack):
        # scipy's own weights lose digits with m: against the 30-digit
        # reference they are off by up to 2e-11 at m=60 and 3e-9 at m=286
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        _, weights = stack
        for row, (m, al, be) in enumerate(PIECE_CASES):
            if m == 5:
                _, want = roots_jacobi(m, al, be)
                np.testing.assert_allclose(weights[row, :m], want, rtol=1e-13)

    def test_weights_match_mpmath(self, stack):
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = stack
        with mpmath.workdps(40):
            for row, (m, al, be) in enumerate(PIECE_CASES):
                for j in sorted({0, 1, m // 2, m - 2, m - 1}):
                    x, w = gauss_jacobi_point_mp(m, al, be, nodes[row, j], mpmath.mp)
                    assert abs(nodes[row, j] - float(x)) <= 1e-15
                    # a node error of one ulp moves an end weight by ~m^2 ulp
                    assert abs(weights[row, j] / float(w) - 1) <= 1e-15 * m * m, (m, al, be, j)


class TestIncompleteGamma:
    def test_matches_scipy(self):
        gammaincc = pytest.importorskip("scipy.special").gammaincc
        for a in np.linspace(1.0, 140.0, 70):
            for x in np.geomspace(0.5, 3e4, 120):
                want = gammaincc(a, x)
                got = _gammaincc(a, x)
                if want < 1e-300:  # underflow, subnormal or zero
                    assert got < 1e-290
                else:
                    # a ln x - x - ln Gamma(a) rounds to ~1e3 ulp at most
                    assert abs(got - want) <= 1e-12 * want, (a, x, got, want)

    def test_radii_equal_scipy_radii(self, monkeypatch):
        import markovsharp.quadrature as quad

        gammaincc = pytest.importorskip("scipy.special").gammaincc
        specs = [
            make_weight(raw)
            for raw in (
                {"family": "gen_hermite", "alpha": 0.0},
                {"family": "gen_hermite", "alpha": 2.0},
                {"family": "gen_laguerre", "singularities": [[2.0, 1.0]]},
                {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]},
                {"family": "gen_hermite", "singularities": [[0.0, 1.0]]},
                {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]},
            )
        ]
        degrees = [2 * n + 1 for n in range(4, 62)]
        got = [_truncation_radius(spec, d) for spec in specs for d in degrees]
        monkeypatch.setattr(quad, "_gammaincc", lambda a, x: float(gammaincc(a, x)))
        want = [_truncation_radius(spec, d) for spec in specs for d in degrees]
        assert got == want


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

