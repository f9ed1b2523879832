import math

import numpy as np
import pytest

from markovsharp import (
    composite_rule,
    gauss_rule,
    make_weight,
    recurrence_classical,
)
from markovsharp.errors import QuadratureError, WeightError
from markovsharp.orthopoly import _jacobi_coefficients
from markovsharp.quadrature import _gauss_rules

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
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-13)

    def test_lost_weight_names_its_cause(self):
        # sum_k p_k(x)^2 overflows at the outer nodes of a large Laguerre rule
        rec = recurrence_classical(make_weight({"family": "laguerre"}), 260)
        with pytest.raises(QuadratureError, match="overflows"):
            gauss_rule(rec, 260)
        # a recurrence that is not finite is not reported as an overflow
        with pytest.raises(QuadratureError, match="not finite"):
            _gauss_rules([(np.zeros(2), np.ones(1), math.nan)])
        # nor is a subnormal mass, whose p_0 = 1/sqrt(mass) is finite but p_0^2 is not
        for family in ("hermite", "laguerre"):
            rec = recurrence_classical(make_weight({"family": family, "scale": 1e-320}), 7)
            with pytest.raises(QuadratureError, match="mass .* or its reciprocal is not finite"):
                gauss_rule(rec, 7)

    @pytest.mark.parametrize("m", [3, 8, 17])
    def test_exactness_against_denser_reference(self, m):
        rng = np.random.default_rng(m)
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": 0.3, "beta": 1.2})
        rec = recurrence_classical(spec, 4 * m)
        rule = gauss_rule(rec, m)
        ref = gauss_rule(rec, 4 * m)
        for _ in range(25):
            coeffs = rng.standard_normal(2 * m)  # degree 2m-1
            got = np.dot(rule.weights, np.polyval(coeffs, rule.nodes))
            want = np.dot(ref.weights, np.polyval(coeffs, ref.nodes))
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
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(4 / 7, rel=1e-12)
        assert np.sum(rule.weights) == pytest.approx(4 / 3, rel=1e-12)

    def test_gen_hermite_squared_factor_mass(self):
        spec = make_weight({"family": "gen_hermite", "alpha": 2.0})
        rule = composite_rule(spec, 2)
        assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

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
        m0 = np.sum(composite_rule(make_weight(base), 3).weights)
        m1 = np.sum(composite_rule(make_weight(dict(base, scale=7.0)), 3).weights)
        assert m1 == pytest.approx(7.0 * m0, rel=1e-14)

    def test_tail_gap_certified(self, monkeypatch):
        # the tail rules, not the gap where they start, carry the weight beyond it
        import markovsharp.quadrature as quad

        spec = make_weight({"family": "gen_hermite", "singularities": [[1.0, 1.0]]})
        mass = np.sum(composite_rule(spec, 11).weights)
        monkeypatch.setattr(quad, "TAIL_GAP", 2.0 * quad.TAIL_GAP)
        mass_doubled = np.sum(composite_rule(spec, 11).weights)
        assert abs(mass_doubled - mass) <= 1e-13 * abs(mass)

    def test_refine_changes_little(self):
        spec = make_weight(
            {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]}
        )
        sqrt_abs = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        coarse = composite_rule(spec, 15)
        f = lambda x: x**3 - 2 * x + 1
        for refine in (1, 2, 3):
            fine = composite_rule(spec, 15, refine=refine)
            want = np.dot(fine.weights, f(fine.nodes))
            assert np.dot(coarse.weights, f(coarse.nodes)) == pytest.approx(want, rel=1e-12)
            # closed-form moments of |x|^(1/2) on [-1, 1]
            rule = composite_rule(sqrt_abs, 5, refine=refine)
            assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(4 / 7, rel=1e-12)
            assert np.sum(rule.weights) == pytest.approx(4 / 3, rel=1e-12)


class TestReferenceRules:
    """composite_rule takes its [-1, 1] Gauss-Jacobi rules from a table its caller owns."""

    SPEC = {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]}

    @pytest.fixture
    def solved(self, monkeypatch):
        """Record (level, size, entries) of every Jacobi matrix eigvalsh solves,
        level being the refinement of the composite rule built."""
        import markovsharp.quadrature as quad

        log, level = [], [None]
        eigvalsh, build = np.linalg.eigvalsh, quad.composite_rule

        def recording_eigvalsh(a):
            for mat in np.reshape(a, (-1,) + np.shape(a)[-2:]):
                entries = mat.diagonal().tobytes() + mat.diagonal(-1).tobytes()
                log.append((level[0], mat.shape[0], entries))
            return eigvalsh(a)

        def tagged_build(spec, degree, refine=0, rules=None):
            level[0] = refine
            return build(spec, degree, refine, rules)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(quad, "composite_rule", tagged_build)
        return log

    def test_each_rule_solved_once(self, solved):
        import markovsharp.quadrature as quad
        from markovsharp.markov import basis_for
        from markovsharp.orthopoly import stabilized_stieltjes

        spec = make_weight(self.SPEC)
        stabilized_stieltjes(spec, 41)
        # level 0 builds level 1's rules in its own batch
        assert {lvl for lvl, _, _ in solved} == {0}
        distinct = {entries for _, _, entries in solved}
        assert len(distinct) == len(solved)  # no matrix solved twice, at any level
        first = sorted(solved)
        # refinement splits pieces and keeps their node counts
        solved.clear()
        quad.composite_rule(spec, 83, refine=2)
        assert max(m for _, m, _ in solved) <= max(m for _, m, _ in first)
        # the same stabilized_stieltjes(spec, 41) build solves the same matrices
        # again: no rule outlives the build, so its cost does not depend on it
        solved.clear()
        basis_for(spec, 40)
        assert sorted(solved) == first

    def test_results_independent_of_table(self):
        from markovsharp.quadrature import _reference_rules

        spec = make_weight(self.SPEC)
        first = composite_rule(spec, 31, refine=1)
        table = {}
        again = composite_rule(spec, 31, refine=1, rules=table)
        keys = list(table)
        assert keys
        # a table holding other rules and some of this rule's: the rest are built together
        held = {key: table[key] for key in keys[::2]}
        _reference_rules([(0.25 + 1e-3 * i, 0.0, 5) for i in range(10)], held)
        mixed = composite_rule(spec, 31, refine=1, rules=held)
        assert set(keys) <= set(held)
        for rule in (again, mixed):
            assert rule.nodes.tobytes() == first.nodes.tobytes()
            assert rule.weights.tobytes() == first.weights.tobytes()


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


class TestIntegrate:
    """Integrals as the weights' dot product with the integrand at the nodes."""

    def test_constant_gives_mass(self):
        rule = _rule({"family": "hermite"}, 6)
        assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_odd_function_on_symmetric_weight(self):
        rule = _rule({"family": "hermite"}, 9)
        assert abs(np.dot(rule.weights, rule.nodes)) <= 1e-12

    def test_orthonormal_square_integrates_to_one(self):
        from markovsharp import eval_orthonormal

        spec = make_weight({"family": "jacobi", "interval": [-1, 1]})
        rec = recurrence_classical(spec, 4)
        rule = gauss_rule(rec, 4)
        val = np.dot(rule.weights, eval_orthonormal(rec, rule.nodes, 3)[3] ** 2)
        assert val == pytest.approx(1.0, rel=1e-12)

