import math

import numpy as np
import pytest

from markovsharp import (
    HypothesisError,
    SobolevSpec,
    WeightError,
    gauss_rule,
    gen_hermite_exponent,
    gen_laguerre_exponent,
    growth_fit,
    lupas_constant,
    lupas_growth_exponent,
    make_weight,
    recurrence_classical,
    sharp_constant_l2,
    verify_theorem,
)
from markovsharp.bounds import (
    CASE_IDS,
    default_case,
    predicted_envelope,
)
from markovsharp.orthopoly import eval_orthonormal


class TestGenHermiteExponent:
    def test_no_singularities(self):
        rep = gen_hermite_exponent([])
        assert rep.pair_max == 2.0 and rep.exponent == 2.0
        assert rep.pair_terms == (2.0,)

    def test_single_unit_exponent(self):
        rep = gen_hermite_exponent([1.0])
        assert rep.pair_terms == (4.0, 4.0)
        assert rep.pair_max == 4.0
        assert rep.exponent == 2.5

    def test_mixed_pair(self):
        rep = gen_hermite_exponent([-0.4, 3.0])
        assert rep.pair_terms == (2.0, 8.0, 8.0)
        assert rep.pair_max == 8.0
        assert rep.exponent == 4.5

    def test_hypothesis_failures(self):
        with pytest.raises(HypothesisError, match="> -1"):
            gen_hermite_exponent([-1.0])
        with pytest.raises(HypothesisError, match=">= 0"):
            gen_hermite_exponent([-0.5])
        with pytest.raises(HypothesisError, match="-1/2"):
            gen_hermite_exponent([-0.6, -0.6, 1.4])

    def test_exponent_never_below_two(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gs = rng.uniform(-0.45, 2.0, rng.integers(1, 4))
            gs = np.abs(gs) if gs.sum() < 0 else gs
            rep = gen_hermite_exponent(list(gs))
            assert rep.exponent >= 2.0


class TestGenLaguerreExponent:
    def test_trivial_single(self):
        rep = gen_laguerre_exponent([0.0], [1.0])
        assert rep.pair_max == 2.0 and rep.exponent == 2.0

    def test_negative_location_excluded(self):
        rep = gen_laguerre_exponent([5.0, 1.0], [-1.0, 2.0])
        assert rep.pair_terms == (4.0, 4.0)
        assert rep.exponent == 3.0

    def test_two_negative_exponents(self):
        rep = gen_laguerre_exponent([-0.5, -0.4], [0.0, 1.0])
        assert rep.pair_terms == (2.0, pytest.approx(1.2), 2.0)
        assert rep.exponent == 2.0

    def test_hypothesis_failures(self):
        with pytest.raises(HypothesisError, match="increasing"):
            gen_laguerre_exponent([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(HypothesisError, match=">= 0"):
            gen_laguerre_exponent([0.5], [-1.0])
        with pytest.raises(HypothesisError, match="sum"):
            gen_laguerre_exponent([-3.0, 0.5], [-1.0, 1.0])
        with pytest.raises(HypothesisError, match="-1/2"):
            gen_laguerre_exponent([-0.6, -0.6, 2.0], [0.0, 1.0, 2.0])


class TestLupas:
    def test_degree_zero_legendre(self):
        assert lupas_constant(0, 0.0, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_degree_one_legendre(self):
        assert lupas_constant(1, 0.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError, match="Lupas"):
            lupas_constant(3, -0.6, -0.7)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (2.0, 1.0), (-0.5, 3.0)])
    def test_sup_norm_bound_on_random_polynomials(self, ab):
        alpha, beta = ab
        n = 18
        spec = make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": alpha, "beta": beta})
        rec = recurrence_classical(spec, n + 1)
        rule = gauss_rule(rec, n + 1)
        xs = np.cos(np.linspace(0, math.pi, 1500))  # dense Chebyshev sampling
        table = eval_orthonormal(rec, xs, n)
        basis_at_rule = eval_orthonormal(rec, rule.nodes, n)
        const = lupas_constant(n, alpha, beta)
        rng = np.random.default_rng(17)
        for _ in range(50):
            coeffs = rng.standard_normal(n + 1)
            sup = np.max(np.abs(coeffs @ table))
            vals = coeffs @ basis_at_rule
            l2 = math.sqrt(float(np.dot(rule.weights, vals * vals)))
            assert sup <= const * l2 * (1 + 1e-9)

    def test_growth_exponent_formula(self):
        assert lupas_growth_exponent(0.0, 0.0) == 2.0
        assert lupas_growth_exponent(1.0, 3.0) == 8.0
        assert lupas_growth_exponent(-0.5, -0.5) == 1.0

    def test_growth_fit_legendre_short_range(self):
        # the stated 16..64 window is only asymptotic enough for (0, 0)
        ns = list(range(16, 65))
        _, e = growth_fit(ns, [lupas_constant(n, 0.0, 0.0) for n in ns])
        assert abs(e - lupas_growth_exponent(0.0, 0.0) / 2) <= 0.05

    @pytest.mark.parametrize("ab", [(2.0, 1.0), (-0.5, 3.0)])
    def test_growth_fit_asymptotic_range(self, ab):
        ns = [128, 181, 256, 362, 512, 724, 1024]
        _, e = growth_fit(ns, [lupas_constant(n, *ab) for n in ns])
        assert abs(e - lupas_growth_exponent(*ab) / 2) <= 0.05


class TestGrowthFit:
    def test_exact_linear_power(self):
        ns = list(range(4, 21))
        c, e = growth_fit(ns, [2.0 * n for n in ns])
        assert e == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(2.0, rel=1e-12)

    def test_square_root_power(self):
        ns = list(range(4, 21))
        _, e = growth_fit(ns, [math.sqrt(2 * n) for n in ns])
        assert e == pytest.approx(0.5, abs=1e-12)

    def test_hermite_sharp_constants(self):
        spec = make_weight({"family": "hermite"})
        ns = list(range(4, 41))
        _, e = growth_fit(ns, [sharp_constant_l2(spec, n).value for n in ns])
        assert abs(e - 0.5) <= 1e-6

    def test_needs_enough_points(self):
        with pytest.raises(WeightError, match="4"):
            growth_fit([1, 2, 3], [1.0, 2.0, 3.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(WeightError, match="positive"):
            growth_fit([1, 2, 3, 4], [1.0, -2.0, 3.0, 4.0])


class TestVerifyTheorem:
    def test_gen_hermite_squared_factor_passes(self):
        spec = make_weight({"family": "gen_hermite", "alpha": 2.0})
        chk = verify_theorem("gen_hermite_2", spec, SobolevSpec((1.0,)), range(4, 33, 4))
        assert chk.passed
        assert chk.fitted_exponent <= 0.5 + 0.1
        assert all(
            v <= math.sqrt(2 * n) * (1 + 1e-9) for n, v in zip(chk.n_range, chk.sharp_values)
        )

    def test_legendre_passes_with_quadratic_prediction(self):
        spec = make_weight({"family": "jacobi", "interval": [-1, 1]})
        chk = verify_theorem("jacobi_3", spec, SobolevSpec((0.0,)), range(4, 25, 2))
        assert chk.passed and abs(chk.fitted_exponent - 2.0) < 0.3

    def test_case6_hypothesis_violation_propagates(self):
        spec = make_weight(
            {"family": "gen_hermite", "singularities": [[-1.0, -0.6], [0.0, -0.6], [1.0, 1.4]]}
        )
        with pytest.raises(HypothesisError, match="-1/2"):
            verify_theorem("gen_hermite_6", spec, SobolevSpec((0.0,)), range(4, 12))

    def test_family_mismatch_rejected(self):
        spec = make_weight({"family": "hermite"})
        with pytest.raises(HypothesisError, match="family"):
            verify_theorem("laguerre_1", spec, SobolevSpec((0.0,)), range(4, 12))

    def test_schmidt_case(self):
        chk = verify_theorem(
            "schmidt", make_weight({"family": "hermite"}), SobolevSpec((0.0,)), range(4, 17)
        )
        assert chk.passed and chk.predicted_exponent == 0.5

    def test_mirsky_case_dominates(self):
        chk = verify_theorem(
            "mirsky", make_weight({"family": "hermite"}), SobolevSpec((0.0,)), range(4, 17)
        )
        assert chk.passed and chk.predicted_exponent == 1.5

    def test_unknown_case(self):
        with pytest.raises(WeightError, match="unknown case"):
            verify_theorem("case_42", make_weight({"family": "hermite"}), SobolevSpec((0.0,)), range(4, 12))


class TestCaseHelpers:
    def test_default_case_selection(self):
        assert default_case(make_weight({"family": "hermite"})) == "schmidt"
        assert default_case(make_weight({"family": "laguerre"})) == "laguerre_1"
        assert default_case(make_weight({"family": "gen_hermite", "alpha": 1.0})) == "gen_hermite_2"
        assert (
            default_case(
                make_weight({"family": "gen_hermite", "singularities": [[1.0, 1.0]]})
            )
            == "gen_hermite_6"
        )
        assert (
            default_case(make_weight({"family": "gen_laguerre", "singularities": [[2.0, 1.0]]}))
            == "gen_laguerre_51"
        )
        assert (
            default_case(
                make_weight(
                    {"family": "gen_laguerre", "singularities": [[0.0, 0.5], [1.0, 0.5]]}
                )
            )
            == "gen_laguerre_52"
        )

    def test_envelope_forms(self):
        hermite = make_weight({"family": "hermite"})
        assert predicted_envelope("schmidt", hermite, 8) == pytest.approx(4.0)
        assert predicted_envelope("mirsky", hermite, 2) == pytest.approx(math.sqrt(10))
        leg = make_weight({"family": "jacobi", "interval": [-1, 1]})
        assert predicted_envelope("jacobi_3", leg, 5) == 25.0


class TestCaseMatrix:
    """Every case id against one weight of every family, plus weights that
    break the gen_hermite_2 and gen_laguerre_51 hypotheses."""

    # name -> (weight, the cases that cover it, its default case)
    WEIGHTS = {
        "hermite": ({"family": "hermite"}, {"gen_hermite_2", "mirsky", "schmidt"}, "schmidt"),
        "laguerre": ({"family": "laguerre", "alpha": 0.5}, {"laguerre_1"}, "laguerre_1"),
        "jacobi": ({"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": -0.3},
                   {"jacobi_3"}, "jacobi_3"),
        "gen_jacobi": ({"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.2, 0.5]]},
                       {"gen_jacobi_4"}, "gen_jacobi_4"),
        "gen_laguerre": ({"family": "gen_laguerre", "singularities": [[2.0, 1.0]]},
                         {"gen_laguerre_51", "gen_laguerre_52"}, "gen_laguerre_51"),
        "gen_laguerre_inner_sum": (
            {"family": "gen_laguerre", "singularities": [[0.0, 0.5], [1.0, 0.5]]},
            {"gen_laguerre_52"}, "gen_laguerre_52",
        ),
        "gen_hermite": ({"family": "gen_hermite", "alpha": 1.0},
                        {"gen_hermite_2", "gen_hermite_6"}, "gen_hermite_2"),
        "gen_hermite_off_origin": ({"family": "gen_hermite", "singularities": [[1.0, 1.0]]},
                                   {"gen_hermite_6"}, "gen_hermite_6"),
    }

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_hypothesis_error_exactly_outside_the_cover(self, name):
        raw, covered, default = self.WEIGHTS[name]
        spec = make_weight(raw)
        for case_id in CASE_IDS:
            if case_id in covered:
                verify_theorem(case_id, spec, SobolevSpec((0.0,)), range(4, 8))
            else:
                with pytest.raises(HypothesisError):
                    verify_theorem(case_id, spec, SobolevSpec((0.0,)), range(4, 8))
        assert default_case(spec) == default and default in covered


def test_gen_hermite_sharp_below_schmidt_bound():
    rng = np.random.default_rng(53)
    for _ in range(6):
        alpha = float(rng.uniform(0.0, 4.0))
        spec = make_weight({"family": "gen_hermite", "alpha": alpha})
        n = int(rng.integers(1, 20))
        value = sharp_constant_l2(spec, n).value
        assert value <= math.sqrt(2 * n) * (1 + 1e-9)
