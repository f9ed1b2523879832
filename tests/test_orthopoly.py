import math

import numpy as np
import pytest

from markovsharp import (
    QuadratureError,
    WeightError,
    _kernels,
    eval_orthonormal,
    gauss_rule,
    make_weight,
    quadrature,
    recurrence_classical,
    weight_to_json,
)
from markovsharp.orthopoly import RecurrenceTable, eval_derivative_table, max_degree_cap
from markovsharp.quadrature import _recurrence_change, stabilized_stieltjes

from oracles import (
    hermite_moments,
    laguerre_moments,
    legendre_moments,
    recurrence_from_moments,
)

LEGENDRE = {"family": "jacobi", "interval": [-1, 1], "alpha": 0.0, "beta": 0.0}
HERMITE = {"family": "hermite"}


class TestMakeWeight:
    def test_legendre_is_valid(self):
        spec = make_weight(LEGENDRE)
        assert spec.family == "jacobi"
        assert spec.interval == (-1.0, 1.0)

    def test_jacobi_alpha_at_minus_one_rejected(self):
        with pytest.raises(WeightError, match="non-integrable"):
            make_weight({"family": "jacobi", "interval": [-1, 1], "alpha": -1.0})

    def test_gen_jacobi_interior_singularity_valid(self):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, -0.5]]}
        )
        assert spec.singularities == ((0.0, -0.5),)

    def test_gen_jacobi_non_integrable_interior_rejected(self):
        with pytest.raises(WeightError, match="non-integrable"):
            make_weight(
                {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, -1.0]]}
            )

    def test_decreasing_singularities_rejected(self):
        with pytest.raises(WeightError, match="increasing"):
            make_weight(
                {
                    "family": "gen_jacobi",
                    "interval": [-1, 1],
                    "singularities": [[0.5, 1.0], [0.0, 1.0]],
                }
            )

    def test_empty_interval_rejected(self):
        with pytest.raises(WeightError, match="empty interval"):
            make_weight({"family": "jacobi", "interval": [1, -1]})

    def test_infinite_endpoints_parse_from_strings(self):
        spec = make_weight({"family": "laguerre", "interval": [0, "inf"], "alpha": 0.5})
        assert spec.interval == (0.0, math.inf)
        assert weight_to_json(spec)["interval"] == [0.0, "inf"]

    def test_gen_hermite_alpha_folds_into_singularities(self):
        spec = make_weight({"family": "gen_hermite", "alpha": 2.0})
        assert spec.singularities == ((0.0, 2.0),)
        assert spec.alpha == 0.0

    def test_gen_hermite_negative_sum_rejected(self):
        with pytest.raises(WeightError, match="sum"):
            make_weight({"family": "gen_hermite", "singularities": [[1.0, -0.5]]})

    def test_gen_laguerre_hypotheses(self):
        # balanced inner sum (5.1) is fine even with total <= -1 impossible here
        make_weight({"family": "gen_laguerre", "singularities": [[2.0, 1.5]]})
        # general mode (5.2) needs total sum > -1
        with pytest.raises(WeightError, match="sum"):
            make_weight(
                {
                    "family": "gen_laguerre",
                    "singularities": [[-2.0, -3.0], [1.0, 0.5]],
                }
            )
        with pytest.raises(WeightError, match=">= 0"):
            make_weight({"family": "gen_laguerre", "singularities": [[-1.0, 0.5]]})

    def test_scale_must_be_positive(self):
        with pytest.raises(WeightError, match="scale"):
            make_weight({"family": "hermite", "scale": 0.0})

    def test_unknown_family_and_fields(self):
        with pytest.raises(WeightError, match="family"):
            make_weight({"family": "chebyshev"})
        with pytest.raises(WeightError, match="unknown weight fields"):
            make_weight({"family": "hermite", "bogus": 1})


class TestClassicalRecurrence:
    def test_hermite_against_moment_oracle(self):
        rec = recurrence_classical(make_weight(HERMITE), 3)
        diag, offdiag, mass = recurrence_from_moments(hermite_moments(10), 3)
        np.testing.assert_allclose(rec.diag, diag, atol=1e-14)
        np.testing.assert_allclose(rec.offdiag, offdiag, rtol=1e-14)
        assert rec.mass == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        np.testing.assert_allclose(
            rec.offdiag, [math.sqrt(0.5), 1.0, math.sqrt(1.5)], rtol=1e-15
        )

    def test_legendre_against_exact_rational_oracle(self):
        rec = recurrence_classical(make_weight(LEGENDRE), 2)
        diag, offdiag, mass = recurrence_from_moments(legendre_moments(8), 2)
        np.testing.assert_allclose(rec.diag, diag, atol=1e-15)
        np.testing.assert_allclose(rec.offdiag, offdiag, rtol=1e-15)
        assert mass == 2.0 and rec.mass == 2.0
        np.testing.assert_allclose(
            rec.offdiag, [1 / math.sqrt(3), 2 / math.sqrt(15)], rtol=1e-15
        )

    def test_laguerre_against_factorial_oracle(self):
        rec = recurrence_classical(make_weight({"family": "laguerre"}), 1)
        diag, offdiag, mass = recurrence_from_moments(laguerre_moments(6), 1)
        np.testing.assert_allclose(rec.diag, diag, rtol=1e-15)
        np.testing.assert_allclose(rec.offdiag, offdiag, rtol=1e-15)
        assert rec.mass == 1.0
        np.testing.assert_allclose(rec.diag, [1.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose(rec.offdiag, [1.0], rtol=1e-15)

    def test_gen_hermite_origin_factor_against_moment_oracle(self):
        g = 1.3
        spec = make_weight({"family": "gen_hermite", "alpha": g})
        rec = recurrence_classical(spec, 4)
        moments = [0.0 if k % 2 else math.gamma((k + g + 1) / 2) for k in range(12)]
        diag, offdiag, mass = recurrence_from_moments(moments, 4)
        np.testing.assert_allclose(rec.diag, diag, atol=1e-13)
        np.testing.assert_allclose(rec.offdiag, offdiag, rtol=1e-13)
        assert rec.mass == pytest.approx(mass, rel=1e-14)

    def test_jacobi_general_interval_mass(self):
        spec = make_weight({"family": "jacobi", "interval": [0, 3], "alpha": 1.0, "beta": 2.0})
        rec = recurrence_classical(spec, 1)
        # int_0^3 (3-x)^1 x^2 dx = 27/4
        assert rec.mass == pytest.approx(27 / 4, rel=1e-14)

    def test_unsupported_family_raises(self):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        with pytest.raises(WeightError, match="no closed-form recurrence"):
            recurrence_classical(spec, 3)


class TestStieltjes:
    def test_matches_classical_on_legendre(self):
        spec = make_weight(LEGENDRE)
        rec = recurrence_classical(spec, 12)
        rule = gauss_rule(rec, 12)  # exact through degree 23 >= 2*5+1
        diag, offdiag, mass = _kernels.stieltjes(rule.nodes, rule.weights, 5)
        scale = np.max(rec.offdiag[:5])
        np.testing.assert_allclose(diag, rec.diag[:6], atol=1e-13 * scale)
        np.testing.assert_allclose(offdiag, rec.offdiag[:5], rtol=1e-12)
        assert mass == pytest.approx(rec.mass, rel=1e-13)

    @pytest.mark.parametrize(
        "raw",
        [
            {"family": "jacobi", "interval": [-1, 1], "alpha": 1.5, "beta": -0.3},
            {"family": "laguerre", "alpha": 0.7},
            {"family": "hermite"},
        ],
    )
    def test_agreement_across_classical_families(self, raw):
        spec = make_weight(raw)
        rec = recurrence_classical(spec, 20)
        rule = gauss_rule(rec, 20)
        diag, offdiag, _ = _kernels.stieltjes(rule.nodes, rule.weights, 8)
        scale = np.max(rec.offdiag[:8])
        np.testing.assert_allclose(diag, rec.diag[:9], rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(offdiag, rec.offdiag[:8], rtol=1e-12)

    def test_gen_jacobi_mass_exact(self):
        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        rec = stabilized_stieltjes(spec, 0)
        assert rec.diag[0] == pytest.approx(0.0, abs=1e-13)
        assert rec.mass == pytest.approx(4 / 3, rel=1e-13)

    def test_symmetric_spec_diag_vanishes(self):
        spec = make_weight(
            {
                "family": "gen_jacobi",
                "interval": [-1, 1],
                "singularities": [[-0.5, 1.0], [0.5, 1.0]],
            }
        )
        rec = stabilized_stieltjes(spec, 10)
        assert np.max(np.abs(rec.diag)) <= 1e-13

    @pytest.mark.parametrize(
        "raw",
        [
            {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]},
            {"family": "gen_laguerre", "singularities": [[2.0, 1.0]]},
            {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]},
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]},
        ],
        ids=["gen_laguerre_two", "gen_laguerre_one", "gen_hermite", "gen_jacobi_control"],
    )
    def test_degree_n_table_is_leading_block(self, raw):
        # a table built for degree n must be the leading block of a longer one:
        # its rule has to carry the weight as far out as the degree-n
        # polynomials live, which a tail cut off too early does not
        spec = make_weight(raw)
        ref = stabilized_stieltjes(spec, 60)
        floor = np.max(ref.offdiag)
        off = {}
        for n in range(4, 61):
            rec = stabilized_stieltjes(spec, n)
            diag, offdiag = ref.diag[: n + 1], ref.offdiag[:n]
            off[n] = max(
                np.max(np.abs(rec.diag - diag) / np.maximum(np.abs(diag), floor)),
                np.max(np.abs(rec.offdiag - offdiag) / np.maximum(offdiag, floor)),
            )
        assert {n: d for n, d in off.items() if d > 1e-12} == {}

    def test_raised_cap_reaches_degree_100(self, monkeypatch):
        # level 0 builds only level 1's Gauss-Laguerre tail, so a degree-100
        # basis needs no tail rule past level 1's 165 points, below the ~187
        # where the Christoffel sum of a Gauss-Laguerre rule overflows
        from markovsharp import sharp_constant_l2
        from markovsharp.markov import basis_for

        monkeypatch.setenv("MARKOVSHARP_MAX_N", "100")
        spec = make_weight({"family": "gen_laguerre", "singularities": [[2.0, 1.0]]})
        assert sharp_constant_l2(spec, 100).n == 100
        ref, _ = basis_for(spec, 100)
        rec, _ = basis_for(spec, 82)
        n = rec.n_max
        block = RecurrenceTable(n, ref.diag[: n + 1], ref.offdiag[:n], ref.mass)
        assert _recurrence_change(block, rec) <= 1e-12

    def test_rule_too_short(self, monkeypatch):
        # on so short a rule the kernel does not fail: its last b_k is roundoff
        spec = make_weight(LEGENDRE)
        rule = gauss_rule(recurrence_classical(spec, 4), 3)
        monkeypatch.setattr(quadrature, "composite_rules", lambda *_: [rule, rule])
        with pytest.raises(QuadratureError, match="too short: 3 nodes cannot support degree 3"):
            stabilized_stieltjes(spec, 3)


class TestEvaluation:
    def test_legendre_values_at_one(self):
        rec = recurrence_classical(make_weight(LEGENDRE), 2)
        vals = eval_orthonormal(rec, 1.0, 2)
        np.testing.assert_allclose(
            vals, [math.sqrt(0.5), math.sqrt(1.5), math.sqrt(2.5)], rtol=1e-14
        )

    def test_constant_normalization(self):
        rec = recurrence_classical(make_weight({"family": "laguerre", "alpha": 2.0}), 0)
        assert eval_orthonormal(rec, 0.3, 0)[0] == pytest.approx(
            1 / math.sqrt(rec.mass), rel=1e-15
        )

    def test_hermite_odd_vanishes_at_zero(self):
        rec = recurrence_classical(make_weight(HERMITE), 1)
        vals = eval_orthonormal(rec, 0.0, 1)
        assert vals[0] == pytest.approx(math.pi ** -0.25, rel=1e-15)
        assert vals[1] == 0.0

    def test_derivative_of_constant_is_zero(self):
        rec = recurrence_classical(make_weight(HERMITE), 0)
        assert eval_derivative_table(rec, 0.7, 0, order=1)[1][0] == 0.0

    def test_legendre_derivatives_at_zero(self):
        rec = recurrence_classical(make_weight(LEGENDRE), 2)
        vals = eval_derivative_table(rec, 0.0, 2, order=1)[1]
        np.testing.assert_allclose(vals, [0.0, math.sqrt(1.5), 0.0], atol=1e-15)

    def test_derivatives_match_finite_differences(self):
        rec = recurrence_classical(make_weight({"family": "jacobi", "alpha": 0.8, "beta": 0.1}), 6)
        x, h = 0.37, 1e-6
        exact = eval_derivative_table(rec, x, 6, order=1)[1]
        approx = (eval_orthonormal(rec, x + h, 6) - eval_orthonormal(rec, x - h, 6)) / (2 * h)
        np.testing.assert_allclose(approx, exact, rtol=1e-8, atol=1e-8)

    def test_higher_derivative_stack_consistency(self):
        rec = recurrence_classical(make_weight(HERMITE), 5)
        x, h = 0.51, 1e-5
        stack = eval_derivative_table(rec, x, 5, order=2)
        fd = (
            eval_derivative_table(rec, x + h, 5, order=1)[1]
            - eval_derivative_table(rec, x - h, 5, order=1)[1]
        ) / (2 * h)
        np.testing.assert_allclose(fd, stack[2], rtol=1e-7, atol=1e-7)

    def test_array_input_shape(self):
        rec = recurrence_classical(make_weight(HERMITE), 4)
        table = eval_orthonormal(rec, np.linspace(-1, 1, 9), 4)
        assert table.shape == (5, 9)

    def test_degree_beyond_table_rejected(self):
        rec = recurrence_classical(make_weight(HERMITE), 3)
        with pytest.raises(ValueError, match="n_max"):
            eval_orthonormal(rec, 0.0, 4)


class TestInvariants:
    @pytest.mark.parametrize(
        "raw",
        [
            LEGENDRE,
            {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5},
            {"family": "jacobi", "interval": [-1, 1], "alpha": 2.3, "beta": 0.4},
            {"family": "laguerre", "alpha": 1.1},
            {"family": "hermite"},
            {"family": "gen_hermite", "alpha": 1.7},
        ],
    )
    def test_orthonormality(self, raw):
        n = 10
        spec = make_weight(raw)
        rec = recurrence_classical(spec, n + 1)
        rule = gauss_rule(rec, n + 1)  # exactness 2n+1 >= 2n
        table = eval_orthonormal(rec, rule.nodes, n)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10

    def test_orthonormality_generalized(self):
        from markovsharp.markov import basis_for

        spec = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.3, -0.4]]}
        )
        n = 9
        rec, rule = basis_for(spec, n)
        table = eval_orthonormal(rec, rule.nodes, n)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-10

    def test_scale_covariance(self):
        base = make_weight(LEGENDRE)
        scaled = make_weight(dict(LEGENDRE, scale=5.0))
        rb = recurrence_classical(base, 6)
        rs = recurrence_classical(scaled, 6)
        assert rs.mass == pytest.approx(5.0 * rb.mass, rel=1e-15)
        np.testing.assert_allclose(rs.diag, rb.diag, atol=1e-15)
        np.testing.assert_allclose(rs.offdiag, rb.offdiag, rtol=1e-15)
        x = 0.23
        np.testing.assert_allclose(
            eval_orthonormal(rs, x, 6),
            eval_orthonormal(rb, x, 6) / math.sqrt(5.0),
            rtol=1e-14,
        )

    def test_zero_interlacing(self):
        rec = recurrence_classical(make_weight({"family": "laguerre", "alpha": 0.4}), 9)
        lo = gauss_rule(rec, 8).nodes
        hi = gauss_rule(rec, 9).nodes
        assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])

    def test_cap_is_configurable(self, monkeypatch):
        assert max_degree_cap() == 60
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "25")
        assert max_degree_cap() == 25
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "junk")
        with pytest.raises(WeightError):
            max_degree_cap()
        # a cap below 1 admits no degree, so it is bad input, named as such
        for raw in ("0", "-3"):
            monkeypatch.setenv("MARKOVSHARP_MAX_N", raw)
            with pytest.raises(WeightError, match=f"must be a positive integer: '{raw}'"):
                max_degree_cap()
