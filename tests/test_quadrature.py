import math

import numpy as np
import pytest

from markovsharp import (
    QuadRule,
    composite_rules,
    gauss_rule,
    make_weight,
    recurrence_classical,
)
from markovsharp.errors import QuadratureError, WeightError
from markovsharp.orthopoly import _jacobi_coefficients
from markovsharp.quadrature import (
    MAX_REFINE,
    _gauss_rules,
    _graded_subpieces,
    stabilized_stieltjes,
    stieltjes,
)

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
        rule = composite_rules(spec, 5, (0,))[0]
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(4 / 7, rel=1e-12)
        assert np.sum(rule.weights) == pytest.approx(4 / 3, rel=1e-12)

    def test_gen_hermite_squared_factor_mass(self):
        spec = make_weight({"family": "gen_hermite", "alpha": 2.0})
        rule = composite_rules(spec, 2, (0,))[0]
        assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

    def test_classical_family_rejected(self):
        with pytest.raises(WeightError, match="generalized"):
            composite_rules(make_weight({"family": "hermite"}), 4, (0,))

    def test_nodes_contained_and_positive(self):
        spec = make_weight(
            {
                "family": "gen_laguerre",
                "singularities": [[-0.5, 2.0], [1.0, -0.5], [3.0, 1.0]],
            }
        )
        rule = composite_rules(spec, 13, (0,))[0]
        assert np.all(rule.weights > 0)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_scale_multiplies_mass(self):
        base = {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.2, -0.3]]}
        m0 = np.sum(composite_rules(make_weight(base), 3, (0,))[0].weights)
        m1 = np.sum(composite_rules(make_weight(dict(base, scale=7.0)), 3, (0,))[0].weights)
        assert m1 == pytest.approx(7.0 * m0, rel=1e-14)

    def test_tail_gap_certified(self, monkeypatch):
        # the tail rules, not the gap where they start, carry the weight beyond it
        import markovsharp.quadrature as quad

        spec = make_weight({"family": "gen_hermite", "singularities": [[1.0, 1.0]]})
        mass = np.sum(composite_rules(spec, 11, (0,))[0].weights)
        monkeypatch.setattr(quad, "TAIL_GAP", 2.0 * quad.TAIL_GAP)
        mass_doubled = np.sum(composite_rules(spec, 11, (0,))[0].weights)
        assert abs(mass_doubled - mass) <= 1e-13 * abs(mass)

    def test_refine_changes_little(self):
        spec = make_weight(
            {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]}
        )
        sqrt_abs = make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        )
        coarse = composite_rules(spec, 15, (0,))[0]
        f = lambda x: x**3 - 2 * x + 1
        for refine in (1, 2, 3):
            fine = composite_rules(spec, 15, (refine,))[0]
            want = np.dot(fine.weights, f(fine.nodes))
            assert np.dot(coarse.weights, f(coarse.nodes)) == pytest.approx(want, rel=1e-12)
            # closed-form moments of |x|^(1/2) on [-1, 1]
            rule = composite_rules(sqrt_abs, 5, (refine,))[0]
            assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(4 / 7, rel=1e-12)
            assert np.sum(rule.weights) == pytest.approx(4 / 3, rel=1e-12)


def _weight_free(log):
    """The (size, entries) of ``log`` that are Gauss-Legendre or Gauss-Laguerre Jacobi matrices."""
    from markovsharp.orthopoly import _laguerre_coefficients

    def entries(table):
        return table[0].tobytes() + table[1].tobytes()

    return [(m, e) for m, e in log if e in (entries(_jacobi_coefficients(0.0, 0.0, m - 1)),
                                             entries(_laguerre_coefficients(0.0, m - 1)))]


def _refill(store, entries=()):
    """Put ``entries`` (key -> (value, bytes)) in place of what the test's store
    holds, with the running total to match."""
    import markovsharp.quadrature as quad

    store.clear()
    store.update(entries)
    quad._STORE_BYTES = sum(nbytes for _, nbytes in store.values())


class TestReferenceRules:
    """composite_rules builds the [-1, 1] Gauss-Jacobi and Gauss-Laguerre
    reference rules of all its levels in one batch, but for the Gauss-Legendre
    and Gauss-Laguerre rules the process already keeps."""

    SPEC = {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]}

    @pytest.fixture
    def solved(self, monkeypatch, empty_store):
        """Record (size, entries) of every Jacobi matrix eigvalsh solves, and
        the size of every _gauss_rules batch, from an empty store."""
        import markovsharp.quadrature as quad

        log, batches = [], []
        eigvalsh, gauss_rules = np.linalg.eigvalsh, quad._gauss_rules

        def recording_eigvalsh(a):
            for mat in np.reshape(a, (-1,) + np.shape(a)[-2:]):
                log.append((mat.shape[0], mat.diagonal().tobytes() + mat.diagonal(-1).tobytes()))
            return eigvalsh(a)

        def counted_gauss_rules(tables):
            batches.append(len(tables))
            return gauss_rules(tables)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(quad, "_gauss_rules", counted_gauss_rules)
        return log, batches

    def test_each_rule_solved_once(self, solved, empty_store):
        from markovsharp.markov import basis_for
        from markovsharp.quadrature import stabilized_stieltjes

        log, batches = solved
        spec = make_weight(self.SPEC)
        stabilized_stieltjes(spec, 41)
        # accepted at level 1, from the one batch that builds levels 0 and 1
        assert len(batches) == 1
        assert len({entries for _, entries in log}) == len(log)  # no matrix solved twice
        first, kept = sorted(log), dict(empty_store)
        # the matrices of levels 0 and 1, as each level built alone from an
        # empty store solves them
        _refill(empty_store)
        log.clear()
        composite_rules(spec, 83, (1,))
        level_1 = set(log)
        _refill(empty_store)
        log.clear()
        composite_rules(spec, 83, (0,))
        assert set(first) == level_1 | set(log)
        # refinement splits pieces and keeps their node counts; the one rule
        # larger than level 0's is level 2's own Gauss-Laguerre tail
        widest = max(m for m, _ in log)
        _refill(empty_store)
        log.clear()
        composite_rules(spec, 83, (2,))
        base = 83 // 2 + 9
        assert [m for m, _ in log if m > widest] == [base + 2 * ((base + 1) // 2)]
        # a second stabilized_stieltjes(spec, 41) build, on the store the first
        # left, solves exactly the weight-dependent matrices of the first: the
        # Gauss-Legendre and Gauss-Laguerre rules come from the store, and no
        # other rule outlives the build.  basis_for adds one matrix, the
        # 42-point Jacobi matrix of the rule it builds
        weight_free = _weight_free(first)
        assert weight_free and len(weight_free) < len(first)
        assert sorted(key[-1] for key in kept) == sorted(m for m, _ in weight_free)
        _refill(empty_store, kept)
        log.clear()
        rec, _ = basis_for(spec, 40)
        own = (42, rec.diag.tobytes() + rec.offdiag.tobytes())
        assert sorted(log) == sorted([e for e in first if e not in weight_free] + [own])

    def test_results_independent_of_table(self):
        """A rule's bytes do not depend on the other rules its batch's table holds."""
        for raw in (
            {"family": "gen_jacobi", "interval": [-1, 2], "singularities": [[0.0, 0.5], [1.0, -0.3]]},
            self.SPEC,
            {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [0.5, 1.5]]},
        ):
            spec = make_weight(raw)
            both = composite_rules(spec, 31, (0, 1))
            for refine, rule in enumerate(both):
                alone = composite_rules(spec, 31, (refine,))[0]
                assert rule.nodes.tobytes() == alone.nodes.tobytes()
                assert rule.weights.tobytes() == alone.weights.tobytes()

    def test_weights_multiply_by_the_reciprocal(self, monkeypatch):
        """The batch's weights are, byte for byte, 1 / sum_k p_k(x_j)^2 from a
        loop that multiplies by 1/b_k and sums from k = 0 at the batch's nodes."""
        import markovsharp.quadrature as quad

        batches, gauss_rules = [], quad._gauss_rules

        def recorded(tables):
            out = gauss_rules(tables)
            batches.append((tables, out))
            return out

        monkeypatch.setattr(quad, "_gauss_rules", recorded)
        gen_hermite = {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]}
        for raw in (self.SPEC, gen_hermite):
            composite_rules(make_weight(raw), 61, (0, 1))
        assert len(batches) == 2
        for tables, rules in batches:
            for (diag, offdiag, mass), (x, weights) in zip(tables, rules):
                p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
                total = p * p
                for k in range(diag.shape[0] - 1):
                    t = (x - diag[k]) * p
                    if k > 0:
                        t -= offdiag[k - 1] * p_prev
                    p_prev, p = p, t * (1.0 / offdiag[k])
                    total += p * p
                assert weights.tobytes() == (1.0 / total).tobytes()

    def test_batch_memory_stays_near_the_eigensolve(self, monkeypatch, empty_store):
        """A wide gen_hermite batch (rules of 50 to 463 points, three of 463)
        pads only rules of close sizes into one kernel pass and squares the
        table in place, so its traced peak stays near the dense Jacobi
        matrices of the largest size, which the eigensolve builds anyway."""
        import tracemalloc

        from markovsharp import quadrature

        shapes, deriv_tables = [], quadrature.deriv_tables

        def recorded(diag, offdiag, p0, x, order):
            shapes.append(x.shape)
            return deriv_tables(diag, offdiag, p0, x, order)

        monkeypatch.setattr(quadrature, "deriv_tables", recorded)
        spec = make_weight({"family": "gen_hermite", "singularities": [[-40.0, 0.5], [40.0, 0.5]]})
        tracemalloc.start()
        try:
            composite_rules(spec, 83, (0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(2, 75), (3, 147), (3, 463)]
        assert peak <= 1.3 * 3 * 463 * 463 * 8


class TestReferenceStore:
    """The Gauss-Legendre and Gauss-Laguerre reference rules, which no weight
    changes, are kept as read-only arrays in the process's one store, within
    its byte bound KEPT_BYTES."""

    WEIGHTS = [
        {"family": "gen_jacobi", "interval": [-1, 2], "singularities": [[0.0, 0.5], [1.0, -0.3]]},
        TestReferenceRules.SPEC,
        {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [0.5, 1.5]]},
    ]
    # the same singular points with other exponents: the same pieces and tails
    OTHERS = [
        {"family": "gen_jacobi", "interval": [-1, 2], "singularities": [[0.0, -0.4], [1.0, 1.2]]},
        {"family": "gen_laguerre", "singularities": [[0.0, 0.7], [1.0, 2.5]]},
        {"family": "gen_hermite", "singularities": [[-1.0, -0.2], [0.5, 0.3]]},
    ]

    solved = TestReferenceRules.solved

    @pytest.mark.parametrize("raw, other", list(zip(WEIGHTS, OTHERS)), ids=lambda raw: raw["family"])
    def test_rules_independent_of_the_store(self, solved, empty_store, raw, other):
        """A weight's composite rules are byte for byte the same from an empty
        store and from one that other weights filled."""
        log, _ = solved
        spec = make_weight(raw)
        cold = composite_rules(spec, 41, (0, 1, 2))
        cold_solves = len(log)
        _refill(empty_store)
        for degree in (41, 23):
            composite_rules(make_weight(other), degree, (0, 1, 2))
        log.clear()
        warm = composite_rules(spec, 41, (0, 1, 2))
        assert 0 < len(log) < cold_solves  # the store served some rules, not every one
        for a, b in zip(cold, warm):
            assert a.nodes.tobytes() == b.nodes.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_stored_arrays_are_read_only(self, empty_store):
        for raw in self.WEIGHTS:
            composite_rules(make_weight(raw), 31, (0, 1))
        assert {key[0] for key in empty_store} == {0.0, "laguerre"}
        for key, ((nodes, weights), nbytes) in empty_store.items():
            assert nodes.shape == weights.shape == (key[-1],)
            assert nbytes == nodes.nbytes + weights.nbytes
            for a in (nodes, weights):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0

    def test_store_stays_within_its_bound(self, monkeypatch, empty_store):
        import markovsharp.quadrature as quad

        want = [composite_rules(make_weight(raw), 41, (0, 1)) for raw in self.WEIGHTS]
        # the bytes of the three largest rules, fewer than these weights read
        sizes = sorted(nbytes for _, nbytes in empty_store.values())
        assert len(sizes) > 3
        monkeypatch.setattr(quad, "KEPT_BYTES", sum(sizes[-3:]))
        _refill(empty_store)
        for _ in range(2):
            for raw, rules in zip(self.WEIGHTS, want):
                got = composite_rules(make_weight(raw), 41, (0, 1))
                assert 0 < quad._STORE_BYTES <= quad.KEPT_BYTES and len(empty_store) < len(sizes)
                # a rule that left the store is built again, to the same bytes
                for a, b in zip(rules, got):
                    assert a.nodes.tobytes() == b.nodes.tobytes()
                    assert a.weights.tobytes() == b.weights.tobytes()

    def test_concurrent_calls_share_the_store(self, monkeypatch, empty_store):
        """Threads that build rules at once, with a store small enough to evict
        on every call, get each rule's bytes and leave the store in bound."""
        import os
        import sys
        import threading

        import markovsharp.quadrature as quad

        want = [composite_rules(make_weight(raw), 41, (0, 1)) for raw in self.WEIGHTS + self.OTHERS]
        largest = max(nbytes for _, nbytes in empty_store.values())
        monkeypatch.setattr(quad, "KEPT_BYTES", 4 * largest)
        _refill(empty_store)
        failures, done = [], []

        def build(first):
            try:
                for i in range(3 * len(want)):
                    k = (first + i) % len(want)
                    got = composite_rules(make_weight((self.WEIGHTS + self.OTHERS)[k]), 41, (0, 1))
                    if any(a.nodes.tobytes() != b.nodes.tobytes()
                           or a.weights.tobytes() != b.weights.tobytes() for a, b in zip(want[k], got)):
                        failures.append(k)
                done.append(first)
            except Exception as exc:  # reported below, with the thread that raised it
                failures.append(exc)

        count = min(32, 2 * (os.cpu_count() or 1) + 2)  # more threads than cores
        threads = [threading.Thread(target=build, args=(t,)) for t in range(count)]
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
        assert failures == [] and len(done) == len(threads)
        assert 0 < quad._STORE_BYTES <= quad.KEPT_BYTES
        assert quad._STORE_BYTES == sum(nbytes for _, nbytes in empty_store.values())

    def test_second_weight_solves_no_weight_free_matrix(self, solved):
        log, _ = solved
        spec, other = (make_weight(raw) for raw in (self.WEIGHTS[1], self.OTHERS[1]))
        composite_rules(spec, 83, (0, 1))
        assert _weight_free(log)
        log.clear()
        composite_rules(other, 83, (0, 1))
        assert log and not _weight_free(log)


class TestPieceRules:
    """The Gauss-Jacobi rules composite_rules builds, all in one padded stack."""

    @pytest.fixture(scope="class")
    def stack(self):
        return _gauss_rules([_jacobi_coefficients(al, be, m - 1) for m, al, be in PIECE_CASES])

    def test_nodes_match_scipy(self, stack):
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        for (nodes, _), (m, al, be) in zip(stack, PIECE_CASES):
            want, _ = roots_jacobi(m, al, be)
            np.testing.assert_allclose(nodes, want, rtol=0, atol=1e-13)

    def test_weights_match_scipy_at_low_order(self, stack):
        # scipy's own weights lose digits with m: against the 30-digit
        # reference they are off by up to 2e-11 at m=60 and 3e-9 at m=286
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        for (_, weights), (m, al, be) in zip(stack, PIECE_CASES):
            if m == 5:
                _, want = roots_jacobi(m, al, be)
                np.testing.assert_allclose(weights, want, rtol=1e-13)

    def test_weights_match_mpmath(self, stack):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for (nodes, weights), (m, al, be) in zip(stack, PIECE_CASES):
                for j in sorted({0, 1, m // 2, m - 2, m - 1}):
                    x, w = gauss_jacobi_point_mp(m, al, be, nodes[j], mpmath.mp)
                    assert abs(nodes[j] - float(x)) <= 1e-15
                    # a node error of one ulp moves an end weight by ~m^2 ulp
                    assert abs(weights[j] / float(w) - 1) <= 1e-15 * m * m, (m, al, be, j)


    def test_rules_of_mixed_sizes_equal_each_rule_alone(self):
        """Rules of 3, 9, 9 and 14 points in one batch are, byte for byte, each
        rule built alone, each exactly its own size, in whatever order they
        are listed."""
        from markovsharp.orthopoly import _laguerre_coefficients

        tables = [_jacobi_coefficients(0.5, -0.3, 2), _laguerre_coefficients(1.2, 8),
                  _jacobi_coefficients(-0.6, 0.0, 8), _jacobi_coefficients(2.5, 0.0, 13)]
        alone = [_gauss_rules([rec])[0] for rec in tables]
        for listed in ([0, 1, 2, 3], [3, 1, 0, 2]):
            rules = _gauss_rules([tables[i] for i in listed])
            assert len(rules) == len(listed)
            for (nodes, weights), i in zip(rules, listed):
                m = tables[i][0].shape[0]
                assert nodes.shape == weights.shape == (m,)
                assert nodes.tobytes() == alone[i][0].tobytes()
                assert weights.tobytes() == alone[i][1].tobytes()


class TestGradedSubpieces:
    """A piece is split dyadically away from the nearest singular point beyond each end.

    The weight has singular points at -0.5, 0, 8 and 8.25; each piece below
    is graded from an end whose nearest outside point lies closer than a
    quarter of the piece's length, with steps that double from that gap up
    to 0.6 of the length.  Every breakpoint is dyadic, so exact.
    """

    SPEC = make_weight({"family": "gen_jacobi", "interval": [-1.0, 12.0],
                        "singularities": [[-0.5, 0.5], [0.0, 0.5], [8.0, 0.5], [8.25, 0.5]]})

    def test_both_sides(self):
        # from 0 with gap 0.5: 0.5, 1.5, 3.5 (7.5 passes 4.8);
        # from 8 with gap 0.25: 7.75, 7.25, 6.25, 4.25 (0.25 passes 3.2)
        assert _graded_subpieces(0.0, 8.0, self.SPEC) == [
            0.0, 0.5, 1.5, 3.5, 4.25, 6.25, 7.25, 7.75, 8.0]

    def test_one_side(self):
        # from 8.25 with gap 0.25: 8.5, 9.0, 10.0 (12.0 passes 10.5); no point lies beyond 12
        assert _graded_subpieces(8.25, 12.0, self.SPEC) == [8.25, 8.5, 9.0, 10.0, 12.0]

    def test_neither_side(self):
        # no point lies below -1, and the gap 0.5 to 0 is the piece's whole length
        assert _graded_subpieces(-1.0, -0.5, self.SPEC) == [-1.0, -0.5]


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



SINGULAR_JACOBI = {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
STEEP_HERMITE = {"family": "gen_hermite", "singularities": [[0.5, 300]]}


class TestInputChecks:
    # each input check that no other test reaches, with the class and text it raises
    @pytest.mark.parametrize("build, error, message", [
        pytest.param(lambda: QuadRule([0.0, 1.0], [1.0]), ValueError,
                     "nodes and weights must be 1-D arrays of equal length", id="rule-shape"),
        pytest.param(lambda: QuadRule([], []), ValueError, "empty rule", id="rule-empty"),
        pytest.param(lambda: QuadRule([0.0, 1.0], [1.0, -1.0]), ValueError,
                     "weights must be strictly positive", id="rule-weights"),
        pytest.param(lambda: _rule({"family": "hermite"}, 0, 3), ValueError, "m must be >= 1",
                     id="gauss-size"),
        pytest.param(lambda: _rule({"family": "hermite"}, 5, 3), ValueError,
                     "recurrence table too short for an 5-point rule (n_max=3)",
                     id="gauss-table"),
        pytest.param(lambda: composite_rules(make_weight(SINGULAR_JACOBI), -1, (0,)),
                     ValueError, "degree must be >= 0", id="composite-degree"),
        pytest.param(lambda: composite_rules(make_weight(SINGULAR_JACOBI), 5, (-1,)), ValueError,
                     f"refinement level -1 is not an integer in 0..{MAX_REFINE}",
                     id="composite-level-negative"),
        pytest.param(lambda: composite_rules(make_weight(SINGULAR_JACOBI), 5, (1.5,)), ValueError,
                     f"refinement level 1.5 is not an integer in 0..{MAX_REFINE}",
                     id="composite-level-fraction"),
        # level L builds 2^L parts per piece, so an unchecked large level
        # exhausts memory; the ladder asks for none beyond MAX_REFINE
        pytest.param(lambda: composite_rules(make_weight(SINGULAR_JACOBI), 5, (MAX_REFINE + 1,)),
                     ValueError, f"refinement level {MAX_REFINE + 1} is not an integer in "
                     f"0..{MAX_REFINE}", id="composite-level-beyond"),
        # no two consecutive levels of |x - 0.5|^300 e^(-x^2) agree to 1e-12
        pytest.param(lambda: stabilized_stieltjes(make_weight(STEEP_HERMITE), 6),
                     QuadratureError,
                     "recurrence coefficients did not stabilize after 6 rule refinements",
                     id="no-stabilization"),
    ])
    def test_message(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message


def test_stieltjes_reports_positivity_loss():
    # positive mass 1, but the degree-1 residual x + 1 has squared norm
    # 2 * 1^2 - 1 * 2^2 = -2
    nodes = np.array([0.0, 1.0])
    weights = np.array([2.0, -1.0])
    with pytest.raises(QuadratureError, match="lost positivity at degree 1"):
        stieltjes(nodes, weights, 2)


def test_stieltjes_flags_empty_mass():
    nodes = np.array([0.0, 1.0])
    weights = np.array([1.0, -1.0])
    with pytest.raises(QuadratureError, match="mass 0.0 or its reciprocal is not finite"):
        stieltjes(nodes, weights, 1)


def test_stieltjes_names_an_overflow():
    # p_0 = 1/sqrt(2e-300) is about 7e149, so the degree-1 residual at the
    # nodes, about 3.5e154, overflows when squared: a floating-point-range
    # failure at degree 1, not a loss of positivity, and no warning leaks
    nodes = np.array([0.0, 1e5])
    weights = np.array([1e-300, 1e-300])
    with pytest.raises(QuadratureError, match="out of floating-point range at degree 1"):
        stieltjes(nodes, weights, 2)


def test_stieltjes_names_an_overflow_of_the_last_diagonal():
    # the degree-1 norm is 1e-6 and finite, but p_1 = 1e155 at the node of
    # subnormal weight, so the last diagonal sum overflows
    nodes = np.array([-1e-3, 1e-3, 1e152])
    weights = np.array([0.5, 0.5, 1e-320])
    with pytest.raises(QuadratureError, match="out of floating-point range at degree 1"):
        stieltjes(nodes, weights, 1)
