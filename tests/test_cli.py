import ast
import copy
import inspect
import json
import math
import os
import pickle
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import markovsharp
from markovsharp import (
    QuadRule,
    SharpResult,
    SobolevSpec,
    WeightError,
    WeightSpec,
    derivative_matrix,
    gauss_rule,
    make_weight,
    mirsky_bound,
    recurrence_classical,
    sharp_constant_l2,
    sharp_constant_sobolev,
    sobolev_gram,
)
from markovsharp.bounds import BoundCheck, default_case, verify_theorem
from markovsharp.cli import build_parser, load_weight, main

# child interpreters import the same sources as this one, installed or not
SRC = str(Path(markovsharp.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}


# the subcommand and degree of most out-of-range cases
SHARP_5 = ["sharp", "--n", "5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharp:
    def test_hermite_degree_two(self, capsys):
        code, out, _ = run_cli(capsys, "sharp", "--weight", "hermite", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0, rel=1e-10)
        assert payload["weight"]["family"] == "hermite"

    def test_legendre_degree_one(self, capsys):
        code, out, _ = run_cli(capsys, "sharp", "--weight", "legendre", "--n", "1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_degree_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sharp", "--weight", "hermite", "--n", "0")
        assert code == 2
        assert "n must be >= 1" in err

    def test_inline_json_weight(self, capsys):
        token = '{"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": 0.5}'
        code, out, _ = run_cli(capsys, "sharp", "--weight", token, "--n", "3")
        assert code == 0
        assert json.loads(out)["n"] == 3

    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_json_list_weight_is_not_a_mapping(self, capsys, tmp_path, source):
        # a token that starts with "[" is inline JSON, as one that starts with "{" is
        token = "[1, 2]"
        if source == "file":
            path = tmp_path / "w.json"
            path.write_text(token)
            token = str(path)
        code, out, err = run_cli(capsys, "sharp", "--weight", token, "--n", "3")
        assert code == 2 and out == ""
        assert "weight description must be a mapping, got list" in err

    def test_weight_from_file(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"family": "laguerre", "alpha": 1.0}')
        code, out, _ = run_cli(capsys, "sharp", "--weight", str(path), "--n", "2")
        assert code == 0
        assert json.loads(out)["weight"]["alpha"] == 1.0

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "sharp", "--weight", "nope", "--n", "2")
        assert code == 2
        assert "preset" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharp", "--weight", "hermite", "--n", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value,residual,coeff_0,coeff_1,coeff_2"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0, rel=1e-10)

    def test_sobolev_lambdas(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharp", "--weight", "hermite", "--n", "1", "--lambdas", "1"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.sqrt(2 / 3), rel=1e-12)


class TestSweep:
    def test_hermite_sharp_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--weight", "hermite", "--n-min", "1", "--n-max", "5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,sharp,sobolev,mirsky,envelope"
        sharp = [float(ln.split(",")[1]) for ln in lines[1:]]
        np.testing.assert_allclose(sharp, [math.sqrt(2 * n) for n in range(1, 6)], rtol=1e-10)

    def test_mirsky_dominates_rowwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--weight", "legendre", "--n-min", "1", "--n-max", "6",
            "--format", "csv",
        )
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert all(float(r[3]) >= float(r[1]) for r in rows)

    def test_sobolev_column_below_l2(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--weight", "legendre", "--n-min", "1", "--n-max", "6",
            "--lambdas", "1", "--format", "csv",
        )
        rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
        assert all(float(r[2]) <= float(r[1]) * (1 + 1e-10) for r in rows)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--weight", "hermite", "--n-min", "1", "--n-max", "3",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("n,sharp")


class TestMirskyAndExtremal:
    def test_mirsky_json(self, capsys):
        code, out, _ = run_cli(capsys, "mirsky", "--weight", "hermite", "--n", "2")
        assert code == 0
        assert json.loads(out)["rows"][0]["mirsky"] == pytest.approx(math.sqrt(10), rel=1e-10)

    def test_extremal_report(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--weight", "hermite", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["achieved_ratio"] == pytest.approx(2.0, rel=1e-10)
        np.testing.assert_allclose(payload["coeffs"], [0.0, 0.0, 1.0], atol=1e-12)

    def test_extremal_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--weight", "legendre", "--n", "1", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0].startswith("# achieved_ratio: ")
        assert float(lines[0].split(": ")[1]) == pytest.approx(math.sqrt(3), rel=1e-12)
        assert lines[1].startswith("# residual: ")
        assert 0.0 <= float(lines[1].split(": ")[1]) <= 1e-8
        assert lines[2] == "k,coeff"
        assert [ln.split(",")[0] for ln in lines[3:]] == ["0", "1"]


class TestVerify:
    def test_gen_hermite_case_passes(self, capsys):
        token = '{"family": "gen_hermite", "alpha": 2.0}'
        code, out, _ = run_cli(
            capsys, "verify", "--case", "gen_hermite_2", "--weight", token,
            "--n-min", "4", "--n-max", "28", "--n-step", "4",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_jacobi_case_passes_near_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--case", "jacobi_3", "--weight", "legendre",
            "--n-min", "4", "--n-max", "24", "--n-step", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert abs(payload["fitted_exponent"] - 2.0) < 0.3

    def test_hypothesis_violation_exits_two(self, capsys):
        token = (
            '{"family": "gen_hermite", "singularities":'
            ' [[-1.0, -0.6], [0.0, -0.6], [1.0, 1.4]]}'
        )
        code, _, err = run_cli(
            capsys, "verify", "--case", "gen_hermite_6", "--weight", token,
            "--n-min", "4", "--n-max", "12",
        )
        assert code == 2
        assert "-1/2" in err
        # the schmidt case reads no lambdas, but a Sobolev norm is checked where it is made
        code, out, err = run_cli(
            capsys, "verify", "--case", "schmidt", "--weight", "hermite",
            "--lambdas", "1,1,1,1,1", "--n-min", "4", "--n-max", "8",
        )
        assert code == 2
        assert out == ""
        assert "derivative order k=5 beyond the supported cap 4" in err

    def test_tol_override_can_fail(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--case", "schmidt", "--weight", "hermite",
            "--n-min", "4", "--n-max", "16", "--tol", "-1.0",
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_tol_override_keeps_pointwise_checks(self, capsys, monkeypatch):
        # constants 1% off sqrt(2n) grow at the right rate, so only the
        # pointwise schmidt identity can fail them, with or without --tol
        from markovsharp import bounds

        exact = bounds.sharp_constants

        def off_by_one_percent(spec, ns, lambdas=()):
            return [
                res._replace(value=res.value * 1.01)
                for res in exact(spec, ns, lambdas)
            ]

        monkeypatch.setattr(bounds, "sharp_constants", off_by_one_percent)
        argv = [
            "verify", "--case", "schmidt", "--weight", "hermite", "--n-min", "4", "--n-max", "12",
        ]
        for extra in ([], ["--tol", "0.1"]):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 1
            assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--case", "schmidt", "--weight", "hermite",
            "--n-min", "4", "--n-max", "16", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_default_case_from_weight(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--weight", "laguerre0", "--n-min", "4", "--n-max", "20",
            "--n-step", "2",
        )
        assert code == 0
        assert json.loads(out)["case_id"] == "laguerre_1"


@pytest.fixture
def builds(monkeypatch):
    """Degrees of the bases built, by basis_for and by the ranges that read the kept basis.

    Every one goes through ``markov._kept``; an entry whose recurrence it
    returned before is a lookup, not a build, so it is not counted.
    """
    from markovsharp import markov

    calls, seen = [], []
    original = markov._kept

    def counted(*args, **kwargs):
        kept = original(*args, **kwargs)
        if not any(kept.rec is old for old in seen):
            seen.append(kept.rec)
            calls.append(kept.n)
        return kept

    monkeypatch.setattr(markov, "_kept", counted)
    return calls


@pytest.fixture
def range_builds(monkeypatch):
    """Calls of the recurrence, D_N and point-table builders through every module's binding.

    ``recurrences`` counts recurrence_classical and stabilized_stieltjes together.
    """
    from markovsharp import markov, orthopoly, quadrature

    calls = {"recurrences": 0, "derivative_matrix": 0, "eval_derivative_table": 0}
    for owner, name, key in (
        (orthopoly, "recurrence_classical", "recurrences"),
        (quadrature, "stabilized_stieltjes", "recurrences"),
        (markov, "derivative_matrix", "derivative_matrix"),
        (orthopoly, "eval_derivative_table", "eval_derivative_table"),
    ):
        original = getattr(owner, name)

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("markovsharp") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


GEN_JACOBI = '{"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}'
GEN_HERMITE = '{"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]}'
JACOBI = '{"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": -0.3}'
CLASSICAL = ["legendre", "chebyshev1", "laguerre0", "hermite", JACOBI]


def _sweep_rows(capsys, token):
    code, out, _ = run_cli(
        capsys, "sweep", "--weight", token, "--n-min", "2", "--n-max", "20", "--n-step", "2",
        "--lambdas", "1,0.5",
    )
    assert code == 0
    return json.loads(out)["rows"]


class TestSharedBasis:
    """A degree range reads the leading blocks of one basis built for its largest degree."""

    def test_verify_theorem_builds_once(self, builds):
        # the mirsky case reads two ranges, which share one kept basis
        for case, token in (("gen_jacobi_4", GEN_JACOBI), ("mirsky", "hermite")):
            builds.clear()
            verify_theorem(case, load_weight(token), SobolevSpec((1.0, 0.5)), range(4, 13))
            assert builds == [12]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n-min", "4", "--n-max", "12"],
            ["mirsky", "--n-min", "4", "--n-max", "12"],
            ["extremal", "--n", "12"],
        ],
    )
    def test_cli_command_builds_once(self, capsys, builds, argv):
        code, _, _ = run_cli(capsys, *argv, "--weight", GEN_HERMITE)
        assert code == 0
        assert builds == [12]

    @pytest.mark.parametrize(
        "case, token, tables",
        [("gen_jacobi_4", GEN_JACOBI, 0), ("mirsky", "hermite", 0), ("schmidt", "hermite", 0)],
        ids=["gen_jacobi_4-gen_jacobi", "mirsky-hermite", "schmidt-hermite"],
    )
    def test_verify_theorem_one_matrix_and_table_per_range(
        self, range_builds, case, token, tables
    ):
        # the mirsky case reads two ranges, the Mirsky bounds and the sharp
        # constants, from one kept basis.  The residual reads D_N, so no
        # basis, classical or Stieltjes, evaluates a table at points
        verify_theorem(case, load_weight(token), SobolevSpec((1.0, 0.5)), range(4, 41))
        assert range_builds == {
            "recurrences": 1, "derivative_matrix": 1, "eval_derivative_table": tables
        }

    @pytest.mark.parametrize(
        "token, lambdas, tables",
        [
            (GEN_HERMITE, [], 0),
            (GEN_HERMITE, ["--lambdas", "1,0.5"], 0),
            ("hermite", [], 0),
            ("hermite", ["--lambdas", "1,0.5"], 0),
        ],
        ids=["gen_hermite-lambdas0", "gen_hermite-lambdas1", "hermite-lambdas0",
             "hermite-lambdas1"],
    )
    def test_sweep_one_matrix_and_table_per_range(
        self, capsys, range_builds, token, lambdas, tables
    ):
        # one range per column: sobolev (when it differs from sharp), sharp and
        # mirsky, all on one kept basis, whose residuals read D_N, so no
        # column evaluates a table at points
        code, _, _ = run_cli(
            capsys, "sweep", "--weight", token, "--n-min", "4", "--n-max", "40", *lambdas
        )
        assert code == 0
        assert range_builds == {
            "recurrences": 1, "derivative_matrix": 1, "eval_derivative_table": tables
        }

    @pytest.mark.parametrize("token", CLASSICAL)
    def test_classical_values_equal_per_degree(self, capsys, token):
        # L2 values are bit-identical; a Sobolev range reads the leading blocks
        # of one factored degree-N Gram matrix, which round differently
        spec, sob = load_weight(token), SobolevSpec((1.0, 0.5))
        for row in _sweep_rows(capsys, token):
            n = row["n"]
            assert row["sharp"] == sharp_constant_l2(spec, n).value
            assert row["sobolev"] == pytest.approx(
                sharp_constant_sobolev(spec, sob, n).value, rel=1e-11, abs=0
            )
            assert row["mirsky"] == mirsky_bound(spec, n)
        case = default_case(spec)
        check = verify_theorem(case, spec, sob, range(4, 21))
        if case == "schmidt":
            expected = [sharp_constant_l2(spec, n).value for n in range(4, 21)]
            assert list(check.sharp_values) == expected
        else:
            expected = [sharp_constant_sobolev(spec, sob, n).value for n in range(4, 21)]
            np.testing.assert_allclose(check.sharp_values, expected, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("token", [GEN_JACOBI, GEN_HERMITE])
    def test_generalized_values_match_per_degree(self, capsys, token):
        spec, sob = load_weight(token), SobolevSpec((1.0, 0.5))
        rows = _sweep_rows(capsys, token)
        shared = [[r["sharp"], r["sobolev"], r["mirsky"]] for r in rows]
        per_degree = [
            [
                sharp_constant_l2(spec, r["n"]).value,
                sharp_constant_sobolev(spec, sob, r["n"]).value,
                mirsky_bound(spec, r["n"]),
            ]
            for r in rows
        ]
        np.testing.assert_allclose(shared, per_degree, rtol=1e-10, atol=0)
        check = verify_theorem(default_case(spec), spec, sob, range(4, 21))
        np.testing.assert_allclose(
            check.sharp_values,
            [sharp_constant_sobolev(spec, sob, n).value for n in range(4, 21)],
            rtol=1e-10,
            atol=0,
        )


class TestSerialization:
    """Output formats: every one is written by markovsharp.cli."""

    def test_sharp_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharp", "--weight", "hermite", "--n", "3", "--lambdas", "1,0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "value", "coeffs", "residual", "weight", "lambdas"}
        assert payload["lambdas"] == [1.0, 0.5]
        assert len(payload["coeffs"]) == 4

    @pytest.fixture
    def verify_output(self, capsys, monkeypatch):
        """``verify`` output for a fixed BoundCheck on legendre, in the given format."""
        from markovsharp import bounds

        check = BoundCheck(
            case_id="jacobi_3",
            n_range=(4, 5),
            sharp_values=(3.0, 4.5),
            fitted_constant=0.2,
            fitted_exponent=1.9,
            predicted_exponent=2.0,
            passed=True,
        )
        monkeypatch.setattr(bounds, "verify_theorem", lambda *args, **kwargs: check)

        def run(fmt):
            code, out, _ = run_cli(
                capsys, "verify", "--case", "jacobi_3", "--weight", "legendre",
                "--n-min", "4", "--n-max", "5", "--format", fmt,
            )
            assert code == 0
            return out

        return run

    def test_verify_json_fields(self, verify_output):
        payload = json.loads(verify_output("json"))
        assert payload["pass"] is True
        assert payload["case_id"] == "jacobi_3"
        assert payload["n_range"] == [4, 5]
        assert set(payload) == {
            "case_id", "n_range", "sharp_values", "fitted_constant", "fitted_exponent",
            "predicted_exponent", "pass", "weight",
        }

    def test_verify_csv_rows(self, verify_output):
        lines = verify_output("csv").strip().split("\n")
        assert lines[0] == "case_id,n,sharp,predicted_envelope,fitted_constant,fitted_exponent,pass"
        assert len(lines) == 3
        assert lines[1].startswith("jacobi_3,4,3.0,16.0,")
        assert lines[1].endswith(",true")


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(ln.startswith("PASS") for ln in lines)
        assert any("quadrature" in ln for ln in lines)
        assert any("orthonormality" in ln for ln in lines)
        assert any("recurrence-consistency" in ln for ln in lines)
        assert any("eigen" in ln for ln in lines)
        assert len(lines) == 5  # four suites and the overall verdict
        assert lines[-1] == "PASS overall"

    def test_injected_perturbation_fails(self, capsys, monkeypatch):
        import markovsharp.cli as cli

        real_basis_for = cli.basis_for

        def perturbed(spec, n):
            rec, rule = real_basis_for(spec, n)
            weights = rule.weights.copy()
            weights[len(weights) // 2] *= 1.0 + 1e-6
            return rec, QuadRule(rule.nodes, weights)

        monkeypatch.setattr(cli, "basis_for", perturbed)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert any(ln.startswith("FAIL orthonormality") for ln in out.strip().split("\n"))

    def test_perturbed_derivative_matrix_fails(self, capsys, monkeypatch):
        # the rule stays exact, so only the quadrature check of D rejects it
        import markovsharp.cli as cli

        real = cli.derivative_matrix

        def perturbed(rec, n):
            mat = real(rec, n)
            mat[-2, -1] *= 1.0 + 1e-6  # the leading coefficient of p_n', never zero
            return mat

        monkeypatch.setattr(cli, "derivative_matrix", perturbed)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        line = next(ln for ln in out.strip().split("\n") if "orthonormality" in ln)
        assert line.startswith("FAIL orthonormality: max Gram deviation from identity ")

    def test_non_top_pair_fails(self, capsys, monkeypatch):
        # the second eigenpair of the pencil (D^T B D, B) has a pencil residual
        # as small as the top one's, so only the top-eigenvalue check rejects it
        import markovsharp.cli as cli

        real = cli.sharp_constants

        def second_pair(spec, ns, lambdas=()):
            (res,) = real(spec, ns, lambdas)
            n = res.n
            mat = derivative_matrix(recurrence_classical(spec, n), n)
            gram = sobolev_gram(mat, lambdas)
            chol = np.linalg.cholesky(gram)
            half = np.linalg.solve(chol, mat.T @ gram @ mat)
            vals, vecs = np.linalg.eigh(np.linalg.solve(chol, half.T))
            coeffs = np.linalg.solve(chol.T, vecs[:, -2])
            return [res._replace(value=math.sqrt(vals[-2]), coeffs=coeffs)]

        monkeypatch.setattr(cli, "sharp_constants", second_pair)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        lines = out.strip().split("\n")
        assert any(ln.startswith("FAIL eigen-svd-residuals") for ln in lines)
        assert lines[0].startswith("PASS quadrature-exactness")

    def test_inconsistent_recurrence_fails(self, capsys, monkeypatch):
        import markovsharp.cli as cli

        real = cli.stabilized_stieltjes

        def perturbed(spec, n):
            rec = real(spec, n)
            if n < 12:
                rec = rec._replace(offdiag=rec.offdiag * (1.0 + 1e-9))
            return rec

        monkeypatch.setattr(cli, "stabilized_stieltjes", perturbed)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert any(ln.startswith("FAIL recurrence-consistency") for ln in out.strip().split("\n"))


# (weight, argv, named): each exits 3 naming its cause; make_golden.py records them too
OUT_OF_RANGE_WEIGHTS = [
    ('{"family": "jacobi", "scale": 1e308}', SHARP_5, "mass inf"),
    ('{"family": "jacobi", "interval": [-1, 1e308]}', SHARP_5, "sharp constant 0.0"),
    ("hermite", [*SHARP_5, "--lambdas", "1e308,1e308"], "Sobolev Gram matrix"),
    ('{"family": "gen_laguerre", "singularities": [[1, 0.5]], "scale": 1e-320}', SHARP_5,
     "mass 7.88e-321"),
    ('{"family": "hermite", "scale": 1e-320}', SHARP_5, "mass 1.772e-320"),
    ('{"family": "laguerre", "scale": 1e-320}', SHARP_5, "mass 1e-320"),
    # p_0 = 1/sqrt(mass) is near 1e150, so the Stieltjes sums overflow
    ('{"family": "gen_laguerre", "singularities": [[2, 1]], "scale": 1e-300}', SHARP_5,
     "out of floating-point range at degree 3"),
    ('{"family": "gen_hermite", "singularities": [[-1, 0.5], [1, 0.5]], '
     '"scale": 1e-300}', SHARP_5, "out of floating-point range at degree 6"),
    # the composite rule's weights overflow to an infinite mass
    ('{"family": "gen_laguerre", "singularities": [[2, 1]], "scale": 1e308}', SHARP_5,
     "mass inf"),
    # a piece rescale or a singular factor overflows, and inf * 0 is NaN
    ('{"family": "gen_jacobi", "interval": [0, 100], '
     '"singularities": [[0, 300], [50, 0.5]]}', SHARP_5, "mass inf"),
    ('{"family": "gen_hermite", "singularities": [[22.5, 240]]}', SHARP_5, "mass inf"),
    ('{"family": "gen_hermite", "singularities": [[-27, 3], [11, 93], [15, 186]]}', SHARP_5,
     "mass inf"),
    ('{"family": "gen_laguerre", "singularities": [[4, 1], [17, 1], [23, 390]]}', SHARP_5,
     "absolute exponent sum 392.0"),
    # D_N is finite on a tiny interval, but its squares overflow: in the
    # residual's norms of P'' (lambda_1 = 1e-300 keeps B in range), the
    # Gram products and the Mirsky sums
    ('{"family": "jacobi", "interval": [0, 1e-100]}',
     ["sharp", "--n", "40", "--lambdas", "1e-300"],
     "the norms of the extremal polynomial at n=40 are out of floating-point range"),
    ('{"family": "jacobi", "interval": [0, 1e-300]}', ["sharp", "--n", "40"],
     "Gram matrix M^T M at n=40"),
    ('{"family": "jacobi", "interval": [0, 1e-300]}',
     ["mirsky", "--n-min", "38", "--n-max", "40"], "Mirsky bound at n=38"),
    # the length b - a overflows, so no recurrence is mapped onto the interval
    ('{"family": "jacobi", "interval": [-1e308, 1e308]}', ["sharp", "--n", "7"],
     "exponents alpha=0.0, beta=0.0 on [-1e+308, 1e+308]"),
    ('{"family": "jacobi", "interval": [-1e308, 1e308]}', ["mirsky", "--n", "7"],
     "exponents alpha=0.0, beta=0.0 on [-1e+308, 1e+308]"),
    ('{"family": "jacobi", "interval": [-1e308, 1e308], "alpha": 0.5, "beta": -0.5}',
     ["sharp", "--n", "7"], "exponents alpha=0.5, beta=-0.5 on [-1e+308, 1e+308]"),
    ('{"family": "jacobi", "interval": [-1e308, 1e308], "alpha": 0.5, "beta": -0.5}',
     ["mirsky", "--n", "7"], "exponents alpha=0.5, beta=-0.5 on [-1e+308, 1e+308]"),
    # every weight of the composite rule underflows to 0
    ('{"family": "gen_jacobi", "interval": [0, 1e-300], '
     '"singularities": [[5e-301, 1]]}', SHARP_5,
     "every weight of the 30-point composite rule underflowed"),
    # the composite rule's weights are finite, but their sum, the mass, is not
    ('{"family": "gen_hermite", "singularities": [[10, 0.5]], "scale": 1e308}', SHARP_5,
     "mass inf"),
    ('{"family": "gen_laguerre", "singularities": [[5, 0.5]], "scale": 1e308}', SHARP_5,
     "mass inf"),
    ('{"family": "gen_jacobi", "interval": [-2, 0], "singularities": [[-0.2, -0.5]], '
     '"scale": 1e308}', SHARP_5, "mass inf"),
    # the exponent sum alpha + beta of the closed-form recurrence overflows
    ('{"family": "jacobi", "alpha": 1e308, "beta": 1e308}', SHARP_5,
     "exponents alpha=1e+308, beta=1e+308"),
    ('{"family": "gen_jacobi", "interval": [-1, 1], '
     '"singularities": [[-1, 1e308], [1, 1e308]]}', SHARP_5,
     "exponents alpha=1e+308, beta=1e+308"),
    # the midpoint of a piece overflows, so its nodes are not finite
    ('{"family": "gen_jacobi", "interval": [-1, 1e308], '
     '"singularities": [[0, 2], [8.1e307, 1]]}', SHARP_5,
     "the nodes of the piece [8.1e+307, 1e+308] are out of floating-point range"),
]
OUT_OF_RANGE_IDS = [
    "mass_overflow", "zero_constant", "sobolev_gram_overflow", "subnormal_mass",
    "hermite_subnormal_mass", "laguerre_subnormal_mass", "gen_laguerre_tiny_scale",
    "gen_hermite_tiny_scale", "gen_laguerre_huge_scale", "gen_jacobi_rescale_overflow",
    "gen_hermite_rescale_overflow", "gen_hermite_factor_nan", "gen_laguerre_factor_nan",
    "residual_square_overflow", "gram_overflow", "mirsky_square_overflow",
    "length_overflow_sharp", "length_overflow_mirsky", "antisymmetric_length_overflow_sharp",
    "antisymmetric_length_overflow_mirsky", "composite_weights_underflow",
    "gen_hermite_rule_sum_overflow", "gen_laguerre_rule_sum_overflow",
    "gen_jacobi_rule_sum_overflow", "jacobi_exponent_sum_overflow",
    "gen_jacobi_exponent_sum_overflow", "gen_jacobi_midpoint_overflow",
]


# (weight, exit code, named) of `sharp --n 5`; bytes are a weight file's contents.
# make_golden.py records them too
EDGE_WEIGHTS = [
    ('{"family": "jacobi", "alpha": 1' + "0" * 400 + "}", 2, ""),
    ('{"family": "jacobi", "alpha": 1e999}', 2, ""),
    (b"\xff\xfe{", 2, ""),
    ('{"family": "laguerre", "alpha": 1e300}', 3, "laguerre weight with exponent 1e+300"),
    ('{"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 1e308]]}', 3,
     "exponents alpha=1e+308, beta=0.0"),
    ('{"family": "jacobi", "alpha": 2000}', 3, "exponents alpha=2000.0, beta=0.0"),
    ('{"family": "gen_hermite", "alpha": 400}', 3, "gen_hermite weight with exponent 400.0"),
    ('{"family": "gen_laguerre", "singularities": [[0.5, 1e300]]}', 3,
     "gen_laguerre weight with absolute exponent sum 1e+300"),
    ('{"family": "gen_hermite", "singularities": [[0.5, 1e300]]}', 3,
     "gen_hermite weight with absolute exponent sum 1e+300"),
    ('{"family": "gen_laguerre", "singularities": [[0.5, 500]]}', 3,
     "gen_laguerre weight with absolute exponent sum 500.0"),
    ('{"family": "gen_laguerre", "singularities": [[0, 0.5], [1e6, 1]]}', 3,
     "250028-point Gauss rule"),
    ('{"family": "gen_hermite", "singularities": [[1e6, 1]]}', 3,
     "250002000032-point Gauss rule"),
    # the mass 0.001^201 B(101, 101) underflows to exactly 0
    ('{"family": "jacobi", "interval": [0, 0.001], "alpha": 100, "beta": 100}', 3,
     "mass 0.0"),
    # JSON booleans are not the numbers 1.0 and 0.0
    ('{"family": "hermite", "scale": true}', 2, "scale is not a number: True"),
    ('{"family": "laguerre", "alpha": true}', 2, "alpha is not a number: True"),
    ('{"family": "jacobi", "interval": [false, 1]}', 2,
     "interval[0] is not a number: False"),
    ('{"family": "gen_hermite", "singularities": [[true, 1]]}', 2,
     "singularity location is not a number: True"),
    # singularities that are not a list of pairs, and numbers spelled as strings
    ('{"family": "gen_hermite", "singularities": null}', 2,
     "singularities must be pairs [c, gamma]"),
    ('{"family": "gen_hermite", "singularities": 5}', 2,
     "singularities must be pairs [c, gamma]"),
    ('{"family": "gen_hermite", "singularities": true}', 2,
     "singularities must be pairs [c, gamma]"),
    ('{"family": "hermite", "scale": "2"}', 2, "scale is not a number: '2'"),
    ('{"family": "laguerre", "alpha": "0.5"}', 2, "alpha is not a number: '0.5'"),
    ('{"family": "gen_jacobi", "interval": [-1, 1], "singularities": [["0.5", "1"]]}', 2,
     "singularity location is not a number: '0.5'"),
]
EDGE_WEIGHT_IDS = [
    "int_beyond_float", "infinite_alpha", "undecodable_file", "laguerre_gamma_overflow",
    "jacobi_coefficient_overflow", "jacobi_mass_overflow", "gen_hermite_gamma_overflow",
    "gen_laguerre_tail_overflow", "gen_hermite_tail_overflow", "gen_laguerre_mass_overflow",
    "gen_laguerre_far_singularity", "gen_hermite_far_singularity", "jacobi_zero_mass",
    "bool_scale", "bool_alpha", "bool_endpoint", "bool_singularity", "null_singularities",
    "number_singularities", "bool_singularities", "string_scale", "string_alpha",
    "string_singularity",
]


class TestContracts:
    def test_missing_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--weight", "hermite")
        assert code == 2
        assert "degree" in err

    @pytest.mark.parametrize("command", ["sweep", "mirsky", "verify"])
    @pytest.mark.parametrize("weight", ["hermite", GEN_JACOBI], ids=["hermite", "gen_jacobi"])
    @pytest.mark.parametrize("n_min, n_max", [("-5", "-2"), ("0", "0")])
    def test_no_positive_degree_exits_two(self, capsys, command, weight, n_min, n_max):
        code, out, err = run_cli(
            capsys, command, "--weight", weight, "--n-min", n_min, "--n-max", n_max
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["sweep", "mirsky", "verify"])
    @pytest.mark.parametrize("n_min, n_max", [
        pytest.param("0", "3", id="0"),
        pytest.param("-2", "3", id="-2"),
        # too few degrees for verify's fit: the degree is still named first
        pytest.param("0", "2", id="0-to-2"),
        pytest.param("-2", "2", id="-2-to-2"),
    ])
    def test_range_below_degree_one_names_it(self, capsys, command, n_min, n_max):
        code, out, err = run_cli(
            capsys, command, "--weight", "legendre", "--n-min", n_min, "--n-max", n_max
        )
        assert code == 2
        assert out == ""
        assert f"n must be >= 1, got {n_min}" in err

    @pytest.mark.parametrize("command", ["sweep", "mirsky", "verify"])
    def test_step_with_single_degree_exits_two(self, capsys, command):
        # a step has no range to act on with --n; it was silently ignored
        code, out, err = run_cli(
            capsys, command, "--weight", "legendre", "--n", "3", "--n-step", "2"
        )
        assert code == 2
        assert out == ""
        assert "--n-step" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mirsky", "--weight", "hermite", "--n-min", "2", "--n-max", "4", "--lambdas", "1"],
            ["selftest", "--format", "csv"],
            ["sharp", "--weight", "hermite", "--n-min", "2", "--n-max", "3"],
            ["extremal", "--weight", "hermite", "--n-min", "2", "--n-max", "2"],
        ],
        ids=["mirsky_lambdas", "selftest_format", "sharp_range", "extremal_range"],
    )
    def test_options_no_command_reads_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["sharp", "--weight", '{"family": hermite}', "--n", "3"],
                     "invalid weight JSON: ", id="weight-json"),
        pytest.param(["sharp", "--weight", "hermite", "--n", "3", "--lambdas", "1,x"],
                     "invalid --lambdas value '1,x'", id="lambdas"),
        pytest.param(["sweep", "--weight", "hermite", "--n", "3", "--n-min", "1", "--n-max", "4"],
                     "give either --n or --n-min/--n-max, not both", id="n-and-range"),
        pytest.param(["sweep", "--weight", "hermite", "--n-min", "1"],
                     "--n-min and --n-max must be given together", id="half-range"),
        pytest.param(["sweep", "--weight", "hermite", "--n-min", "5", "--n-max", "4"],
                     "need n-min <= n-max and n-step >= 1", id="empty-range"),
    ])
    def test_bad_input_exits_two_and_names_it(self, capsys, argv, message):
        # each input check of the CLI that no other test reaches
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        from markovsharp.errors import QuadratureError

        def boom(spec, ns, lambdas=()):
            raise QuadratureError("synthetic quadrature breakdown")

        monkeypatch.setattr("markovsharp.cli.sharp_constants", boom)
        code, _, err = run_cli(capsys, "sharp", "--weight", "hermite", "--n", "3")
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("weight, n", [("laguerre0", 200), ("hermite", 400)])
    def test_degrees_past_the_christoffel_limit(self, capsys, monkeypatch, weight, n):
        # the (n+2)-point Gauss rules of these bases overflow sum_k p_k(x)^2 at
        # their outer nodes, but no constant reads a rule: each matches its
        # closed form, and no warning leaks
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "500")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sharp", "--weight", weight, "--n", str(n))
        assert code == 0 and err == ""
        if weight == "hermite":
            want = math.sqrt(2 * n)
        else:
            # |D| of Laguerre alpha = 0 is the all-ones strictly upper-triangular matrix
            want = np.linalg.svd(np.triu(np.ones((n + 1, n + 1)), 1), compute_uv=False)[0]
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-13, abs=0)

    def test_christoffel_overflow_exits_three(self, capsys, monkeypatch):
        # at n = 115 the Stieltjes ladder's 188-point Gauss-Laguerre tail rule
        # overflows sum_k p_k(x)^2 at its outer nodes (n = 114 still builds);
        # that is a numerical failure with its cause named, and no warning leaks
        monkeypatch.setenv("MARKOVSHARP_MAX_N", "500")
        weight = '{"family": "gen_laguerre", "singularities": [[2, 1]]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sharp", "--weight", weight, "--n", "115")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: 188-point Gauss rule")
        assert "Christoffel sum" in err

    def test_tiny_interval_scales_the_legendre_constant(self, capsys):
        # D_N on [0, 1e-100] is 2e100 times Legendre's, and the residual reads
        # its squares, which stay in range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sharp", "--weight",
                                     '{"family": "jacobi", "interval": [0, 1e-100]}', "--n", "40")
        assert code == 0 and err == ""
        want = 2e100 * sharp_constant_l2(load_weight("legendre"), 40).value
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("weight, argv, named", OUT_OF_RANGE_WEIGHTS, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_weight_exits_three(self, capsys, weight, argv, named):
        # an infinite mass or a zero constant is a numerical failure, never a NaN
        # residual, and its one-line message, naming the cause, is all that
        # reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--weight", weight)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure")
        assert named in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("weight, expected, named", EDGE_WEIGHTS, ids=EDGE_WEIGHT_IDS)
    def test_edge_weight_exit_codes(self, capsys, tmp_path, weight, expected, named):
        # an overflow names the family and the exponents that caused it
        if isinstance(weight, bytes):
            path = tmp_path / "w.json"
            path.write_bytes(weight)
            weight = str(path)
        code, out, err = run_cli(capsys, "sharp", "--weight", weight, "--n", "5")
        assert code == expected
        assert out == ""
        assert err.startswith("error:" if expected == 2 else "numerical failure:")
        assert named in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "sharp", "--weight", "hermite", "--n", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert err.count("\n") == 1
        assert not target.exists()

    def test_benchmark_entry_points(self):
        # perfbench/worker.py calls the package through ``ms.<name>(...)``; every
        # such call must still resolve and bind to the arguments it passes
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        worker = bench / "worker.py"
        calls = []
        for node in ast.walk(ast.parse(worker.read_text())):
            if not isinstance(node, ast.Call):
                continue
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.insert(0, func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id == "ms" and parts:
                calls.append((".".join(parts), len(node.args), [k.arg for k in node.keywords]))
        assert {name for name, _, _ in calls} >= {
            "make_weight", "verify_theorem", "SobolevSpec", "mirsky_bound", "sharp_constant_l2",
            "sharp_constant_sobolev", "markov.basis_for", "extremal_polynomial",
        }
        for name, positional, keywords in calls:
            obj = markovsharp
            for part in name.split("."):
                obj = getattr(obj, part)
            inspect.signature(obj).bind(*range(positional), **dict.fromkeys(keywords))

        # perfbench/cli_traced.py runs the command line as ``cli.main(argv)``
        traced = ast.parse((bench / "cli_traced.py").read_text())
        mains = [
            node for node in ast.walk(traced)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "main" and getattr(node.func.value, "id", None) == "cli"
        ]
        assert [(len(c.args), len(c.keywords)) for c in mains] == [(1, 0)]
        inspect.signature(main).bind(["sharp"])

        # every command line the cli_cold workload sends still parses; the
        # generator module is loaded on its own, as it imports only json and random
        source = (bench / "workloads.py").read_text()
        imported = {
            alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
        }
        assert imported <= {"annotations", "json", "random"}
        workloads = {}
        exec(compile(source, "workloads.py", "exec"), workloads)
        setup = next(
            node.value for node in ast.parse((bench / "run.py").read_text()).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SETUP_CLI"
        )
        argvs = [ast.literal_eval(setup)["args"]]
        for seed in range(1, 21):
            argvs += [inv["args"] for inv in workloads["cli_cycle"](random.Random(seed))]
        for argv in argvs:
            for extra in ([], ["--out", "FILE"]):
                build_parser().parse_args(argv + extra)

    def test_deterministic_output(self):
        cmd = [
            sys.executable, "-m", "markovsharp.cli", "sweep", "--weight", "chebyshev1",
            "--n-min", "1", "--n-max", "8", "--lambdas", "0.5,0.25", "--format", "csv",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
        second = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
        assert first.stdout == second.stdout
        assert first.stdout.decode().startswith("n,sharp")

    def test_entrypoint_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "markovsharp.cli", "--help"], capture_output=True, env=CHILD_ENV
        )
        assert out.returncode == 0
        assert b"sharp" in out.stdout and b"selftest" in out.stdout

    def test_runtime_imports_no_scipy(self):
        # scipy is a test-only dependency: importing the CLI, computing a
        # Stieltjes-built Sobolev constant and running a command load none of it
        code = """
import io, sys, contextlib
import markovsharp.cli as cli
from markovsharp import SobolevSpec, make_weight, sharp_constant_sobolev
spec = make_weight({"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]})
sharp_constant_sobolev(spec, SobolevSpec((1.0, 0.5)), 12)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sharp", "--weight", "hermite", "--n", "5"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_every_import_is_used(self):
        # stands in for a linter: an import that its module never reads is
        # dead code, often left behind when a function is deleted
        unused = []
        for path in sorted(Path(markovsharp.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:  # a package re-exports through __all__
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                    read |= set(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                    unused += [f"{path.name}: {name}" for name in bound if name not in read]
        assert unused == []

    def test_modules_import_in_layer_order(self):
        # each module imports only the modules before it, and only at the top;
        # the weight families are named below markov, never in it
        layers = ["errors", "orthopoly", "quadrature", "markov", "bounds", "cli"]
        wrong = []
        for path in sorted(Path(markovsharp.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    wrong += [f"{path.name}: import inside {node.name}"
                              for inner in ast.walk(node)
                              if isinstance(inner, (ast.Import, ast.ImportFrom))]
            if path.stem == "__init__":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level:
                    names = [node.module] if node.module else [a.name for a in node.names]
                    wrong += [f"{path.name}: imports {name}" for name in names
                              if layers.index(name) >= layers.index(path.stem)]
        markov_source = Path(markovsharp.markov.__file__).read_text()
        wrong += [f"markov.py: names {node.value!r}" for node in ast.walk(ast.parse(markov_source))
                  if isinstance(node, ast.Constant)
                  and node.value in markovsharp.orthopoly.FAMILIES]
        assert wrong == []

    def test_public_names_resolve(self):
        assert [name for name in markovsharp.__all__ if not hasattr(markovsharp, name)] == []


class TestRecords:
    # the records, WeightSpec among them, are namedtuples that validate in
    # __new__; a cold call then runs no generated dataclass code
    def test_replace_validates(self):
        spec = make_weight({"family": "hermite"})
        res = sharp_constant_l2(spec, 3)
        again = res._replace(coeffs=[1, 2, 3, 4])
        assert again.coeffs.dtype == float and not again.coeffs.flags.writeable
        assert again.coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]
        rec = recurrence_classical(spec, 3)
        with pytest.raises(ValueError, match="strictly positive"):
            rec._replace(offdiag=-rec.offdiag)
        rule = gauss_rule(rec, 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            rule._replace(nodes=rule.nodes[::-1])
        with pytest.raises(WeightError, match="finite and >= 0"):
            SobolevSpec((1.0,))._replace(lambdas=(-1.0,))

    def test_sharp_result_degree_is_an_int(self):
        # (6,) == (6.0,) and (2,) == (True + 1,), so only the degree check
        # rejects these; a numpy integer is kept as a Python int
        res = sharp_constant_l2(make_weight({"family": "hermite"}), 5)
        for n, coeffs in ((5.0, res.coeffs), (True, res.coeffs[:2])):
            fields = (n, res.value, coeffs, *res[3:])
            for build in (lambda: SharpResult(*fields), lambda: SharpResult._make(fields),
                          lambda: res._replace(n=n, coeffs=coeffs)):
                with pytest.raises(WeightError, match=f"^degree {n!r} is not an integer$"):
                    build()
        assert type(res._replace(n=np.int64(5)).n) is int

    @staticmethod
    def _records():
        """One valid instance of each checked record, invalid fields for it, and its error."""
        spec = make_weight({"family": "hermite"})
        rec = recurrence_classical(spec, 3)
        rule = gauss_rule(rec, 3)
        res = sharp_constant_l2(spec, 3)
        return {
            "WeightSpec": (spec, ("hermite", (0.0, 1.0), 0.0, 0.0, (), 1.0), WeightError,
                           "whole real line"),
            "RecurrenceTable": (rec, (3, rec.diag, -rec.offdiag, rec.mass, rec.weight_id),
                                ValueError, "strictly positive"),
            "QuadRule": (rule, (rule.nodes[::-1], rule.weights), ValueError,
                         "strictly increasing"),
            "SobolevSpec": (SobolevSpec((1.0,)), ((-1.0,),), WeightError, "finite and >= 0"),
            "SharpResult": (res, (3, res.value, res.coeffs[:3], *res[3:]), ValueError,
                            "for degree 3"),
        }

    @pytest.mark.parametrize("name", ["WeightSpec", "RecurrenceTable", "QuadRule",
                                      "SobolevSpec", "SharpResult"])
    def test_copies_and_unpickling_run_the_checks(self, name):
        valid, fields, error, match = self._records()[name]
        unchecked = tuple.__new__(type(valid), fields)
        copies = [copy.copy, copy.deepcopy] + [
            lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for make_copy in copies:
            with pytest.raises(error, match=match):
                make_copy(unchecked)
            again = make_copy(valid)
            assert type(again) is type(valid) and again._fields == valid._fields
            for field, value in zip(again, valid):
                if isinstance(value, np.ndarray):
                    assert not field.flags.writeable and field.tobytes() == value.tobytes()
                else:
                    assert field == value

    @pytest.mark.parametrize("name", ["RecurrenceTable", "QuadRule", "SharpResult"])
    def test_records_own_their_arrays(self, name):
        # a record freezes a copy: the caller's arrays stay writable, and
        # writing through a view taken before the record was built leaves it
        # as built (at -5.0, a QuadRule weight would have escaped its check)
        valid = self._records()[name][0]
        fields = [np.array(v) if isinstance(v, np.ndarray) else v for v in valid]
        given = [v for v in fields if isinstance(v, np.ndarray)]
        views = [a[:] for a in given]
        record = type(valid)(*fields)
        for a, view in zip(given, views):
            assert a.flags.writeable
            view[0] = -5.0
        for field, value in zip(record, valid):
            if isinstance(value, np.ndarray):
                assert not field.flags.writeable and field.tobytes() == value.tobytes()

    def test_weight_spec_is_immutable_hashable_and_picklable(self):
        spec = make_weight({"family": "jacobi", "alpha": 0.5})
        twin = make_weight({"family": "jacobi", "alpha": 0.5})
        assert spec == twin and spec is not twin and hash(spec) == hash(twin)
        assert spec != make_weight({"family": "jacobi", "alpha": 0.25})
        with pytest.raises(AttributeError):
            spec.alpha = 1.0
        with pytest.raises(AttributeError):
            spec.weight_id = "{}"
        assert spec.alpha == 0.5
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec and again.weight_id == spec.weight_id
        # a hand-built weight holds floats, so it shares the parsed weight's id and basis
        built = WeightSpec("jacobi", (-1, 1), alpha=1)
        assert built.weight_id == make_weight({"family": "jacobi", "alpha": 1}).weight_id
        assert '"alpha":1.0' in built.weight_id and built == tuple(built)

    def test_no_module_imports_dataclasses(self):
        imported = []
        for path in sorted(Path(markovsharp.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported += [(path.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.append((path.name, node.module))
        assert [(f, m) for f, m in imported if m.split(".")[0] == "dataclasses"] == []

    def test_selftest_loads_no_numpy_random(self):
        # numpy 1.x imports numpy.random with numpy itself, so compare with a
        # bare import; -X importtime lists every module a process loads
        def random_modules(*argv):
            out = subprocess.run(
                [sys.executable, "-X", "importtime", *argv],
                capture_output=True, text=True, env=CHILD_ENV,
            )
            assert out.returncode == 0, out.stderr
            names = {ln.rsplit("|", 1)[-1].strip() for ln in out.stderr.splitlines()
                     if ln.startswith("import time:")}
            return {name for name in names if name.startswith("numpy.random")}

        assert random_modules("-m", "markovsharp.cli", "selftest") == random_modules(
            "-c", "import numpy"
        )
