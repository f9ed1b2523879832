import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovsharp
from markovsharp import (
    QuadRule,
    SobolevSpec,
    mirsky_bound,
    sharp_constant_l2,
    sharp_constant_sobolev,
)
from markovsharp.bounds import default_case, verify_theorem
from markovsharp.cli import load_weight, main

# child interpreters import the same sources as this one, installed or not
SRC = str(Path(markovsharp.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}


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
        assert lines[0].startswith("# achieved_ratio:")
        assert lines[2] == "k,coeff"


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
        import dataclasses

        from markovsharp import bounds

        exact = bounds.sharp_constant_l2

        def off_by_one_percent(spec, n, basis=None):
            res = exact(spec, n)
            return dataclasses.replace(res, value=res.value * 1.01)

        monkeypatch.setattr(bounds, "sharp_constant_l2", off_by_one_percent)
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
    """Degrees passed to basis_for, counted through every markovsharp module's binding."""
    from markovsharp import markov

    calls = []
    original = markov.basis_for

    def counted(spec, n):
        calls.append(n)
        return original(spec, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("markovsharp") and getattr(module, "basis_for", None) is original:
            monkeypatch.setattr(module, "basis_for", counted)
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
        spec = load_weight(GEN_JACOBI)
        verify_theorem("gen_jacobi_4", spec, SobolevSpec((1.0, 0.5)), range(4, 13))
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

    @pytest.mark.parametrize("token", CLASSICAL)
    def test_classical_values_equal_per_degree(self, capsys, token):
        spec, sob = load_weight(token), SobolevSpec((1.0, 0.5))
        for row in _sweep_rows(capsys, token):
            n = row["n"]
            assert row["sharp"] == sharp_constant_l2(spec, n).value
            assert row["sobolev"] == sharp_constant_sobolev(spec, sob, n).value
            assert row["mirsky"] == mirsky_bound(spec, n)
        case = default_case(spec)
        check = verify_theorem(case, spec, sob, range(4, 21))
        if case == "schmidt":
            expected = [sharp_constant_l2(spec, n).value for n in range(4, 21)]
        else:
            expected = [sharp_constant_sobolev(spec, sob, n).value for n in range(4, 21)]
        assert list(check.sharp_values) == expected

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


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(ln.startswith("PASS") for ln in lines)
        assert any("quadrature" in ln for ln in lines)
        assert any("orthonormality" in ln for ln in lines)
        assert any("eigen" in ln for ln in lines)
        assert any("gamma" in ln for ln in lines)

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


class TestContracts:
    def test_missing_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--weight", "hermite")
        assert code == 2
        assert "degree" in err

    def test_numerical_failure_exits_three(self, capsys, monkeypatch):
        from markovsharp.errors import QuadratureError

        def boom(spec, n, basis=None):
            raise QuadratureError("synthetic quadrature breakdown")

        monkeypatch.setattr("markovsharp.cli.sharp_constant_l2", boom)
        code, _, err = run_cli(capsys, "sharp", "--weight", "hermite", "--n", "3")
        assert code == 3
        assert "numerical failure" in err

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
