"""Batch command-line front end: compute, sweep, verify, and export.

Subcommands and the options each one reads:

    sharp, extremal   --weight --n [--lambdas] [--format] [--out]
    sweep             --weight (--n | --n-min --n-max [--n-step]) [--lambdas] [--format] [--out]
    mirsky            --weight (--n | --n-min --n-max [--n-step]) [--format] [--out]
    verify            as sweep, plus [--case] [--tol]
    selftest          [--out]

Weights are given as a preset name, inline JSON, or a path to a JSON file.
Each subparser sets ``run`` to its ``cmd_*`` function.  ``main`` resolves the
weight, the Sobolev weights (``()`` for the weighted L2 norm) and the degrees
once, calls ``args.run(args)``, which returns ``(text, passed)``, writes the
text to stdout or ``--out`` and maps exceptions to exit codes.  Every sharp
constant comes from ``sharp_constants(weight, degrees, lambdas)``.  This
module alone knows the output formats: JSON with sorted keys, and CSV with
shortest-round-trip floats and lower-case booleans, so identical
configurations produce byte-identical output.

Exit codes: 0 success (and verify pass), 1 verify exponent failure or
selftest failure, 2 invalid weight/arguments/hypothesis or an unwritable
``--out``, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .errors import HypothesisError, MarkovSharpError, WeightError
from .markov import (
    SharpResult,
    SobolevSpec,
    basis_for,
    derivative_matrix,
    mirsky_bounds,
    sharp_constants,
    sobolev_gram,
    solve_triangular,
)
from .orthopoly import (
    RecurrenceTable,
    WeightSpec,
    eval_derivative_table,
    make_weight,
    recurrence_classical,
    weight_to_json,
)
from .quadrature import _recurrence_change, gauss_rule, stabilized_stieltjes

PRESETS = {
    "legendre": {"family": "jacobi", "interval": [-1, 1], "alpha": 0.0, "beta": 0.0},
    "chebyshev1": {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5},
    "laguerre0": {"family": "laguerre", "alpha": 0.0},
    "hermite": {"family": "hermite"},
}

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


def load_weight(token: str) -> WeightSpec:
    """Resolve a --weight argument: preset name, inline JSON, or JSON file.

    A token that starts with ``{`` or ``[`` is inline JSON, anything else a path.
    """
    if token in PRESETS:
        return make_weight(dict(PRESETS[token]))
    text = token
    if not token.lstrip().startswith(("{", "[")):
        path = Path(token)
        if not path.is_file():
            raise WeightError(
                f"--weight {token!r} is neither a preset ({', '.join(sorted(PRESETS))}), "
                "inline JSON, nor an existing file"
            )
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise WeightError(f"cannot read weight file {token!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WeightError(f"invalid weight JSON: {exc}") from exc
    return make_weight(raw)


def _lambdas(text: str) -> tuple[float, ...]:
    """The --lambdas value, validated as a Sobolev norm's weights; () for the weighted L2 norm."""
    if not text:
        return ()
    try:
        lambdas = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise WeightError(f"invalid --lambdas value {text!r}") from exc
    return SobolevSpec(lambdas).lambdas


def _degrees(args) -> tuple[int, ...]:
    """The degrees given by --n, or by --n-min/--n-max/--n-step where the command has them."""
    n_min, n_max = getattr(args, "n_min", None), getattr(args, "n_max", None)
    n_step = getattr(args, "n_step", None)
    if args.n is not None and (n_min is not None or n_max is not None):
        raise WeightError("give either --n or --n-min/--n-max, not both")
    if args.n is not None:
        if n_step is not None:
            raise WeightError("--n-step goes with --n-min/--n-max, not with --n")
        return (args.n,)
    if n_min is not None or n_max is not None:
        if n_min is None or n_max is None:
            raise WeightError("--n-min and --n-max must be given together")
        step = 1 if n_step is None else n_step
        if step < 1 or n_max < n_min:
            raise WeightError("need n-min <= n-max and n-step >= 1")
        return tuple(range(n_min, n_max + 1, step))
    raise WeightError(f"{args.command}: a degree is required (--n or --n-min/--n-max)")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _csv(header, rows, comments=()) -> str:
    """``# key: value`` lines for ``comments``, the header, then one line per row.

    Floats are written with ``repr`` (shortest round trip), booleans in lower case.
    """

    def cell(v) -> str:
        if isinstance(v, bool):
            return str(v).lower()
        return repr(float(v)) if isinstance(v, float) else str(v)

    lines = [f"# {key}: {cell(value)}" for key, value in comments]
    lines.append(",".join(header))
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _result_json(res: SharpResult) -> dict:
    return {
        "n": res.n,
        "value": res.value,
        "coeffs": [float(c) for c in res.coeffs],
        "residual": res.residual,
        "weight": weight_to_json(res.weight),
        "lambdas": list(res.lambdas),
    }


def _table(args, header, rows, **fields) -> str:
    """A per-degree table as CSV, or as JSON rows keyed by ``header`` beside the weight."""
    if args.format == "csv":
        return _csv(header, rows)
    return _json({"weight": weight_to_json(args.weight), **fields,
                  "rows": [dict(zip(header, row)) for row in rows]})


def cmd_sharp(args) -> tuple[str, bool]:
    res = sharp_constants(args.weight, args.ns, args.lambdas)[0]
    if args.format == "csv":
        header = ("n", "value", "residual", *(f"coeff_{k}" for k in range(res.n + 1)))
        return _csv(header, [(res.n, res.value, res.residual, *res.coeffs)]), True
    return _json(_result_json(res)), True


def cmd_sweep(args) -> tuple[str, bool]:
    spec = args.weight
    case = bounds.default_case(spec)
    # every column reads the one basis kept for the largest degree
    sobolev = sharp_constants(spec, args.ns, args.lambdas) if args.lambdas else None
    l2 = sharp_constants(spec, args.ns)
    mirsky = mirsky_bounds(spec, args.ns)
    rows = [
        (n, a.value, b.value, m, bounds.predicted_envelope(case, spec, n))
        for n, a, b, m in zip(args.ns, l2, sobolev or l2, mirsky)
    ]
    return _table(args, ("n", "sharp", "sobolev", "mirsky", "envelope"), rows, case=case), True


def cmd_mirsky(args) -> tuple[str, bool]:
    rows = list(zip(args.ns, mirsky_bounds(args.weight, args.ns)))
    return _table(args, ("n", "mirsky"), rows), True


def cmd_extremal(args) -> tuple[str, bool]:
    res = sharp_constants(args.weight, args.ns, args.lambdas)[0]
    if args.format == "csv":
        comments = (("achieved_ratio", res.achieved_ratio), ("residual", res.residual))
        return _csv(("k", "coeff"), enumerate(res.coeffs), comments), True
    return _json({**_result_json(res), "achieved_ratio": res.achieved_ratio}), True


def cmd_verify(args) -> tuple[str, bool]:
    spec = args.weight
    case = args.case or bounds.default_case(spec)
    slack = bounds.FIT_SLACK if args.tol is None else args.tol
    sob = SobolevSpec(args.lambdas)
    check = bounds.verify_theorem(case, spec, sob, args.ns, slack=slack)
    if args.format == "csv":
        header = ("case_id", "n", "sharp", "predicted_envelope", "fitted_constant",
                  "fitted_exponent", "pass")
        rows = [
            (check.case_id, n, v, bounds.predicted_envelope(check.case_id, spec, n),
             check.fitted_constant, check.fitted_exponent, check.passed)
            for n, v in zip(check.n_range, check.sharp_values)
        ]
        return _csv(header, rows), check.passed
    payload = check._asdict()
    payload["pass"] = payload.pop("passed")
    return _json({**payload, "weight": weight_to_json(spec)}), check.passed


def _selftest_quadrature() -> tuple[bool, str]:
    # 20 polynomials of degree 2m-1 per preset, highest power first, with
    # coefficients frac(k * phi) - 1/2, k = 1, 2, ...: the golden-ratio Weyl
    # sequence is deterministic and equidistributed, so the test gets generic
    # inputs without loading a random generator
    worst = 0.0
    m = 8
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    k = np.arange(1, len(PRESETS) * 2 * m * 20 + 1)
    draws = (k * phi % 1.0 - 0.5).reshape(len(PRESETS), 2 * m, 20)
    for name, coeffs in zip(PRESETS, draws):
        rec = recurrence_classical(load_weight(name), 4 * m)
        rule = gauss_rule(rec, m)
        ref = gauss_rule(rec, 4 * m)
        val = rule.weights @ np.vander(rule.nodes, 2 * m) @ coeffs
        ref_val = ref.weights @ np.vander(ref.nodes, 2 * m) @ coeffs
        worst = max(worst, float(np.max(np.abs(val - ref_val) / np.maximum(1.0, np.abs(ref_val)))))
    return worst <= 1e-11, f"max exactness deviation {worst:.3e} (tol 1e-11)"


def _selftest_orthonormality() -> tuple[bool, str]:
    # on basis_for's rule the basis is orthonormal, and the quadrature matrix
    # of <p_i, p_k'> is derivative_matrix's, which the constants read
    gen_jacobi = '{"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}'
    gram_dev = mat_dev = 0.0
    n = 12
    for name in (*PRESETS, gen_jacobi):
        rec, rule = basis_for(load_weight(name), n)
        table = eval_derivative_table(rec, rule.nodes, n, 1)
        # entries (i, k) of <p_i, p_k> and <p_i, p_k'>
        gram, conn = (table[0] * rule.weights) @ table.transpose(0, 2, 1)
        mat = derivative_matrix(rec, n)
        gram_dev = max(gram_dev, float(np.max(np.abs(gram - np.eye(n + 1)))))
        mat_dev = max(mat_dev, float(np.max(np.abs(conn - mat)) / np.linalg.norm(mat, 2)))
    return gram_dev <= 1e-10 and mat_dev <= 1e-10, (
        f"max Gram deviation from identity {gram_dev:.3e}, max derivative-matrix deviation "
        f"{mat_dev:.3e} of its norm (tol 1e-10)")


def _selftest_recurrence() -> tuple[bool, str]:
    # separate builds must agree: a degree-n table is the leading block of a longer one
    spec = load_weight('{"family": "gen_laguerre", "singularities": [[2.0, 1.0]]}')
    ref = stabilized_stieltjes(spec, 12)
    worst = 0.0
    for n in (4, 8):
        block = RecurrenceTable(n, ref.diag[: n + 1], ref.offdiag[:n], ref.mass)
        worst = max(worst, _recurrence_change(block, stabilized_stieltjes(spec, n)))
    return worst <= 1e-12, f"max deviation from degree-12 leading blocks {worst:.3e} (tol 1e-12)"


def _selftest_eigen() -> tuple[bool, str]:
    worst = 0.0
    for size, name in ((3, "legendre"), (8, "laguerre0"), (15, "hermite")):
        spec = load_weight(name)
        mat = derivative_matrix(recurrence_classical(spec, size), size)
        # the pencil (D^T B D, B) of each constant, with A formed here; B = I in the L2 norm
        for lambdas in ((), (1.0, 0.5)):
            res = sharp_constants(spec, [size], lambdas)[0]
            b = sobolev_gram(mat, lambdas)
            a = mat.T @ b @ mat
            theta, c = res.value**2, res.coeffs
            pencil = np.linalg.norm(a @ c - theta * b @ c) / (
                np.linalg.norm(a) + theta * np.linalg.norm(b)
            )
            # every eigenpair of the pencil passes that residual: theta must also
            # be the top eigenvalue of L^-1 A L^-T, where B = L L^T
            chol = np.linalg.cholesky(b)
            half = solve_triangular(chol, a, lower=True)
            top = np.linalg.eigvalsh(solve_triangular(chol, half.T, lower=True))[-1]
            worst = max(worst, pencil, abs(theta - top) / top)
    return worst <= 1e-10, f"max eigen/SVD residual {worst:.3e} (tol 1e-10)"


def cmd_selftest(args) -> tuple[str, bool]:
    suites = [
        ("quadrature-exactness", _selftest_quadrature),
        ("orthonormality", _selftest_orthonormality),
        ("recurrence-consistency", _selftest_recurrence),
        ("eigen-svd-residuals", _selftest_eigen),
    ]
    lines = []
    all_ok = True
    for name, fn in suites:
        ok, detail = fn()
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"{'PASS' if all_ok else 'FAIL'} overall")
    return "\n".join(lines) + "\n", all_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovsharp",
        description="Sharp Markov constants in weighted L2 and Sobolev norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # name, command, help, takes a degree range, takes --lambdas
    for name, run, doc, ranged, sobolev in (
        ("sharp", cmd_sharp, "sharp constant and extremal coefficients at one degree",
         False, True),
        ("sweep", cmd_sweep, "table of sharp/sobolev/mirsky/envelope over a degree range",
         True, True),
        ("mirsky", cmd_mirsky, "Mirsky upper bound over a degree range", True, False),
        ("extremal", cmd_extremal, "extremal polynomial report at one degree", False, True),
        ("verify", cmd_verify, "fit growth exponents against the predicted bound", True, True),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(run=run)
        p.add_argument("--weight", required=True, help="preset name, inline JSON, or JSON file")
        if sobolev:
            p.add_argument("--lambdas", default="",
                           help="comma-separated Sobolev weights, e.g. 1,0.5")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="", help="output file (default stdout)")
        p.add_argument("--n", type=int, help="single degree")
        if ranged:
            p.add_argument("--n-min", type=int)
            p.add_argument("--n-max", type=int)
            p.add_argument("--n-step", type=int)
        if name == "verify":
            p.add_argument("--case", default="", choices=("",) + bounds.CASE_IDS)
            p.add_argument("--tol", type=float, default=None,
                           help=f"override the fit slack (default {bounds.FIT_SLACK})")

    p = sub.add_parser(
        "selftest", help="kernel self-tests: quadrature, orthonormality, recurrence, eigen"
    )
    p.set_defaults(run=cmd_selftest)
    p.add_argument("--out", default="", help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "selftest":
            args.weight = load_weight(args.weight)
            args.lambdas = _lambdas(getattr(args, "lambdas", ""))
            args.ns = _degrees(args)
        text, passed = args.run(args)
    except (WeightError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (MarkovSharpError, np.linalg.LinAlgError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
