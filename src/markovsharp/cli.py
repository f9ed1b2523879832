"""Batch command-line front end: compute, sweep, verify, and export.

Subcommands: sharp, sweep, mirsky, extremal, verify, selftest.  Weights are
given as a preset name, inline JSON, or a path to a JSON file.  Output is
JSON or CSV with shortest-round-trip float formatting, so identical
configurations produce byte-identical output.

Exit codes: 0 success (and verify pass), 1 verify exponent failure or
selftest failure, 2 invalid weight/arguments/hypothesis, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds, markov
from .errors import HypothesisError, MarkovSharpError, WeightError
from .linalg import svd_largest
from .markov import (
    SobolevSpec,
    basis_for,
    derivative_matrix,
    extremal_polynomial,
    mirsky_bound,
    result_to_json,
    sharp_constant_l2,
    sharp_constant_sobolev,
    sobolev_gram,
)
from .orthopoly import WeightSpec, eval_orthonormal, make_weight, recurrence_classical
from .quadrature import gauss_rule, integrate

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


@dataclass
class RunConfig:
    command: str
    weight: WeightSpec | None = None
    lambdas: tuple[float, ...] = ()
    n_range: tuple[int, ...] = ()
    case: str = ""
    output_format: str = "json"
    output_path: str = ""
    tol: float | None = None


def load_weight(token: str) -> WeightSpec:
    """Resolve a --weight argument: preset name, inline JSON, or JSON file."""
    if token in PRESETS:
        return make_weight(dict(PRESETS[token]))
    text = token
    if not token.lstrip().startswith("{"):
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


def _parse_lambdas(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise WeightError(f"invalid --lambdas value {text!r}") from exc


def _emit(config: RunConfig, payload: str) -> None:
    if config.output_path:
        Path(config.output_path).write_text(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _sobolev(config: RunConfig) -> SobolevSpec | None:
    return SobolevSpec(config.lambdas) if config.lambdas else None


def _sharp(config: RunConfig, n: int, basis=None):
    sob = _sobolev(config)
    if sob is None:
        return sharp_constant_l2(config.weight, n, basis)
    return sharp_constant_sobolev(config.weight, sob, n, basis)


def cmd_sharp(config: RunConfig) -> str:
    res = _sharp(config, config.n_range[0])
    if config.output_format == "csv":
        lines = ["n,value,residual," + ",".join(f"coeff_{k}" for k in range(res.n + 1))]
        lines.append(
            f"{res.n},{res.value!r},{res.residual!r},"
            + ",".join(repr(float(c)) for c in res.coeffs)
        )
        return "\n".join(lines) + "\n"
    return _to_json(result_to_json(res))


def cmd_sweep(config: RunConfig) -> str:
    spec = config.weight
    case = bounds.default_case(spec)
    sob = _sobolev(config)
    basis = basis_for(spec, max(config.n_range))
    rows = []
    for n in config.n_range:
        l2 = sharp_constant_l2(spec, n, basis)
        sobolev = l2 if sob is None else sharp_constant_sobolev(spec, sob, n, basis)
        rows.append(
            {
                "n": n,
                "sharp": l2.value,
                "sobolev": sobolev.value,
                "mirsky": mirsky_bound(spec, n, basis),
                "envelope": bounds.predicted_envelope(case, spec, n),
            }
        )
    if config.output_format == "csv":
        lines = ["n,sharp,sobolev,mirsky,envelope"]
        for r in rows:
            lines.append(
                f"{r['n']},{r['sharp']!r},{r['sobolev']!r},{r['mirsky']!r},{r['envelope']!r}"
            )
        return "\n".join(lines) + "\n"
    return _to_json({"weight": bounds.weight_to_json(spec), "case": case, "rows": rows})


def cmd_mirsky(config: RunConfig) -> str:
    spec = config.weight
    basis = basis_for(spec, max(config.n_range))
    rows = [{"n": n, "mirsky": mirsky_bound(spec, n, basis)} for n in config.n_range]
    if config.output_format == "csv":
        lines = ["n,mirsky"] + [f"{r['n']},{r['mirsky']!r}" for r in rows]
        return "\n".join(lines) + "\n"
    return _to_json({"weight": bounds.weight_to_json(spec), "rows": rows})


def cmd_extremal(config: RunConfig) -> str:
    n = config.n_range[0]
    basis = basis_for(config.weight, n)
    res = _sharp(config, n, basis)
    poly = extremal_polynomial(res, basis[0])
    if config.output_format == "csv":
        lines = [f"# achieved_ratio: {poly.achieved_ratio!r}"]
        lines.append(f"# residual: {poly.residual!r}")
        lines.append("k,coeff")
        lines.extend(f"{k},{float(c)!r}" for k, c in enumerate(res.coeffs))
        return "\n".join(lines) + "\n"
    payload = result_to_json(res)
    payload["achieved_ratio"] = poly.achieved_ratio
    return _to_json(payload)


def cmd_verify(config: RunConfig) -> tuple[str, bool]:
    sob = _sobolev(config) or SobolevSpec((0.0,))
    spec = config.weight
    case = config.case or bounds.default_case(spec)
    slack = bounds.FIT_SLACK if config.tol is None else config.tol
    check = bounds.verify_theorem(case, spec, sob, config.n_range, slack=slack)
    if config.output_format == "csv":
        return bounds.bound_check_to_csv(check, spec), check.passed
    return _to_json(bounds.bound_check_to_json(check, spec)), check.passed


def _selftest_quadrature(rng) -> tuple[bool, str]:
    worst = 0.0
    m = 8
    for name in ("legendre", "chebyshev1", "laguerre0", "hermite"):
        spec = make_weight(dict(PRESETS[name]))
        rec = recurrence_classical(spec, 4 * m)
        rule = gauss_rule(rec, m)
        ref = gauss_rule(rec, 4 * m)
        for _ in range(20):
            coeffs = rng.standard_normal(2 * m)  # degree 2m-1
            val = integrate(rule, lambda x: np.polyval(coeffs, x))
            ref_val = integrate(ref, lambda x: np.polyval(coeffs, x))
            worst = max(worst, abs(val - ref_val) / max(1.0, abs(ref_val)))
    return worst <= 1e-11, f"max exactness deviation {worst:.3e} (tol 1e-11)"


def _selftest_orthonormality() -> tuple[bool, str]:
    specs = [
        make_weight(dict(PRESETS["legendre"])),
        make_weight(dict(PRESETS["chebyshev1"])),
        make_weight(dict(PRESETS["laguerre0"])),
        make_weight(dict(PRESETS["hermite"])),
        make_weight(
            {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}
        ),
    ]
    worst = 0.0
    n = 12
    for spec in specs:
        rec, rule = basis_for(spec, n)
        table = eval_orthonormal(rec, rule.nodes, n)
        gram = (table * rule.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n + 1)))))
    return worst <= 1e-10, f"max Gram deviation from identity {worst:.3e} (tol 1e-10)"


def _selftest_eigen(rng) -> tuple[bool, str]:
    worst = 0.0
    sob = SobolevSpec((1.0, 0.5))
    for size, name in ((3, "legendre"), (8, "laguerre0"), (15, "hermite")):
        rect = rng.standard_normal((size, size + 1))
        sigma, v = svd_largest(rect)
        worst = max(worst, abs(np.linalg.norm(rect @ v) - sigma) / max(sigma, 1e-300))

        # the pencil (D^T B D, B) of a Sobolev constant, with A formed here
        spec = make_weight(dict(PRESETS[name]))
        res = sharp_constant_sobolev(spec, sob, size)
        mat = derivative_matrix(recurrence_classical(spec, size), size)
        b = sobolev_gram(mat, sob.lambdas)
        a = mat.T @ b @ mat
        theta, c = res.value**2, res.coeffs
        pencil = np.linalg.norm(a @ c - theta * b @ c) / (
            np.linalg.norm(a) + theta * np.linalg.norm(b)
        )
        worst = max(worst, pencil)
    return worst <= 1e-10, f"max eigen/SVD residual {worst:.3e} (tol 1e-10)"


def _selftest_gamma_ratio() -> tuple[bool, str]:
    ratios = bounds.gamma_ratio_sequence(0.5, 0.0, [10, 100, 1000])
    devs = [abs(r - 1.0) for r in ratios]
    ok = all(d2 < d1 for d1, d2 in zip(devs, devs[1:])) and devs[-1] < 1e-3
    return ok, f"|ratio-1| sequence {devs}"


def cmd_selftest(config: RunConfig) -> tuple[str, bool]:
    rng = np.random.default_rng(20240901)
    suites = [
        ("quadrature-exactness", lambda: _selftest_quadrature(rng)),
        ("orthonormality", _selftest_orthonormality),
        ("eigen-svd-residuals", lambda: _selftest_eigen(rng)),
        ("gamma-ratio-limit", _selftest_gamma_ratio),
    ]
    lines = []
    all_ok = True
    for name, fn in suites:
        ok, detail = fn()
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"{'PASS' if all_ok else 'FAIL'} overall")
    return "\n".join(lines) + "\n", all_ok


def _add_weight_args(p, required=True):
    p.add_argument("--weight", required=required, help="preset name, inline JSON, or JSON file")
    p.add_argument("--lambdas", default="", help="comma-separated Sobolev weights, e.g. 1,0.5")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
    p.add_argument("--out", default="", dest="output_path", help="output file (default stdout)")


def _add_range_args(p):
    p.add_argument("--n", type=int, help="single degree")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--n-step", type=int, dest="n_step", default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovsharp",
        description="Sharp Markov constants in weighted L2 and Sobolev norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("sharp", "sharp constant and extremal coefficients at one degree"),
        ("sweep", "table of sharp/sobolev/mirsky/envelope over a degree range"),
        ("mirsky", "Mirsky upper bound over a degree range"),
        ("extremal", "extremal polynomial report at one degree"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_weight_args(p)
        _add_range_args(p)

    p = sub.add_parser("verify", help="fit growth exponents against the predicted bound")
    _add_weight_args(p)
    _add_range_args(p)
    p.add_argument("--case", default="", choices=("",) + bounds.CASE_IDS)
    p.add_argument("--tol", type=float, default=None, help="override the fit slack (default 0.1)")

    p = sub.add_parser("selftest", help="kernel self-tests: quadrature, orthonormality, eigen, gamma")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
    p.add_argument("--out", default="", dest="output_path")
    return parser


def _resolve_range(args, command: str) -> tuple[int, ...]:
    if args.n is not None and (args.n_min is not None or args.n_max is not None):
        raise WeightError("give either --n or --n-min/--n-max, not both")
    if args.n is not None:
        return (args.n,)
    if args.n_min is not None or args.n_max is not None:
        if args.n_min is None or args.n_max is None:
            raise WeightError("--n-min and --n-max must be given together")
        if args.n_step < 1 or args.n_max < args.n_min:
            raise WeightError("need n-min <= n-max and n-step >= 1")
        return tuple(range(args.n_min, args.n_max + 1, args.n_step))
    raise WeightError(f"{command}: a degree is required (--n or --n-min/--n-max)")


def parse_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    config = RunConfig(command=args.command)
    config.output_format = getattr(args, "output_format", "json")
    config.output_path = getattr(args, "output_path", "")
    if args.command == "selftest":
        return config
    config.weight = load_weight(args.weight)
    config.lambdas = _parse_lambdas(args.lambdas)
    config.n_range = _resolve_range(args, args.command)
    if args.command in ("sharp", "extremal"):
        if len(config.n_range) != 1:
            raise WeightError(f"{args.command} needs a single --n")
        if config.n_range[0] < 1:
            raise WeightError("n must be >= 1")
    if args.command == "verify":
        config.case = args.case
        config.tol = args.tol
    return config


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (WeightError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        if config.command == "sharp":
            _emit(config, cmd_sharp(config))
        elif config.command == "sweep":
            _emit(config, cmd_sweep(config))
        elif config.command == "mirsky":
            _emit(config, cmd_mirsky(config))
        elif config.command == "extremal":
            _emit(config, cmd_extremal(config))
        elif config.command == "verify":
            payload, passed = cmd_verify(config)
            _emit(config, payload)
            return EXIT_OK if passed else EXIT_VERIFY_FAIL
        elif config.command == "selftest":
            payload, passed = cmd_selftest(config)
            _emit(config, payload)
            return EXIT_OK if passed else EXIT_VERIFY_FAIL
    except (WeightError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (MarkovSharpError, np.linalg.LinAlgError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
