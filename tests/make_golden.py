"""Write the golden files that test_golden.py pins.

golden_verify_matrix.json holds, for every weight of the benchmark's
criterion-5 matrix (``VERIFY_MATRIX`` in perfbench/workloads.py) and for
n = 1..40, the sharp constants in the weighted L2 norm and in the Sobolev
norm with lambda = (1, 0.5), and the Mirsky bounds, each as the range call
over all 40 degrees computes them.

golden_random_requests.json holds the four blocks of random_requests that
``random.Random(1)`` generates (``random_block`` in perfbench/workloads.py):
960 requests, every (family, degree, operation) triple once, each stored
with its inputs and the values the benchmark's worker reads, each request
run alone through the worker's own ``run_op``.  golden_random_requests_2.json
to _4.json hold the same for seeds 2 to 4.

golden_cli.json holds the exit code and first stderr line of command
lines: the six invocations of ``cli_cycle(random.Random(seed))`` in
perfbench/workloads.py for seeds 1 to 40, and every case of test_cli.py's
``OUT_OF_RANGE_WEIGHTS`` and ``EDGE_WEIGHTS``, each run in-process through
``cli_outcome``.

    python tests/make_golden.py   # rewrite every file

``pytest tests/test_golden.py`` recomputes every value and compares it with
the files within the tolerances in TOLERANCES.  Rewrite the files only when
a change is meant to move these numbers, and say why.
"""

import contextlib
import functools
import importlib.util
import io
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERIFY_GOLDEN = Path(__file__).with_name("golden_verify_matrix.json")
# the random_requests file of each seed
RANDOM_GOLDEN = {1: Path(__file__).with_name("golden_random_requests.json"),
                 **{seed: Path(__file__).with_name(f"golden_random_requests_{seed}.json")
                    for seed in (2, 3, 4)}}
CLI_GOLDEN = Path(__file__).with_name("golden_cli.json")
CLI_SEEDS = range(1, 41)
# the argument that names a weight file written from a case's bytes
WEIGHT_FILE = "WEIGHT_FILE"
NS = list(range(1, 41))
LAMBDAS = [1.0, 0.5]
RANDOM_BLOCKS = 4
# relative tolerances of the range contract, per quantity
TOLERANCES = {"l2": 1e-14, "sobolev": 1e-11, "mirsky": 1e-14, "achieved": 1e-11}


def _perfbench(name):
    """A module of the benchmark, read from its source in perfbench/."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)  # the worker imports its siblings machine and spans
    try:
        spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", f"{bench}/{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module


_worker = functools.cache(lambda: _perfbench("worker"))


def request_values(req) -> dict:
    """The quantities the benchmark's worker reads from one request, by name.

    The request runs through the worker's ``run_op``.  Its value is named
    mirsky for a Mirsky request, sobolev when it has lambdas and l2
    otherwise; an extremal request adds the ratio its extremal polynomial
    achieves.
    """
    import markovsharp as ms

    out = _worker().run_op(ms, req)
    name = "mirsky" if req["op"] == "mirsky" else "sobolev" if req["lambdas"] else "l2"
    values = {name: out["value"]}
    if req["op"] == "extremal":
        values["achieved"] = out["achieved"]
    return values


def cli_outcome(args, out=False, weight_file=None) -> dict:
    """The exit code and first stderr line of ``markovsharp.cli.main`` on ``args``.

    The call runs in-process in a temporary directory, with numeric warnings
    raised as errors, as pyproject.toml sets them for pytest.  With ``out``
    the output goes through ``--out`` into that directory; ``weight_file``,
    hex-encoded bytes, is written to a file there whose path replaces
    WEIGHT_FILE in ``args``.  The stderr line reads the directory as TMP.
    """
    from markovsharp import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        if weight_file is not None:
            path.write_bytes(bytes.fromhex(weight_file))
        argv = [str(path) if arg == WEIGHT_FILE else arg for arg in args]
        if out:
            argv += ["--out", str(Path(tmp) / "out.txt")]
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    return {"code": code, "stderr": err.getvalue().partition("\n")[0].replace(tmp, "TMP")}


def cli_cases(workloads) -> list[dict]:
    """Every command line of golden_cli.json, with its group and name, before it runs."""
    import test_cli

    cases = [{"group": "cli_cycle", "name": f"seed{seed}-{i}", "args": inv["args"],
              "out": inv["out"], "weight_file": None}
             for seed in CLI_SEEDS
             for i, inv in enumerate(workloads.cli_cycle(random.Random(seed)))]
    for name, (weight, argv, _) in zip(test_cli.OUT_OF_RANGE_IDS, test_cli.OUT_OF_RANGE_WEIGHTS):
        cases.append({"group": "out_of_range", "name": name, "args": [*argv, "--weight", weight],
                      "out": False, "weight_file": None})
    for name, (weight, _, _) in zip(test_cli.EDGE_WEIGHT_IDS, test_cli.EDGE_WEIGHTS):
        raw = isinstance(weight, bytes)
        cases.append({"group": "edge_weight", "name": name,
                      "args": ["sharp", "--weight", WEIGHT_FILE if raw else weight, "--n", "5"],
                      "out": False, "weight_file": weight.hex() if raw else None})
    return cases


def golden_files() -> dict:
    """Every golden file's contents as the program computes them now, by path."""
    from markovsharp import make_weight, markov

    workloads = _perfbench("workloads")
    rows = []
    for case, raw in workloads.VERIFY_MATRIX:
        spec = make_weight(raw)
        rows.append({
            "case": case,
            "weight": raw,
            "l2": [r.value for r in markov.sharp_constants(spec, NS)],
            "sobolev": [r.value for r in markov.sharp_constants(spec, NS, LAMBDAS)],
            "mirsky": markov.mirsky_bounds(spec, NS),
        })
    files = {VERIFY_GOLDEN: {"ns": NS, "lambdas": LAMBDAS, "weights": rows}}
    for seed, path in RANDOM_GOLDEN.items():
        rng = random.Random(seed)
        requests = [{"request": req, "values": request_values(req)} for offset in
                    range(RANDOM_BLOCKS) for req in workloads.random_block(rng, offset)]
        files[path] = {"seed": seed, "blocks": RANDOM_BLOCKS, "requests": requests}
    cases = [{**case, **cli_outcome(case["args"], case["out"], case["weight_file"])}
             for case in cli_cases(workloads)]
    files[CLI_GOLDEN] = {"seeds": [CLI_SEEDS.start, CLI_SEEDS.stop - 1], "cases": cases}
    return files


def _write(path, golden):
    if path == VERIFY_GOLDEN:
        path.write_text(json.dumps(golden, indent=1) + "\n")
        return
    # one request or command line per line, so that a change shows as one changed line
    key = "cases" if path == CLI_GOLDEN else "requests"
    head = json.dumps({k: v for k, v in golden.items() if k != key})[:-1]
    rows = ",\n".join(json.dumps(row) for row in golden[key])
    path.write_text(f'{head}, "{key}": [\n{rows}\n]}}\n')


def main():
    sys.path.insert(0, str(ROOT / "src"))
    for path, golden in golden_files().items():
        _write(path, golden)


if __name__ == "__main__":
    main()
