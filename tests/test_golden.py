"""The verify-matrix constants stay where golden_verify_matrix.json pins them.

The file is written by make_golden.py.  Its values were checked against
independent references when it was written: Hermite's sqrt(2n) and
Mirsky closed forms (5.0e-16 and 2.0e-16 relative), the all-ones strictly
upper-triangular matrix of Laguerre alpha = 0 (6.2e-16), a 40-digit mpmath
eigensolve for Legendre at n = 5, 17, 40 (2.7e-15 in L2, 4.0e-15 with
lambda = (1, 0.5)), and the benchmark's scipy reference for every weight
(6.4e-13, that reference's own discretization error).  The tolerances are
those of the range contract: 1e-14 relative for the L2 constants and the
Mirsky bounds, 1e-11 for lambda > 0.  Bytes are not compared, since
another numpy or BLAS build may round differently.

golden_random_requests.json and golden_random_requests_2.json to _4.json,
written by the same script, each hold 960 benchmark requests of one
random_requests seed (1 to 4) on fresh weights of all six families, each
with the values the benchmark's worker reads; they are checked with the same
tolerances, and the ratios extremal polynomials achieve within 1e-11.  Their
values are what the program computed when the files were written, and no
independent reference checked them: they catch a change, not an error.

golden_cli.json holds the exit code and first stderr line of 290 command
lines: six cli_cycle invocations for each seed 1 to 40 and every edge weight
of test_cli.py.  They are replayed in-process through the same
``cli_outcome`` and compared exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from make_golden import CLI_GOLDEN, RANDOM_GOLDEN, TOLERANCES, cli_outcome, request_values
from markovsharp import make_weight, markov
from markovsharp.orthopoly import FAMILIES

GOLDEN = json.loads(Path(__file__).with_name("golden_verify_matrix.json").read_text())
RANDOM = {seed: json.loads(path.read_text()) for seed, path in RANDOM_GOLDEN.items()}
CLI = json.loads(CLI_GOLDEN.read_text())


@pytest.mark.parametrize("row", GOLDEN["weights"],
                         ids=[f"{row['case']}-{i}" for i, row in enumerate(GOLDEN["weights"])])
def test_verify_matrix_constants(row):
    spec, ns = make_weight(row["weight"]), GOLDEN["ns"]
    l2 = [r.value for r in markov.sharp_constants(spec, ns)]
    sobolev = [r.value for r in markov.sharp_constants(spec, ns, GOLDEN["lambdas"])]
    np.testing.assert_allclose(l2, row["l2"], rtol=1e-14, atol=0)
    np.testing.assert_allclose(markov.mirsky_bounds(spec, ns), row["mirsky"], rtol=1e-14, atol=0)
    np.testing.assert_allclose(sobolev, row["sobolev"], rtol=1e-11, atol=0)


@pytest.mark.parametrize("seed, family", [
    pytest.param(seed, family, id=family if seed == 1 else f"seed{seed}-{family}")
    for seed in RANDOM for family in FAMILIES])
def test_random_request_values(seed, family):
    assert RANDOM[seed]["seed"] == seed
    rows = [row for row in RANDOM[seed]["requests"]
            if row["request"]["weight"]["family"] == family]
    assert len(rows) == 160  # every degree 1..40 with every operation
    for row in rows:
        values = request_values(row["request"])
        assert values.keys() == row["values"].keys()
        for name, want in row["values"].items():
            np.testing.assert_allclose(values[name], want, rtol=TOLERANCES[name], atol=0,
                                       err_msg=json.dumps(row["request"]))


@pytest.mark.parametrize("group", ["cli_cycle", "out_of_range", "edge_weight"])
def test_cli_exit_codes_and_messages(group):
    cases = [case for case in CLI["cases"] if case["group"] == group]
    assert len(cases) == {"cli_cycle": 240, "out_of_range": 27, "edge_weight": 23}[group]
    changed = []
    for case in cases:
        got = cli_outcome(case["args"], case["out"], case["weight_file"])
        if got != {"code": case["code"], "stderr": case["stderr"]}:
            changed.append((case["name"], got))
    assert changed == []
