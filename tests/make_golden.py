"""Write golden_verify_matrix.json: the constants that test_golden.py pins.

For every weight of the benchmark's criterion-5 matrix (``VERIFY_MATRIX`` in
perfbench/workloads.py) it records, for n = 1..40, the sharp constants in the
weighted L2 norm and in the Sobolev norm with lambda = (1, 0.5), and the
Mirsky bounds, each as the range call over all 40 degrees computes them.

    python tests/make_golden.py

Rerun it only when a change is meant to move these numbers, and say why.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_verify_matrix.json")
NS = list(range(1, 41))
LAMBDAS = [1.0, 0.5]


def verify_matrix():
    """The (case, weight) pairs of the benchmark's verify matrix, read from its source."""
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.VERIFY_MATRIX


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from markovsharp import make_weight, markov

    rows = []
    for case, raw in verify_matrix():
        spec = make_weight(raw)
        rows.append({
            "case": case,
            "weight": raw,
            "l2": [r.value for r in markov.sharp_constants(spec, NS)],
            "sobolev": [r.value for r in markov.sharp_constants(spec, NS, LAMBDAS)],
            "mirsky": markov.mirsky_bounds(spec, NS),
        })
    GOLDEN.write_text(json.dumps({"ns": NS, "lambdas": LAMBDAS, "weights": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
