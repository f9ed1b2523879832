#!/usr/bin/env python3
"""Per-stage and end-to-end timings of markovsharp, written to BENCH_stages.json.

Usage (from the root of a checkout):

    python3 bench/stages.py [--repeats 9] [--out BENCH_stages.json]

It imports this checkout's ``src/markovsharp``, and ``perfbench/machine.py``
for its calibration, which it reads and never changes.  BLAS runs on one
thread, as in ``perfbench/run.py``.

Stages, timed for one weight per family at n = 40, each from an empty store
of kept bases and reference rules (a cold process):

* ``recurrence``: the closed form, or the ``stabilized_stieltjes`` ladder, to
  degree n + 1, as the kept basis builds it;
* ``derivative_matrix``: D_n from that recurrence;
* ``top_pairs``: ``markov._top_pairs`` of D_n at degree n, the weighted L2
  eigensolves;
* ``sobolev_factor``: for lambda = (1, 0.5), ``sobolev_gram``, its Cholesky
  factor L and L^T D L^-T;
* ``residual``: ``markov._checked_residual`` of the L2 pair.

End-to-end jobs, each from an empty store:

* ``constant``: ``sharp_constant_l2`` at n = 40, per family;
* ``sweep``: ``sharp_constants`` over n = 4..40, weighted L2 and
  lambda = (1, 0.5), per family;
* ``verify_matrix``: the 22 criterion-5 ``verify_theorem`` jobs of
  ``perfbench/workloads.py``, in one process;
* ``cli_cold``: one fresh ``python -m markovsharp.cli sharp --weight hermite
  --n 40`` process;
* ``degrees_1_400``: ``sharp_constants`` over every degree 1..400 of Legendre
  and of jacobi(0.5, -0.3), with MARKOVSHARP_MAX_N raised for this job only.

Every timed stretch is bracketed by calibrations and reported at the
reference speed, as ``perfbench/run.py`` reports its times (see
``machine.scaled``): in-process work by ``machine.calibrate``, the CLI
process by ``machine.calibrate_spawn``.  The file holds each median over
the repeats, in seconds, with the repeat count and the environment.
"""

import os

# Pin BLAS before numpy loads; the CLI process inherits the setting.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import OrderedDict, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files beside perfbench/ or src/

import machine  # noqa: E402
from markovsharp import markov, quadrature  # noqa: E402
from markovsharp.bounds import verify_theorem  # noqa: E402
from markovsharp.orthopoly import _symmetric, closed_form, make_weight  # noqa: E402
from markovsharp.orthopoly import recurrence_classical  # noqa: E402
from workloads import VERIFY_LAMBDAS, VERIFY_MATRIX, VERIFY_NS  # noqa: E402

N = 40
LAMBDAS = (1.0, 0.5)
WEIGHTS = {
    "jacobi": {"family": "jacobi", "interval": [-1, 1], "alpha": 0.5, "beta": -0.3},
    "laguerre": {"family": "laguerre", "alpha": 0.0},
    "hermite": {"family": "hermite"},
    "gen_jacobi": {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]},
    "gen_laguerre": {"family": "gen_laguerre", "singularities": [[2.0, 1.0]]},
    "gen_hermite": {"family": "gen_hermite", "singularities": [[-1.0, 0.5], [1.0, 0.5]]},
}
WIDE_N = 400
WIDE_WEIGHTS = {"legendre": {"family": "jacobi", "interval": [-1, 1]},
                "jacobi": WEIGHTS["jacobi"]}
CLI_ARGS = ["-m", "markovsharp.cli", "sharp", "--weight", "hermite", "--n", str(N)]


def empty_store() -> None:
    """Start the process's store of kept bases and reference rules afresh, as a cold process."""
    quadrature._STORE = OrderedDict()
    quadrature._STORE_BYTES = 0


def recurrence(spec):
    if closed_form(spec) is None:
        return quadrature.stabilized_stieltjes(spec, N + 1)
    return recurrence_classical(spec, N + 1)


def sobolev_factor(mat):
    chol = np.linalg.cholesky(markov.sobolev_gram(mat, LAMBDAS))
    return chol.T @ markov.solve_triangular(chol, mat.T, lower=True).T


def stage_calls(spec):
    """(stage, call) pairs for one weight, their inputs built once and untimed."""
    rec = recurrence(spec)
    mat = markov.derivative_matrix(rec, N)
    split = _symmetric(spec)
    values, vecs = markov._top_pairs(mat, [N], split)
    return [
        ("recurrence", lambda: recurrence(spec)),
        ("derivative_matrix", lambda: markov.derivative_matrix(rec, N)),
        ("top_pairs", lambda: markov._top_pairs(mat, [N], split)),
        ("sobolev_factor", lambda: sobolev_factor(mat)),
        ("residual", lambda: markov._checked_residual(mat, vecs, [N], values)),
    ]


def sweep(spec):
    markov.sharp_constants(spec, range(4, N + 1))
    markov.sharp_constants(spec, range(4, N + 1), LAMBDAS)


def verify_matrix():
    for case, raw in VERIFY_MATRIX:
        for lams in VERIFY_LAMBDAS:
            verify_theorem(case, make_weight(raw), markov.SobolevSpec(lams), VERIFY_NS)


def wide(spec):
    saved = os.environ.get("MARKOVSHARP_MAX_N")
    os.environ["MARKOVSHARP_MAX_N"] = str(WIDE_N)
    try:
        markov.sharp_constants(spec, range(1, WIDE_N + 1))
    finally:
        if saved is None:
            del os.environ["MARKOVSHARP_MAX_N"]
        else:
            os.environ["MARKOVSHARP_MAX_N"] = saved


def cli_cold():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, *CLI_ARGS], check=True, env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class Timer:
    """Times calls between calibrations and keeps each time at the reference speed."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.last = machine.calibrate()

    def time(self, key, call):
        """Time one call of ``call`` under ``key``, from an empty store."""
        empty_store()
        t0 = time.perf_counter()
        call()
        t = time.perf_counter() - t0
        after = machine.calibrate()
        self.samples[key] += machine.scaled([t], [(0, self.last), (1, after)])
        self.last = after

    def time_spawn(self, key, call):
        """Time one call that starts a process, calibrated by fresh processes on both sides."""
        before = machine.calibrate_spawn()
        t0 = time.perf_counter()
        call()
        t = time.perf_counter() - t0
        self.samples[key] += machine.scaled([t], [(0, before), (1, machine.calibrate_spawn())])
        self.last = machine.calibrate()


def run(repeats: int) -> dict:
    specs = {name: make_weight(raw) for name, raw in WEIGHTS.items()}
    calls = {name: stage_calls(spec) for name, spec in specs.items()}
    timer = Timer()
    # the repeats are the outer loop, so that a slow stretch of the machine
    # reaches every key alike
    for _ in range(repeats):
        for name, spec in specs.items():
            for stage, call in calls[name]:
                timer.time(("stages", name, stage), call)
            timer.time(("jobs", "constant", name), lambda: markov.sharp_constant_l2(spec, N))
            timer.time(("jobs", "sweep", name), lambda: sweep(spec))
        timer.time(("jobs", "verify_matrix"), verify_matrix)
        timer.time_spawn(("jobs", "cli_cold"), cli_cold)
        for name, raw in WIDE_WEIGHTS.items():
            timer.time(("jobs", f"degrees_1_{WIDE_N}", name), lambda: wide(make_weight(raw)))
    out = {"stages": {}, "jobs": {}}
    for key, samples in timer.samples.items():
        node = out
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = statistics.median(samples)
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_stages.json")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    result = {
        "n": N,
        "repeats": args.repeats,
        "unit": "s at the reference speed of perfbench/machine.py",
        "environment": environment(),
        **run(args.repeats),
    }
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
