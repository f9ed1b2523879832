"""Seeded input generators for the three workloads.

Every generator takes a ``random.Random`` made from ``--seed`` and returns
plain JSON-ready data, so the program only ever sees generated inputs.
"""

from __future__ import annotations

import json
import random

FAMILIES = ("jacobi", "laguerre", "hermite", "gen_jacobi", "gen_laguerre", "gen_hermite")
OPS = ("l2", "sobolev", "mirsky", "extremal")
N_MAX = 40

# The criterion-5 matrix of tests/test_acceptance.py, copied so the benchmark
# reads no file outside its own directory.
VERIFY_MATRIX = [
    ("laguerre_1", {"family": "laguerre", "alpha": 0.0}),
    ("laguerre_1", {"family": "laguerre", "alpha": 1.5}),
    ("gen_hermite_2", {"family": "gen_hermite", "alpha": 0.0}),
    ("gen_hermite_2", {"family": "gen_hermite", "alpha": 2.0}),
    ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": 0.0, "beta": 0.0}),
    ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5}),
    ("jacobi_3", {"family": "jacobi", "interval": [-1, 1], "alpha": 1.0, "beta": 2.0}),
    ("gen_jacobi_4", {"family": "gen_jacobi", "interval": [-1, 1], "singularities": [[0.0, 0.5]]}),
    ("gen_laguerre_51", {"family": "gen_laguerre", "singularities": [[2.0, 1.0]]}),
    ("gen_laguerre_52", {"family": "gen_laguerre", "singularities": [[0.0, -0.5], [1.0, -0.4]]}),
    ("gen_hermite_6", {"family": "gen_hermite", "singularities": [[0.0, 1.0]]}),
]
VERIFY_LAMBDAS = ((0.0,), (1.0, 0.5))
VERIFY_NS = list(range(4, N_MAX + 1))


def verify_jobs(rng: random.Random) -> list[dict]:
    """The 22 (case, weight, lambdas) sub-cases of the matrix in a seeded order."""
    jobs = [
        {"op": "verify", "case": case, "weight": raw, "lambdas": list(lams), "ns": VERIFY_NS}
        for case, raw in VERIFY_MATRIX
        for lams in VERIFY_LAMBDAS
    ]
    rng.shuffle(jobs)
    return jobs


def _singularities(rng: random.Random, lo: float, hi: float, g_lo: float, g_hi: float):
    """One or two singular points in [lo, hi], at least 0.25 apart."""
    count = rng.choice((1, 2))
    while True:
        cs = sorted(round(rng.uniform(lo, hi), 6) for _ in range(count))
        if count == 1 or cs[1] - cs[0] >= 0.25:
            return [[c, round(rng.uniform(g_lo, g_hi), 6)] for c in cs]


def random_weight(rng: random.Random, family: str) -> dict:
    """A fresh weight of the family; the random scale makes every weight distinct."""
    raw = {"family": family, "scale": round(rng.uniform(0.25, 4.0), 6)}
    if family in ("jacobi", "gen_jacobi"):
        if rng.random() < 0.5:
            raw["interval"] = [-1.0, 1.0]
        else:
            a = round(rng.uniform(-2.0, 1.0), 6)
            raw["interval"] = [a, round(a + rng.uniform(0.5, 4.0), 6)]
    if family == "jacobi":
        raw["alpha"] = round(rng.uniform(-0.9, 3.0), 6)
        raw["beta"] = round(rng.uniform(-0.9, 3.0), 6)
    elif family == "laguerre":
        raw["alpha"] = round(rng.uniform(-0.9, 3.0), 6)
    elif family == "gen_jacobi":
        lo, hi = raw["interval"]
        raw["singularities"] = _singularities(rng, lo, hi, -0.6, 2.5)
    elif family == "gen_laguerre":
        sings = _singularities(rng, 0.0, 3.0, -0.45, 2.0)
        if rng.random() < 0.3:
            sings[0][0] = 0.0
        raw["singularities"] = sings
    elif family == "gen_hermite":
        if rng.random() < 0.25:
            raw["alpha"] = round(rng.uniform(0.0, 3.0), 6)
        else:
            while True:
                sings = _singularities(rng, -2.0, 2.0, -0.5, 2.0)
                if sum(g for _, g in sings) >= 0:
                    break
            raw["singularities"] = sings
    return raw


def random_block(rng: random.Random, offset: int) -> list[dict]:
    """240 requests: every (family, degree) pair once, each with a fresh weight.

    The operation rotates with the degree, family and block offset, so four
    consecutive blocks hold every (family, degree, operation) triple once.
    """
    block = []
    for fi, family in enumerate(FAMILIES):
        for n in range(1, N_MAX + 1):
            op = OPS[(n + fi + offset) % len(OPS)]
            req = {"op": op, "weight": random_weight(rng, family), "n": n, "lambdas": []}
            if op == "sobolev" or (op == "extremal" and rng.random() < 0.5):
                req["lambdas"] = [round(rng.uniform(0.0, 2.0), 6) for _ in range(rng.randint(1, 3))]
            block.append(req)
    rng.shuffle(block)
    return block


# The CLI's named presets, spelled out for the reference.
PRESETS = {
    "legendre": {"family": "jacobi", "interval": [-1, 1], "alpha": 0.0, "beta": 0.0},
    "chebyshev1": {"family": "jacobi", "interval": [-1, 1], "alpha": -0.5, "beta": -0.5},
    "laguerre0": {"family": "laguerre", "alpha": 0.0},
    "hermite": {"family": "hermite"},
}
_FAMILY_PRESETS = {"jacobi": ("legendre", "chebyshev1"), "laguerre": ("laguerre0",),
                   "hermite": ("hermite",)}
COMMANDS = ("sharp", "sweep", "mirsky", "extremal", "verify", "selftest")


def cli_cycle(rng: random.Random) -> list[dict]:
    """One invocation of each subcommand, each on a different weight family.

    ``args`` is the command line after ``python -m markovsharp.cli``; the
    other keys say what the reference has to compute.  ``out`` marks an
    invocation that writes through ``--out`` instead of stdout.
    """
    families = list(FAMILIES)
    rng.shuffle(families)
    cycle = []
    for command, family in zip(COMMANDS, families):
        inv = {"command": command, "format": rng.choice(("json", "csv")),
               "out": rng.random() < 0.5, "weight": None, "ns": [], "lambdas": []}
        args = [command]
        if command != "selftest":
            if family in _FAMILY_PRESETS and rng.random() < 0.5:
                token = rng.choice(_FAMILY_PRESETS[family])
                inv["weight"] = PRESETS[token]
            else:
                inv["weight"] = random_weight(rng, family)
                token = json.dumps(inv["weight"])
            args += ["--weight", token, "--format", inv["format"]]
            if command in ("sharp", "extremal"):
                inv["ns"] = [rng.randint(1, N_MAX)]
                args += ["--n", str(inv["ns"][0])]
            else:
                first = rng.randint(4, N_MAX - 3)
                inv["ns"] = list(range(first, first + (3 if command == "sweep" else 4)))
                args += ["--n-min", str(inv["ns"][0]), "--n-max", str(inv["ns"][-1])]
            if command != "mirsky" and rng.random() < 0.5:
                inv["lambdas"] = [round(rng.uniform(0.0, 2.0), 6) for _ in range(rng.randint(1, 3))]
                args += ["--lambdas", ",".join(repr(v) for v in inv["lambdas"])]
        inv["args"] = args
        cycle.append(inv)
    return cycle
