#!/usr/bin/env python3
"""markovsharp benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify_matrix --seed 1 --seconds 20 --trace 0

Workloads:

* ``verify_matrix``: the criterion-5 matrix (11 weights x 2 Sobolev specs x
  n = 4..40 through ``verify_theorem``), one pass per fresh worker process so
  that nothing cached in one pass serves the next;
* ``random_requests``: independent requests, each on a fresh weight drawn
  from all six families, at n = 1..40, one of four operations, in blocks of
  240 run by one worker process;
* ``cli_cold``: fresh ``python -m markovsharp.cli`` processes, one per
  subcommand in each cycle of six.

Every caller is closed-loop with one client.  Inputs come from ``--seed``;
reference values come from ``perfbench/reference.py``, which shares no code
with markovsharp, and are computed outside the timed region after the
reference has passed its closed-form self-check.  An operation fails if it
raised, missed the reference by more than 1e-8 relative, returned another
verify verdict than the reference, or (CLI) exited with another code.
Failures are counted and listed, never hidden: ``correct`` says that every
output was checked, ``failed`` how many operations failed.  A run does a
fixed number of units of work, about ``--seconds`` of it (see
``UNITS_PER_20S``), so the same seed and ``--seconds`` always give the same
operations and the same attempted and failed counts.

Timings are reported at a reference machine speed: every timed stretch of
work is bracketed by a fixed calibration snippet and scaled by it (see
``machine.py``), because this class of machine drifts by up to 2x from
minute to minute.  Fresh processes (set-ups and CLI calls) are bracketed
by a fresh process, other work by in-process work.  ``setup_s`` is the
median over fresh processes of the time to the result of a fixed first
operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each unit
of work (one pass, block or cycle) untraced and again traced in a fresh
process, and prints per-layer metrics per unit (self times in plain
seconds, ``trace.*`` at the reference speed); modules a
workload never calls are read from fixed probes (one short Hermite verify
and two CLI calls) kept apart from the workload's spans.  Details, the
environment, every failed operation and the spans go to ``.perfbench_out/``
in the checkout; the last line of standard output is the JSON result.
"""

import os

# Pin BLAS before numpy loads; child processes inherit the setting.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import machine  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
TOL = 1e-8  # markovsharp's own RESIDUAL_TOL
TAIL_BEYOND = 10
CHILD_TIMEOUT = 150
# Units of work (passes, blocks of requests, CLI cycles) a run does per 20 s
# of --seconds.  The count is fixed, not timed, so that the same seed and
# --seconds give the same operations, and so the same attempted and failed
# counts, on every run and every machine.  On a shared 2-vCPU x86-64 machine
# a unit takes about 2.3 s, 1.0 s and 2.2 s at the reference speed (3.5-4 s,
# 1.7 s and 3.6 s raw); verify_matrix does 8 passes so that its tail rank
# lies well inside the 16 samples of its slowest job.
UNITS_PER_20S = {"verify_matrix": 8, "random_requests": 11, "cli_cold": 6}
# Hard stop for the measuring loop, should units take far longer than
# they do today, so that a run still ends in time; it then does fewer units.
OVERRUN_S = 60
SETUP_REPEATS = 5
# The first operation of every fresh process, the same for every seed, so
# that setup_s times import and one small call and nothing the seed chooses.
SETUP_ITEM = {"op": "l2", "weight": {"family": "hermite"}, "n": 3, "lambdas": []}
SETUP_CLI = {"command": "sharp", "format": "json", "out": False,
             "weight": {"family": "hermite"}, "ns": [8], "lambdas": [],
             "args": ["sharp", "--weight", "hermite", "--n", "8", "--format", "json"]}
# Traced once per traced run, for the layers a workload never calls.
PROBE_ITEM = {"op": "verify", "case": "schmidt", "weight": {"family": "hermite"},
              "lambdas": [0.0], "ns": [4, 5, 6, 7]}
PROBE_CLI_RUNS = 2

ENV = dict(os.environ, PYTHONPATH=str(SRC))


class Worker:
    """A fresh interpreter running perfbench/worker.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=ENV, cwd=ROOT, text=True)

    def run(self, items, trace=False) -> dict:
        self.proc.stdin.write(json.dumps({"items": items, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def rel_err(value, ref) -> float:
    try:
        return abs(float(value) - ref) / abs(ref)
    except (TypeError, ValueError):
        return float("inf")


class Checker:
    """Counts attempted and failed operations and lists every failure."""

    def __init__(self):
        self.attempted = 0
        self.misses = []

    def op(self, what: dict, problem):
        self.attempted += 1
        if problem:
            self.misses.append(dict(what, error=problem))

    def value(self, what: dict, value, ref):
        err = rel_err(value, ref)
        self.op(what, None if err <= TOL else f"rel error {err:.3e}")

    @property
    def failed(self) -> int:
        return len(self.misses)


def tail(samples):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], k / len(s)


class Measured:
    """What one run measured.  Times are at the reference speed (see
    machine.py) except the ``raw`` ones and the spans, which are plain
    seconds."""

    def __init__(self):
        self.setups = []
        self.walls = []  # per unit
        self.raw_walls = []
        self.lat = []  # per operation
        self.traced_walls = []  # per traced unit
        self.traced_raw_walls = []
        self.spans = []  # span lists of the traced units
        self.imports = []  # import_s of the traced CLI runs
        self.probe_spans = []
        self.probe_imports = []

    def add(self, lat, cals):
        scaled = machine.scaled(lat, cals)
        self.lat.extend(scaled)
        self.walls.append(sum(scaled))
        self.raw_walls.append(sum(lat))


def measure(units, run_unit, workload, seconds, trace) -> Measured:
    """Run a fixed number of units, about ``seconds`` of untraced work.

    ``units`` yields units of work; ``run_unit(measured, unit, traced)``
    returns the latency of each of the unit's operations and the
    calibrations around them.  Traced, each unit runs once more with tracing
    on, right after its untraced run, and only half as many units run, so
    that a traced run takes about as long as an untraced one.
    """
    m = Measured()
    count = max(1, round(UNITS_PER_20S[workload] * seconds / 20 / (2 if trace else 1)))
    deadline = time.perf_counter() + 2 * seconds + OVERRUN_S
    for _ in range(count):
        if time.perf_counter() > deadline:
            print(f"warning: out of time after {len(m.walls)} of {count} units",
                  file=sys.stderr)
            break
        unit = next(units)
        m.add(*run_unit(m, unit, False))
        if trace:
            lat, cals = run_unit(m, unit, True)
            m.traced_walls.append(sum(machine.scaled(lat, cals)))
            m.traced_raw_walls.append(sum(lat))
    return m


def measure_setup(start) -> list[float]:
    """Times, at the reference speed, from starting a fresh process to its
    first result; ``start()`` does that once and returns the seconds taken."""
    times = []
    after = machine.calibrate_spawn()
    for _ in range(SETUP_REPEATS):
        before, t, after = after, start(), machine.calibrate_spawn()
        times += machine.scaled([t], [(0, before), (1, after)])
    return times


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def request_refs(items) -> list[dict]:
    refs = []
    for req in items:
        basis = reference.Basis(req["weight"], req["n"])
        if req["op"] == "mirsky":
            refs.append(basis.mirsky(req["n"]))
        elif req["lambdas"]:
            refs.append(basis.sobolev(req["lambdas"], req["n"]))
        else:
            refs.append(basis.l2(req["n"]))
    return refs


def check_requests(chk: Checker, items, refs, results):
    for req, ref, out in zip(items, refs, results):
        what = {"weight": req["weight"], "n": req["n"], "op": req["op"],
                "lambdas": req["lambdas"]}
        if "error" in out:
            chk.op(what, out["error"])
            continue
        err = rel_err(out["value"], ref)
        if req["op"] == "extremal":
            err = max(err, rel_err(out["achieved"], ref))
            if not out["finite"]:
                chk.op(what, "extremal polynomial not finite")
                continue
        chk.op(what, None if err <= TOL else f"rel error {err:.3e}")


def verify_refs(jobs):
    bases = {}
    refs = []
    for job in jobs:
        key = json.dumps(job["weight"], sort_keys=True)
        if key not in bases:
            bases[key] = reference.Basis(job["weight"], wl.N_MAX)
        values = [bases[key].sobolev(job["lambdas"], n) for n in job["ns"]]
        refs.append({"values": values,
                     "passed": reference.verdict(job["case"], job["weight"], job["ns"], values)})
    return refs


def check_verify(chk: Checker, jobs, refs, results):
    for job, ref, out in zip(jobs, refs, results):
        what = {"weight": job["weight"], "case": job["case"], "lambdas": job["lambdas"]}
        if "error" in out:
            for n in job["ns"]:
                chk.op(dict(what, n=n, op="sobolev"), out["error"])
            chk.op(dict(what, op="verdict"), out["error"])
            continue
        for n, value, r in zip(job["ns"], out["values"], ref["values"]):
            chk.value(dict(what, n=n, op="sobolev"), value, r)
        chk.op(dict(what, op="verdict"),
               None if out["passed"] == ref["passed"]
               else f"verdict {out['passed']}, reference {ref['passed']}")


def inprocess_units(workload, rng):
    """Yield (items, refs) per unit of work, references computed up front."""
    if workload == "verify_matrix":
        jobs = wl.verify_jobs(rng)
        refs = verify_refs(jobs)
        while True:
            yield jobs, refs
    for offset in itertools.count():
        items = wl.random_block(rng, offset)
        yield items, request_refs(items)


def start_worker(chk: Checker) -> float:
    """Start a worker, run the set-up item, check it; return the seconds
    taken, less the worker's own calibrations."""
    t0 = time.perf_counter()
    with Worker() as w:
        reply = w.run([SETUP_ITEM])
        elapsed = time.perf_counter() - t0
    check_requests(chk, [SETUP_ITEM], request_refs([SETUP_ITEM]), reply["results"])
    return elapsed - sum(c for _, c in reply["cal"])


def run_inprocess(workload, rng, seconds, trace):
    """verify_matrix runs each pass in a fresh worker, so that nothing cached
    in one pass serves the next; random_requests runs its blocks in one
    worker, since no weight repeats.  A traced run, which repeats a unit,
    always has a fresh worker."""
    chk = Checker()
    setups = measure_setup(lambda: start_worker(chk))
    check = check_verify if workload == "verify_matrix" else check_requests

    with contextlib.ExitStack() as stack:
        shared = None
        if workload == "random_requests":
            shared = stack.enter_context(Worker())
            shared.run([SETUP_ITEM])

        def run_unit(m, unit, traced):
            items, refs = unit
            if shared and not traced:
                reply = shared.run(items)
            else:
                with Worker() as w:
                    w.run([SETUP_ITEM])
                    reply = w.run(items, trace=traced)
            check(chk, items, refs, reply["results"])
            if traced:
                m.spans.append(reply["spans"])
            return reply["lat"], reply["cal"]

        m = measure(inprocess_units(workload, rng), run_unit, workload, seconds, trace)
    m.setups = setups
    if trace:
        with Worker() as w:
            w.run([SETUP_ITEM])
            reply = w.run([PROBE_ITEM], trace=True)
        check_verify(chk, [PROBE_ITEM], verify_refs([PROBE_ITEM]), reply["results"])
        m.probe_spans.append(reply["spans"])
    return chk, m


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_refs(inv) -> dict:
    raw = inv["weight"]
    if raw is None:
        return {}
    basis = reference.Basis(raw, max(inv["ns"]))
    lams = inv["lambdas"] or [0.0]
    case = reference.default_case(raw)
    ref = {"case": case, "rows": {}}
    for n in inv["ns"]:
        ref["rows"][n] = {"sharp": basis.l2(n), "sobolev": basis.sobolev(lams, n),
                          "mirsky": basis.mirsky(n),
                          "envelope": reference.envelope(case, raw, n)}
    if inv["command"] == "verify":
        key = "sharp" if case == "schmidt" else "sobolev"
        values = [ref["rows"][n][key] for n in inv["ns"]]
        ref["verify_key"] = key
        ref["passed"] = reference.verdict(case, raw, inv["ns"], values)
    return ref


def cli_expected(inv, ref) -> list[tuple[str, int, float]]:
    """(name, n, reference value) for every number the invocation must print."""
    command, ns, rows = inv["command"], inv["ns"], ref.get("rows", {})
    if command in ("sharp", "extremal"):
        value = rows[ns[0]]["sobolev" if inv["lambdas"] else "sharp"]
        names = {"sharp": ["value"], "extremal": ["achieved_ratio"]}[command]
        if command == "extremal" and inv["format"] == "json":
            names = ["value", "achieved_ratio"]
        return [(name, ns[0], value) for name in names]
    if command == "sweep":
        return [(k, n, rows[n][k]) for n in ns for k in ("sharp", "sobolev", "mirsky", "envelope")]
    if command == "mirsky":
        return [("mirsky", n, rows[n]["mirsky"]) for n in ns]
    if command == "verify":
        out = [("sharp_values", n, rows[n][ref["verify_key"]]) for n in ns]
        if inv["format"] == "csv":
            out += [("envelope", n, rows[n]["envelope"]) for n in ns]
        return out
    return []


def cli_parse(inv, text):
    """({(name, n): value}, (case_id, passed) or None) from one invocation's output."""
    command, ns = inv["command"], inv["ns"]
    values, verdict = {}, None
    if inv["format"] == "json":
        data = json.loads(text)
        if command in ("sharp", "extremal"):
            values = {(k, ns[0]): data[k] for k in ("value", "achieved_ratio") if k in data}
        elif command == "verify":
            values = {("sharp_values", n): v
                      for n, v in zip(data["n_range"], data["sharp_values"], strict=True)}
            verdict = (data["case_id"], data["pass"])
        else:
            values = {(k, row["n"]): v for row in data["rows"] for k, v in row.items()}
    elif command == "extremal":
        line = next(ln for ln in text.splitlines() if ln.startswith("# achieved_ratio:"))
        values = {("achieved_ratio", ns[0]): line.split(":", 1)[1]}
    else:
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","), strict=True)) for ln in lines[1:] if ln]
        renames = {"sharp": "sharp_values", "predicted_envelope": "envelope"}
        for row in rows:
            n = int(row["n"])
            for k, v in row.items():
                values[(renames.get(k, k) if command == "verify" else k, n)] = v
        if command == "verify":
            verdict = (rows[0]["case_id"], rows[0]["pass"] == "true")
    return values, verdict


def check_cli(chk: Checker, inv, ref, code, text):
    """One operation each for the exit code, every number printed, the verify
    verdict and the selftest summary line."""
    what = {"op": inv["command"], "args": inv["args"], "out": inv["out"]}
    expected_code = 0 if ref.get("passed", True) else 1
    chk.op(dict(what, check="exit code"),
           None if code == expected_code else f"exit code {code}, expected {expected_code}")
    if inv["command"] == "selftest":
        lines = text.strip().splitlines()
        ok = bool(lines) and lines[-1].startswith("PASS overall")
        chk.op(dict(what, check="summary"), None if ok else "no PASS overall line")
        return
    expected = cli_expected(inv, ref)
    try:
        values, verdict = cli_parse(inv, text)
    except (ValueError, KeyError, IndexError, StopIteration, TypeError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
        for name, n, _ in expected:
            chk.op(dict(what, check=name, n=n), problem)
        if inv["command"] == "verify":
            chk.op(dict(what, check="verdict"), problem)
        return
    for name, n, r in expected:
        if (name, n) in values:
            chk.value(dict(what, check=name, n=n), values[(name, n)], r)
        else:
            chk.op(dict(what, check=name, n=n), "missing from output")
    if inv["command"] == "verify":
        want = (ref["case"], ref["passed"])
        chk.op(dict(what, check="verdict"),
               None if verdict == want else f"verdict {verdict}, reference {want}")


def run_cli(inv, idx, traced=False):
    """Run one invocation in a fresh process.

    Returns (seconds, exit code, output text, trace), where trace is the
    traced child's ``{"import_s", "spans"}`` record, or None untraced.
    """
    TMP_DIR.mkdir(exist_ok=True)
    args = list(inv["args"])
    out_path = TMP_DIR / f"out-{idx}.txt"
    spans_path = TMP_DIR / f"spans-{idx}.json"
    if inv["out"]:
        args += ["--out", str(out_path)]
    if traced:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path), *args]
    else:
        cmd = [sys.executable, "-m", "markovsharp.cli", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=ENV, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - t0
    text = proc.stdout
    if inv["out"] and out_path.exists():
        text = out_path.read_text()
        out_path.unlink()
    trace = None
    if traced:
        trace = json.loads(spans_path.read_text())
        spans_path.unlink()
    return elapsed, proc.returncode, text, trace


def cli_units(rng):
    while True:
        cycle = wl.cli_cycle(rng)
        yield cycle, [cli_refs(inv) for inv in cycle]


def run_cli_cold(rng, seconds, trace):
    """Each unit is a cycle of invocations, each calibrated on both sides
    by a fresh process, since each invocation is one."""
    chk = Checker()
    names = itertools.count()
    setup_ref = cli_refs(SETUP_CLI)

    def start():
        elapsed, code, text, _ = run_cli(SETUP_CLI, next(names))
        check_cli(chk, SETUP_CLI, setup_ref, code, text)
        return elapsed

    def run_unit(m, unit, traced):
        cycle, refs = unit
        lat, cals = [], []
        for inv, ref in zip(cycle, refs):
            cals.append((len(lat), machine.calibrate_spawn()))
            elapsed, code, text, trace_data = run_cli(inv, next(names), traced)
            check_cli(chk, inv, ref, code, text)
            lat.append(elapsed)
            if traced:
                m.spans.append(trace_data["spans"])
                m.imports.append(trace_data["import_s"])
        cals.append((len(lat), machine.calibrate_spawn()))
        return lat, cals

    setups = measure_setup(start)
    m = measure(cli_units(rng), run_unit, "cli_cold", seconds, trace)
    m.setups = setups
    return chk, m


def cli_probe(chk: Checker, m: Measured):
    """Traced runs of the set-up invocation, for the cli layer of every workload."""
    ref = cli_refs(SETUP_CLI)
    for i in range(PROBE_CLI_RUNS):
        _, code, text, trace_data = run_cli(SETUP_CLI, f"probe-{i}", traced=True)
        check_cli(chk, SETUP_CLI, ref, code, text)
        m.probe_spans.append(trace_data["spans"])
        m.probe_imports.append(trace_data["import_s"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

LAYER_COUNTS = {
    "quadrature.composite_rule": ("calls", "self_s", "nodes"),
    "quadrature.gauss_rule": ("calls", "self_s", "distinct_ratio"),
    "orthopoly.stabilized_stieltjes": ("calls", "self_s"),
    "kernels.stieltjes": ("calls", "self_s", "node_steps"),
    "markov.basis_for": ("calls", "self_s", "distinct_ratio"),
    "kernels.poly_table": ("calls", "self_s", "points"),
    "kernels.deriv_tables": ("calls", "self_s", "points"),
    "markov.derivative_matrix": ("calls", "self_s"),
    "linalg.svd_largest": ("calls", "self_s"),
    "linalg.gen_sym_eigen_max": ("calls", "self_s"),
    "bounds.verify_theorem": ("self_s",),
}
ENTRY_POINTS = ("markov.sharp_constant_l2", "markov.sharp_constant_sobolev",
                "markov.mirsky_bound", "markov.extremal_polynomial")
LAYERS = ("orthopoly", "quadrature", "kernels", "markov", "linalg", "bounds", "cli")


def span_stats(batches) -> dict:
    """Calls, self time, work counts and distinct keys per span name."""
    st = {"calls": defaultdict(int), "self_s": defaultdict(float),
          "work": defaultdict(float), "distinct": defaultdict(int),
          "rule_builds": 0, "main_self": []}
    for spans in batches:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        keys = defaultdict(set)
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            own = end - start - covered[i]
            st["calls"][name] += 1
            st["self_s"][name] += own
            for k, v in attrs.items():
                if k == "key":
                    keys[name].add(v)
                else:
                    st["work"][f"{name}.{k}"] += v
            if (name == "quadrature.composite_rule" and parent >= 0
                    and spans[parent][0] == "orthopoly.stabilized_stieltjes"):
                st["rule_builds"] += 1
            if name == "cli.main":
                st["main_self"].append(own)
        for name, ks in keys.items():
            st["distinct"][name] += len(ks)
    return st


def layer_metrics(m: Measured) -> dict:
    """Per-layer metrics per traced unit of the workload.

    A layer the workload never calls (bounds on random_requests, cli on the
    in-process workloads) is read from the fixed probes instead, per probe
    set; its share of the workload's traced wall time is 0.
    """
    units = len(m.traced_walls)
    ws, ps = span_stats(m.spans), span_stats(m.probe_spans)
    used = {name.split(".")[0] for name in ws["calls"]}

    def source(name):
        return (ws, units) if name.split(".")[0] in used else (ps, 1)

    metrics = {}
    for name, kinds in LAYER_COUNTS.items():
        st, per = source(name)
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = (st["calls"][name] / per, "count")
            elif kind == "self_s":
                metrics[f"{name}.self_s"] = (st["self_s"][name] / per, "s")
            elif kind == "distinct_ratio":
                ratio = st["distinct"][name] / max(st["calls"][name], 1)
                metrics[f"{name}.distinct_ratio"] = (ratio, "ratio")
            else:
                metrics[f"{name}.{kind}"] = (st["work"][f"{name}.{kind}"] / per, "count")
    st, _ = source("orthopoly")
    accepts = st["calls"]["orthopoly.stabilized_stieltjes"]
    metrics["orthopoly.rule_builds_per_accept"] = (st["rule_builds"] / max(accepts, 1), "ratio")
    st, per = source("markov")
    metrics["markov.sharp.self_s"] = (sum(st["self_s"][n] for n in ENTRY_POINTS) / per, "s")
    st, _ = source("cli")
    metrics["cli.import_s"] = (statistics.median(m.imports or m.probe_imports), "s")
    metrics["cli.main.self_s"] = (statistics.median(st["main_self"]), "s")
    traced = sum(m.traced_raw_walls)
    for layer in LAYERS:
        total = sum(v for k, v in ws["self_s"].items() if k.startswith(layer + "."))
        metrics[f"share.{layer}"] = (total / traced, "ratio")
    untraced_unit = statistics.median(m.walls)
    traced_unit = statistics.median(m.traced_walls)
    metrics["trace.wall_s"] = (traced_unit, "s")
    metrics["trace.untraced_wall_s"] = (untraced_unit, "s")
    metrics["trace.overhead_s"] = (traced_unit - untraced_unit, "s")
    return metrics


def end_to_end_metrics(chk: Checker, m: Measured) -> dict:
    lat_tail, _ = tail(m.lat)
    maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(m.setups), "s"),
        "wall_s": (statistics.median(m.walls), "s"),
        "lat_p50_ms": (statistics.median(m.lat) * 1e3, "ms"),
        "lat_tail_ms": (lat_tail * 1e3, "ms"),
        "ok_frac": ((chk.attempted - chk.failed) / chk.attempted, "ratio"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_matrix", "random_requests", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "markovsharp" / "__init__.py").is_file():
        print(f"error: no markovsharp sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    try:
        checks = reference.self_check()
    except reference.ReferenceFault as exc:
        print(f"benchmark fault: reference self-check failed: {exc}", file=sys.stderr)
        return 3
    for line in checks:
        print(f"reference self-check ok: {line}", file=sys.stderr)

    rng = random.Random(args.seed)
    trace = bool(args.trace)
    if args.workload == "cli_cold":
        chk, m = run_cli_cold(rng, args.seconds, trace)
    else:
        chk, m = run_inprocess(args.workload, rng, args.seconds, trace)
    if trace:
        cli_probe(chk, m)
        metrics = layer_metrics(m)
    else:
        metrics = end_to_end_metrics(chk, m)
    shutil.rmtree(TMP_DIR, ignore_errors=True)

    _, pct = tail(m.lat)
    summary = (f"{args.workload} seed={args.seed}: {chk.attempted} operations, "
               f"{chk.failed} failed; {len(m.walls)} units; latency samples "
               f"{len(m.lat)}, tail at p{100 * pct:.2f}")
    print(summary, file=sys.stderr)
    repeats = defaultdict(int)
    for miss in chk.misses:
        repeats[json.dumps(miss)] += 1
    for miss, count in repeats.items():
        print(f"  FAILED x{count}: {miss}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "reference_self_check": checks, "summary": summary,
              "metrics": metrics, "failures": chk.misses, "setup_s": m.setups,
              "latency_s": m.lat, "unit_walls_s": m.walls,
              "raw_unit_walls_s": m.raw_walls}
    if trace:
        report["spans"] = m.spans
        report["probe_spans"] = m.probe_spans
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report))

    # Every output above was checked against the self-checked reference;
    # program failures are counted in "failed", not treated as a broken run.
    print(json.dumps({
        "correct": True,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
