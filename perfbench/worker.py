"""Benchmark worker: runs markovsharp operations sent by run.py.

Protocol: one JSON object per line on stdin, one reply per line on stdout.

* ``{"items": [...], "trace": bool}`` runs the operations in
  order, one at a time, and replies with each result (or the error it
  raised), each operation's latency, the machine calibrations run between
  operations (see machine.py) and, traced, the recorded spans;
* end of input ends the worker.

The worker imports only the checkout's own ``src/markovsharp``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import machine
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program(module: str = "markovsharp"):
    """Import a markovsharp module from this checkout's src, never from elsewhere."""
    if not (SRC / "markovsharp" / "__init__.py").is_file():
        sys.exit(f"no markovsharp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    __import__(module)
    mod = sys.modules[module]
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported {mod.__file__}, not the checkout's sources")
    return mod


def run_op(ms, req: dict) -> dict:
    """One operation as a user would call it, starting from the weight's JSON."""
    spec = ms.make_weight(req["weight"])
    op = req["op"]
    if op == "verify":
        check = ms.verify_theorem(req["case"], spec, ms.SobolevSpec(req["lambdas"]), req["ns"])
        return {"values": [float(v) for v in check.sharp_values], "passed": bool(check.passed)}
    n = req["n"]
    if op == "mirsky":
        return {"value": float(ms.mirsky_bound(spec, n))}
    if req["lambdas"]:
        res = ms.sharp_constant_sobolev(spec, ms.SobolevSpec(req["lambdas"]), n)
    else:
        res = ms.sharp_constant_l2(spec, n)
    out = {"value": float(res.value)}
    if op == "extremal":
        rec, _ = ms.markov.basis_for(spec, n)
        poly = ms.extremal_polynomial(res, rec)
        out["achieved"] = float(poly.achieved_ratio)
        out["finite"] = bool(all(abs(v) < float("inf") for v in poly([0.0, 0.5])))
    return out


def main() -> None:
    ms = import_program()
    tracer = Tracer()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("trace"):
            tracer.install()
        results, lat, cal = [], [], []
        last_cal = -float("inf")
        for i, req in enumerate(msg["items"]):
            if time.perf_counter() - last_cal > machine.EVERY_S:
                cal.append((i, machine.calibrate()))
                last_cal = time.perf_counter()
            tracer.request_id = i
            t0 = time.perf_counter()
            try:
                out = run_op(ms, req)
            except Exception as exc:  # a failed operation is a result to report
                out = {"error": f"{type(exc).__name__}: {exc}"}
            lat.append(time.perf_counter() - t0)
            results.append(out)
        tracer.uninstall()
        cal.append((len(lat), machine.calibrate()))
        reply = {"results": results, "lat": lat, "cal": cal, "spans": tracer.drain()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
