"""Machine-speed calibration for the benchmark's timings.

A small shared machine runs a process up to 2x slower for seconds to minutes
at a time, whatever the process does (other tenants share its cores and
caches).  That drift swamps the run-to-run differences the benchmark is
meant to show.  So every timed stretch of work is bracketed by a fixed
calibration snippet, pure-Python loops and small numpy calls like the
program's own mix, and its time is reported at a reference speed: multiplied
by ``NOMINAL_S`` over the mean of the calibration times just before and just
after it.  Work done in fresh processes (CLI calls) is bracketed by a fresh
process instead (``calibrate_spawn``).  No snippet calls markovsharp code,
so a change to the program moves the reported times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Time of one calibrate() call on an unloaded 2-vCPU x86-64 machine
# (Python 3.11, numpy 2.4, one BLAS thread), so that reported times stay close
# to raw seconds there.
NOMINAL_S = 0.015
# Time of one fresh ``python -c "import numpy"`` process on that machine.
NOMINAL_SPAWN_S = 0.10
# Longest stretch of operations a worker runs between two calibrations.
EVERY_S = 0.25

_A = np.random.default_rng(0).standard_normal((30, 30))
_A = _A @ _A.T + np.eye(30)
_X = np.linspace(0.0, 1.0, 2000)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small numpy work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i
    for _ in range(30):
        np.linalg.eigvalsh(_A)
        np.linalg.svd(_A[:20, :20])
        np.polynomial.legendre.legvander(_X, 30)
    return time.perf_counter() - t0


def calibrate_spawn() -> float:
    """Like calibrate(), for work done in fresh processes.

    Times a fresh interpreter importing numpy, which tracks the drift of
    process start-up and imports (page cache, exec, unmarshalling) better
    than in-process work does, and returns it in calibrate() seconds, so
    that scaled() takes it as it takes a calibrate() time.  The child
    inherits this process's environment.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * NOMINAL_S / NOMINAL_SPAWN_S


def scaled(times, cals) -> list[float]:
    """``times`` at the reference speed.

    ``cals`` holds ``(i, seconds)`` for each calibration, run just before
    ``times[i]`` (``i == len(times)`` after the last); each time is scaled by
    the mean of the nearest calibrations before and after it.
    """
    out = []
    j = 0
    for i, t in enumerate(times):
        while j + 1 < len(cals) and cals[j + 1][0] <= i:
            j += 1
        after = next(c for k, c in cals[j + 1:] if k > i)
        out.append(t * NOMINAL_S / ((cals[j][1] + after) / 2))
    return out
