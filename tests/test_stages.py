"""The stage harness, bench/stages.py, runs and writes every key it promises."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("jacobi", "laguerre", "hermite", "gen_jacobi", "gen_laguerre", "gen_hermite")
STAGES = ("recurrence", "derivative_matrix", "top_pairs", "sobolev_factor", "residual")


def test_one_repeat_writes_every_stage_and_job(tmp_path):
    out = tmp_path / "stages.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "stages.py"), "--repeats", "1",
                    "--out", str(out)], check=True, cwd=ROOT, timeout=300)
    result = json.loads(out.read_text())
    assert result["repeats"] == 1 and result["n"] == 40
    assert set(result["environment"]) >= {"python", "numpy", "nproc", "blas_threads"}
    assert set(result["environment"]["blas_threads"].values()) == {"1"}
    assert set(result["stages"]) == set(FAMILIES)
    for family in FAMILIES:
        assert set(result["stages"][family]) == set(STAGES)
    jobs = result["jobs"]
    assert set(jobs) == {"constant", "sweep", "verify_matrix", "cli_cold", "degrees_1_400"}
    assert set(jobs["constant"]) == set(jobs["sweep"]) == set(FAMILIES)
    assert set(jobs["degrees_1_400"]) == {"legendre", "jacobi"}
    times = [t for family in FAMILIES for t in result["stages"][family].values()]
    times += [*jobs["constant"].values(), *jobs["sweep"].values(),
              *jobs["degrees_1_400"].values(), jobs["verify_matrix"], jobs["cli_cold"]]
    assert all(t > 0 for t in times)


# Imports the harness in a fresh interpreter, which pins BLAS and sys.path at
# import, and records which program functions each stage's timed call reaches
STAGE_PROBE = """
import importlib.util, json, sys
loader = importlib.util.spec_from_file_location("stages", sys.argv[1])
stages = importlib.util.module_from_spec(loader)
loader.loader.exec_module(stages)
from markovsharp import markov, quadrature
reached = []
for owner, name in ((quadrature, "_recurrence"), (markov, "_sobolev_factor")):
    def counted(*args, _name=name, _real=getattr(owner, name)):
        reached.append(_name)
        return _real(*args)
    setattr(owner, name, counted)
out = {}
for family in sys.argv[2:]:
    for stage, call in stages.stage_calls(stages.make_weight(stages.WEIGHTS[family])):
        reached.clear()
        call()
        out[f"{family} {stage}"] = reached[:]
print(json.dumps(out))
"""


def test_stages_call_the_programs_recurrence_and_factor():
    families = ("jacobi", "gen_jacobi")  # a closed form and the Stieltjes ladder
    done = subprocess.run([sys.executable, "-c", STAGE_PROBE, str(ROOT / "bench" / "stages.py"),
                           *families], check=True, cwd=ROOT, timeout=60, capture_output=True,
                          text=True)
    reached = json.loads(done.stdout)
    for family in families:
        assert {stage: reached[f"{family} {stage}"] for stage in STAGES} == {
            "recurrence": ["_recurrence"], "derivative_matrix": [], "top_pairs": [],
            "sobolev_factor": ["_sobolev_factor"], "residual": []}
