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
