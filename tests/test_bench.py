"""The bench's traced run still works against the package it wraps.

``bench/child.py --trace`` wraps public functions of every module and reads
problem attributes from outside; a rename there, or a refactor that stops
calling a wrapped function, would otherwise show only as a failed bench run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from ddgfrac.models import FOLD_MIN_DOF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")


def _bench_coverage() -> dict:
    """``COVERAGE`` of ``bench/run.py``: span -> workloads that must call it."""
    path = os.path.join(ROOT, "bench", "run.py")
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COVERAGE


# ex4 has a lift, so the convection kernel reads nonzero boundary data
# (ex3's are zero); manakov goes through ``run``, as the bench's
# manakov_soliton does: ``converge`` writes no snapshots and rejects
# snapshot_times.  The complex states reach the E kernel (``@ problem.E.T``)
# through the dense E (ex7, alpha = 1.5), at N = 1 and the first folded size
# (``FOLD_MIN_DOF``) the dense E unfolded from its folded half, the DDG stage
# alone (manakov, alpha = 2) and, at K = 288, N = 1 (576 DOFs, the first
# matrix-free size), the FFT stage (manakov, alpha = 1.6)
@pytest.mark.parametrize("command,config,workload", [
    ("converge", {"problem": "ex3", "alpha": 1.5, "N": 1, "K": 8, "T": 0.05}, "burgers_table"),
    ("converge", {"problem": "ex4", "alpha": 1.5, "N": 1, "K": 8, "T": 0.05}, "burgers_table"),
    ("run", {"problem": "manakov", "alpha": 2.0, "N": 1, "K": 16, "T": 0.1,
             "cross_coupling": 1.0, "snapshot_times": [0.05]}, "manakov_soliton"),
    ("converge", {"problem": "ex7", "alpha": 1.5, "N": 1, "K": 8, "T": 0.05}, "nls_table"),
    ("converge", {"problem": "ex7", "alpha": 1.5, "N": 1, "K": FOLD_MIN_DOF // 2,
                  "T": 0.002}, "nls_table"),
    ("run", {"problem": "manakov", "alpha": 1.6, "N": 1, "K": 288, "T": 0.02},
     "manakov_soliton"),
], ids=["ex3", "ex4", "manakov", "ex7", "ex7_folded", "manakov_fft"])
def test_traced_bench_child_runs(tmp_path, command, config, workload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, CHILD, "--command", command, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--result", str(result),
         "--trace", str(tmp_path / "spans.json"), "--seed", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    assert got["exit_code"] == 0, proc.stderr
    assert "kernels" in got and "steps" in got
    assert got["steps"] and all(cell["steps"] > 0 for cell in got["steps"])
    doc = json.loads((tmp_path / "spans.json").read_text())
    called = {doc["names"][i] for i, _start, _end, _parent in doc["spans"]}
    required = {span for span, where in _bench_coverage().items() if workload in where}
    assert {"timestep.erk4_step", "timestep.integrate"} <= required
    assert required <= called, sorted(required - called)
