"""ddgfrac benchmark: one workload, end-to-end or traced, checked and summarised.

    python3 bench/run.py --workload nls_table --seed 1 --seconds 32 --trace 0

Each repetition runs the workload's CLI command (``converge`` or ``run``) on
its config in ``bench/configs/`` as one ``ddgfrac.cli.main`` call in a fresh
interpreter (``bench/child.py``), then checks the files the program wrote.

``--trace 0`` repeats the untraced call until ``--seconds`` would be
exceeded and reports the medians of the end-to-end metrics.  ``--trace 1``
repeats (untraced, traced) pairs instead: the traced call wraps each layer's
public functions from outside and records spans, from which the per-layer
metrics are derived; the untraced call gives the tracing overhead.

The workloads are deterministic PDE runs, so the program never sees the
seed; it only permutes the order of the state batch used for kernel timing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata (revision, library versions, BLAS threads, core count,
``src/`` line count).  There is one thread and no queue, so no layer waits
on another and there is no wait metric.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC_PKG = os.path.join(ROOT, "src", "ddgfrac")
TABLE4 = os.path.join(ROOT, "targets", "table4.json")
WORK = os.path.join(BENCH, "work")
CHILD_TIMEOUT_S = 120   # kills a hung call, so a run ends within --seconds + 120 s
# relative L2-norm drifts below this are round-off (large_mesh sits near
# 1e-14), so they are reported as the floor instead of as noise
DRIFT_FLOOR = 1e-12

# decay: the exact solution is exp(-decay t) times a fixed profile, so its
# squared L2 norm at T is exp(-2 decay T) times the initial one.
WORKLOADS = {
    "burgers_table": {"command": "converge", "decay": 1.0},
    "nls_table": {"command": "converge", "decay": 0.0, "table4_band": True},
    # criterion 8 of the acceptance suite: the alpha = 2 reference at T = 5
    "manakov_soliton": {"command": "run", "decay": 0.0,
                        "reference": {"alpha": 2.0, "max_error": 5e-2}},
    "large_mesh": {"command": "run", "decay": 1.0},
}

# span -> workloads on which it must record at least one call, so that a
# moved or renamed function fails loudly instead of reporting a zero
COVERAGE = {
    "specfun.gauss_legendre": ("nls_table", "large_mesh"),
    "specfun.gauss_jacobi": ("nls_table", "large_mesh"),
    "meshbasis.mass_solve": ("large_mesh",),
    "meshbasis.mass_solve_mat": ("large_mesh",),
    "meshbasis.project": ("nls_table",),
    "meshbasis.eval_field": ("manakov_soliton",),
    "fracops.assemble_frac_operator": ("large_mesh",),
    "fracops.project_riesz_poly": ("nls_table", "large_mesh"),
    "ddg_spatial.assemble_q_operator": ("large_mesh",),
    "ddg_spatial.convection_rhs": ("burgers_table",),
    "models.build_problem": tuple(WORKLOADS),
    "models.SemiDiscreteProblem.stable_dt_cap": ("large_mesh",),
    "models.SemiDiscreteProblem.initial_state": tuple(WORKLOADS),
    "models.SemiDiscreteProblem.rhs": ("nls_table", "manakov_soliton"),
    "models.SemiDiscreteProblem.l2_norms_squared": ("nls_table", "burgers_table"),
    "timestep.erk4_step": tuple(WORKLOADS),
    "timestep.integrate": tuple(WORKLOADS),
    "harness.simulate": tuple(WORKLOADS),
    "harness.write_snapshot": ("manakov_soliton",),
    "harness.write_rows_csv": ("nls_table",),
}



def _config_path(name: str) -> str:
    return os.path.join(BENCH, "configs", f"{name}.json")


def run_child(name: str, tag: str, trace: bool, seed: int):
    """One fresh-process CLI call, checked; returns (result, errors, drift) or
    None after reporting why it failed."""
    out_dir = os.path.join(WORK, name, tag)
    result_path = os.path.join(WORK, name, f"{tag}.result.json")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--command", WORKLOADS[name]["command"], "--config", _config_path(name),
           "--out", out_dir, "--result", result_path, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", os.path.join(WORK, name, f"{tag}.spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
        else:
            with open(result_path) as fh:
                result = json.load(fh)
            problems, errors, drift = check_outputs(name, result, out_dir)
    except subprocess.TimeoutExpired:
        problems = [f"timed out after {CHILD_TIMEOUT_S} s"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if problems:
        print(f"{name} {tag} failed: " + "; ".join(problems), file=sys.stderr)
        return None
    return result, errors, drift


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _converge_errors(out_dir: str, cells: list) -> tuple:
    """Per-cell errors from the program's convergence CSVs, checked against
    the in-memory results of the same run."""
    problems, errors = [], {}
    paths = sorted(glob.glob(os.path.join(out_dir, "convergence*.csv")))
    if not paths:
        return ["no convergence CSV written"], {}
    for path in paths:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (float(row["alpha"]), int(row["N"]), int(row["K"]))
                errors.setdefault(key, []).append(float(row["l2_error"]))
    for d in cells:
        key = (d["alpha"], d["N"], d["K"])
        if errors.get(key) != d["l2_errors"]:
            problems.append(f"cell {key}: CSV errors {errors.get(key)} differ "
                            f"from the run's {d['l2_errors']}")
    if len(errors) != len(cells):
        problems.append(f"{len(errors)} CSV cells for {len(cells)} runs")
    return problems, errors


def _run_outputs(out_dir: str, snapshot_times: list) -> tuple:
    """Diagnostics and snapshot files of every case ``run`` wrote."""
    problems, cells = [], []
    for diag_path in sorted(glob.glob(os.path.join(out_dir, "*", "diagnostics.json"))):
        with open(diag_path) as fh:
            diag = json.load(fh)
        cells.append(diag)
        case = os.path.dirname(diag_path)
        for t in sorted(set(snapshot_times) | {diag["T"]}):
            files = glob.glob(os.path.join(case, f"snapshot_t{t:.6f}*.txt"))
            if not files:
                problems.append(f"{case}: no snapshot at t={t}")
            for path in files:
                with open(path) as fh:
                    vals = [float(v) for line in fh for v in line.split()]
                if not vals or not _finite(vals):
                    problems.append(f"{path}: empty or non-finite")
    return problems, cells


def _as_list(v):
    return v if isinstance(v, list) else [v]


def check_outputs(name: str, result: dict, out_dir: str) -> tuple:
    """Return (problems, cell errors, mass drift) for one repetition."""
    spec = WORKLOADS[name]
    with open(_config_path(name)) as fh:
        cfg = json.load(fh)
    if result["exit_code"] != 0:
        return [f"cli.main returned {result['exit_code']}"], [], None

    if spec["command"] == "converge":
        problems, by_cell = _converge_errors(out_dir, result["cells"])
        cells = result["cells"]   # converge writes no norm history of its own
    else:
        problems, cells = _run_outputs(out_dir, cfg.get("snapshot_times", []))
        by_cell = {(d["alpha"], d["N"], d["K"]): d["l2_errors"]
                   for d in cells if "l2_errors" in d}
    n_cells = (len(_as_list(cfg["alpha"])) * len(_as_list(cfg["N"]))
               * len(_as_list(cfg["K"])))
    if len(cells) != n_cells:
        problems.append(f"{len(cells)} cells run, config has {n_cells}")

    errors = [e for errs in by_cell.values() for e in errs]
    if not errors or not _finite(errors) or min(errors) <= 0:
        problems.append(f"errors missing, non-finite or zero: {errors}")

    drift = DRIFT_FLOOR
    for d in cells:
        hist = d["l2_norm_history"]
        norms = [v for _t, vs in hist for v in vs]
        if not _finite(norms) or min(norms[:len(hist[0][1])]) <= 0:
            problems.append(f"cell {d['alpha']},{d['N']},{d['K']}: bad norm history")
            continue
        expected = math.exp(-2.0 * spec["decay"] * hist[-1][0])
        for n0, nT in zip(hist[0][1], hist[-1][1]):
            drift = max(drift, abs((nT / n0) ** 2 - expected) / expected)

    if spec.get("table4_band"):
        with open(TABLE4) as fh:
            tgt = json.load(fh)
        for (alpha, N, K), errs in by_cell.items():
            ref = tgt["errors"][f"{alpha:g}|{N}"][tgt["K"].index(K)]
            if not errs[0] <= tgt["error_factor"] * ref:
                problems.append(f"({alpha},{N},{K}) error {errs[0]:.3e} above "
                                f"{tgt['error_factor']}x table 4 ({ref:.3e})")
    ref = spec.get("reference")
    if ref:
        hits = [errs for (alpha, _N, _K), errs in by_cell.items() if alpha == ref["alpha"]]
        if not hits or max(max(e) for e in hits) > ref["max_error"]:
            problems.append(f"alpha={ref['alpha']} reference errors {hits} "
                            f"exceed {ref['max_error']}")
    return problems, errors, drift


def _gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def layer_metrics(name: str, doc: dict, result: dict, untraced_wall: float) -> tuple:
    """Per-layer metrics from one traced call; returns (metrics, coverage problems)."""
    names = doc["names"]
    count, total, self_time = {}, {}, {}
    child_sum = [0.0] * len(doc["spans"])
    for i, s, e, parent in doc["spans"]:
        if parent >= 0:
            child_sum[parent] += e - s
    for idx, (i, s, e, _p) in enumerate(doc["spans"]):
        n = names[i]
        count[n] = count.get(n, 0) + 1
        total[n] = total.get(n, 0.0) + (e - s)
        self_time[n] = self_time.get(n, 0.0) + (e - s) - child_sum[idx]
    rhs_under_step = sum(1 for i, _s, _e, p in doc["spans"]
                         if names[i] == "models.SemiDiscreteProblem.rhs"
                         and p >= 0 and names[doc["spans"][p][0]] == "timestep.erk4_step")

    def c(*ns):
        return sum(count.get(n, 0) for n in ns)

    def t(*ns):
        return sum(total.get(n, 0.0) for n in ns)

    def per_call_us(seconds, calls):
        return 1e6 * seconds / calls if calls else 0.0

    kern, steps = result["kernels"], result["steps"]
    frac_n = [n for alpha, n in result["problems_n"] if alpha < 2.0]
    conv, rhs = "ddg_spatial.convection_rhs", "models.SemiDiscreteProblem.rhs"
    m = {
        "specfun.rule_calls": c("specfun.gauss_legendre", "specfun.gauss_jacobi"),
        "specfun.rule_s": t("specfun.gauss_legendre", "specfun.gauss_jacobi"),
        "meshbasis.mass_solve_s": t("meshbasis.mass_solve", "meshbasis.mass_solve_mat"),
        "meshbasis.mass_solve_calls": c("meshbasis.mass_solve", "meshbasis.mass_solve_mat"),
        "meshbasis.project_s": t("meshbasis.project"),
        "meshbasis.eval_field_s": t("meshbasis.eval_field"),
        "fracops.assemble_s": t("fracops.assemble_frac_operator"),
        "fracops.dense_mb": 8.0 * max(frac_n, default=0) ** 2 / 1e6,
        "fracops.project_riesz_s": t("fracops.project_riesz_poly"),
        "ddg_spatial.assemble_s": t("ddg_spatial.assemble_q_operator"),
        "ddg_spatial.convection_s": t(conv),
        "ddg_spatial.convection_calls": c(conv),
        "ddg_spatial.convection_us": per_call_us(t(conv), c(conv)),
        "ddg_spatial.convection_kernel_us": 1e6 * kern["convection_s"],
        "models.build_self_s": self_time.get("models.build_problem", 0.0),
        "models.dt_cap_s": t("models.SemiDiscreteProblem.stable_dt_cap"),
        "models.rhs_calls": c(rhs),
        "models.rhs_s": t(rhs),
        "models.rhs_self_us": per_call_us(self_time.get(rhs, 0.0), c(rhs)),
        "models.e_apply_us": 1e6 * kern["e_apply_s"],
        "models.e_mflop": kern["e_flop"] / 1e6,
        "models.e_mb": kern["e_bytes"] / 1e6,
        "models.norms_s": t("models.SemiDiscreteProblem.l2_norms_squared"),
        "timestep.steps": c("timestep.erk4_step"),
        "timestep.rhs_evals": rhs_under_step,
        "timestep.cap_extra_steps": sum(s["steps"] - s["steps_cfl"] for s in steps),
        "timestep.dt_ratio_min": min(s["dt"] / s["dt_cfl"] for s in steps),
        "timestep.step_self_s": self_time.get("timestep.erk4_step", 0.0),
        "harness.output_s": t("harness.write_snapshot", "harness.write_rows_csv"),
        "harness.output_kb": result["output_bytes"] / 1e3,
        "harness.simulate_self_s": self_time.get("harness.simulate", 0.0),
        "cli.trace_overhead_s": result["wall_s"] - untraced_wall,
    }
    missing = [f"{span} recorded no call on {name}"
               for span, where in COVERAGE.items() if name in where and not count.get(span)]
    return m, missing


def declared_units() -> tuple:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def metadata(seed: int, runtime: dict) -> dict:
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    src_lines = 0
    for path in glob.glob(os.path.join(SRC_PKG, "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"seed": seed, "git_revision": rev, "python": sys.version.split()[0],
            "numpy": runtime.get("numpy"), "scipy": runtime.get("scipy"),
            "blas": runtime.get("blas_config"),
            "blas_threads": runtime.get("blas_threads"),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ddgfrac benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for path in (os.path.join(SRC_PKG, "cli.py"), TABLE4):
        if not os.path.isfile(path):
            print(f"benchmark needs {path}; run it from a ddgfrac checkout",
                  file=sys.stderr)
            return 2
    name = args.workload
    shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    os.makedirs(os.path.join(WORK, name))

    attempted, failed = 0, 0
    e2e, layers, runtime = {}, [], {}
    deadline = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        attempted += 1
        plain = run_child(name, f"untraced{attempted}", False, args.seed)
        if plain is None:
            failed += 1
        else:
            runtime, errors, drift = plain
            sample = {"wall_s": runtime["wall_s"], "setup_s": runtime["setup_s"],
                      "peak_rss_mb": runtime["peak_rss_mb"],
                      "l2_error_gmean": _gmean(errors), "mass_drift": drift}
            for k, v in sample.items():
                e2e.setdefault(k, []).append(v)
        if args.trace:
            attempted += 1
            tag = f"traced{attempted}"
            traced = run_child(name, tag, True, args.seed)
            if traced is None:
                failed += 1
            elif plain is not None:
                with open(os.path.join(WORK, name, f"{tag}.spans.json")) as fh:
                    doc = json.load(fh)
                m, missing = layer_metrics(name, doc, traced[0], runtime["wall_s"])
                layers.append(m)
                if missing:
                    failed += 1
                    print(f"{name} {tag}: " + "; ".join(missing), file=sys.stderr)
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break

    meta = metadata(args.seed, runtime)
    meta["repetitions"] = len(e2e.get("wall_s", ()))
    with open(os.path.join(WORK, name, "metadata.json"), "w") as fh:
        json.dump({**meta, "samples": e2e}, fh, indent=1)
    print("metadata " + json.dumps(meta))

    if not e2e or (args.trace and not layers):
        print(f"{name}: no repetition succeeded", file=sys.stderr)
        return 1
    e2e_units, layer_units = declared_units()
    if args.trace:
        units = layer_units
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    else:
        units = e2e_units
        values = {k: statistics.median(v) for k, v in e2e.items()}
    if set(values) != set(units):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
