"""Config validation, convergence tables, snapshots, CLI and determinism."""

import glob
import inspect
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import ddgfrac
from ddgfrac import harness
from ddgfrac.cli import main as cli_main
from ddgfrac.ddg_spatial import FluxParams, check_admissibility
from ddgfrac.harness import (
    ConfigError,
    RunConfig,
    compute_order,
    grid_cells,
    load_config,
    run_convergence,
    run_single,
    simulate,
    snapshot_grid,
    write_snapshot,
)
from ddgfrac.meshbasis import FieldVector, eval_field
from ddgfrac.models import EXAMPLES, build_problem, make_example
from ddgfrac.timestep import RunControl, cfl_timestep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_compute_order_examples():
    assert compute_order([8.0, 1.0], [2.0, 1.0]) == [None, pytest.approx(3.0)]
    got = compute_order([7.65e-4, 2.16e-4], [1.0, 0.5])[1]
    assert got == pytest.approx(1.824, abs=5e-3)
    assert compute_order([0.5, 0.5, 0.5], [4.0, 2.0, 1.0])[1:] == [
        pytest.approx(0.0), pytest.approx(0.0)]
    with pytest.raises(ValueError):
        compute_order([1.0, -1.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        compute_order([1.0, 1.0], [2.0])
    # two equal successive sizes would divide by log(1), a non-positive one has no log
    for h in ([1e-3, 5e-4, 5e-4], [0.5, -0.25], [0.5, 0.0]):
        with pytest.raises(ValueError, match="orders need positive mesh sizes") as exc:
            compute_order([0.5] * len(h), h)
        assert str(exc.value).endswith(f": {h}")


def test_config_schema_rejects_unknown_keys(tmp_path):
    path = _write(tmp_path, "c.json", {"problem": "ex1", "alpha": 1.3,
                                       "N": 1, "K": 8, "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_schema_rejects_empty_K(tmp_path):
    path = _write(tmp_path, "c.json", {"problem": "ex1", "alpha": 1.3,
                                       "N": 1, "K": []})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_unknown_problem(tmp_path):
    path = _write(tmp_path, "c.json", {"problem": "exZ", "alpha": 1.3,
                                       "N": 1, "K": 8})
    with pytest.raises(ConfigError):
        load_config(path)


def test_shipped_configs_load_and_build():
    # every prepared config passes CONFIG_KEYS and builds a problem spec for
    # each grid cell (nothing is run), so a renamed key or example shows here
    paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))
                   + glob.glob(os.path.join(ROOT, "bench", "configs", "*.json")))
    assert len(paths) >= 20
    for path in paths:
        cfg = load_config(path)
        assert [(spec.alpha, spec.N, spec.K) for _, spec in grid_cells(cfg)] == [
            (alpha, N, K) for alpha in cfg.alphas for N in cfg.N_list for K in cfg.K_list]


def test_converge_produces_orders(tmp_path):
    cfg = RunConfig(problem="ex1", alphas=[1.3], N_list=[1], K_list=[8, 16],
                    T=0.25)
    cells = run_convergence(cfg, str(tmp_path / "out"))
    assert [d["K"] for d in cells] == [8, 16]
    assert cells[0]["orders"] == [None]
    assert cells[1]["orders"][0] == pytest.approx(2.0, abs=0.4)
    csv = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert csv[0] == "alpha,N,K,dt,l2_error,order,wall_time_ms"
    assert len(csv) == 3


def test_converge_returns_the_cell_records_with_per_field_orders(tmp_path, capsys):
    # one record per cell, simulate's diagnostics with each field's order
    # over its (alpha, N) group; the CSVs and the printed table read them
    cfg = _write(tmp_path, "c.json", {"problem": "ex8", "alpha": [1.3, 1.6], "N": 1,
                                      "K": [4, 8], "T": 0.05})
    cells = run_convergence(load_config(cfg), str(tmp_path / "out"))
    assert [(d["alpha"], d["N"], d["K"]) for d in cells] == [
        (1.3, 1, 4), (1.3, 1, 8), (1.6, 1, 4), (1.6, 1, 8)]
    for group in (cells[:2], cells[2:]):
        for f in range(2):
            want = compute_order([d["l2_errors"][f] for d in group], [0.25, 0.125])
            assert [d["orders"][f] for d in group] == want

    def g17(x):
        return "" if x is None else format(x, ".17g")

    for f in range(2):
        rows = (tmp_path / "out" / f"convergence_u{f + 1}.csv").read_text().splitlines()
        assert [r.split(",")[:6] for r in rows[1:]] == [
            [g17(d["alpha"]), str(d["N"]), str(d["K"]), g17(d["dt"]),
             g17(d["l2_errors"][f]), g17(d["orders"][f])] for d in cells]
    capsys.readouterr()
    assert cli_main(["converge", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"_u{f} alpha={d['alpha']:g} N=1 K={d['K']}" for f in (1, 2) for d in cells]
    assert lines[0].endswith("order=-") and not lines[1].endswith("order=-")


def test_run_and_converge_build_one_spec_per_cell(tmp_path, monkeypatch):
    # grid_cells builds each cell's ProblemSpec once, K varying fastest, and
    # run and converge check and run the specs it returns
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_example(*args, **kwargs)

    monkeypatch.setattr(harness, "make_example", counting)
    cfg = RunConfig(problem="ex1", alphas=[1.3, 1.6], N_list=[1, 2], K_list=[4, 8], T=0.01)
    want = [("ex1", alpha, K, N) for alpha in (1.3, 1.6) for N in (1, 2) for K in (4, 8)]
    for run in (run_convergence, run_single):
        calls.clear()
        assert len(run(cfg, str(tmp_path / run.__name__))) == len(want)
        assert calls == want


def test_an_empty_grid_is_a_config_error(tmp_path):
    # load_config rejects an empty list, but a RunConfig built in code can
    # hold one; grid_cells names it before run or converge makes a directory
    grid = {"alphas": [1.5], "N_list": [1], "K_list": [8]}
    for name in grid:
        cfg = RunConfig(problem="ex1", T=0.01, **{**grid, name: []})
        for run in (run_single, run_convergence):
            out = tmp_path / f"{run.__name__}_{name}"
            with pytest.raises(ConfigError, match=f"^{name} is an empty list"):
                run(cfg, str(out))
            assert not out.exists()


def test_integral_floats_for_N_and_K_run_as_ints(tmp_path, capsys):
    # CONFIG_KEYS counts 2.0 as an integer; load_config makes it one, so the
    # outputs are those of 2, and a repeated K is caught as one
    base = {"problem": "ex1", "alpha": 1.5, "T": 0.02}
    for i, (N, K, ppc) in enumerate(((2, [4, 8], 4), (2.0, [4.0, 8.0], 4.0))):
        cfg = _write(tmp_path, f"c{i}.json", {**base, "N": N, "K": K, "points_per_cell": ppc})
        for command in ("run", "converge"):
            assert cli_main([command, "--config", cfg, "--out", str(tmp_path / str(i))]) == 0

    def outputs(root):
        got = {}
        for path in sorted(glob.glob(str(root / "**" / "*.*"), recursive=True)):
            if os.path.isdir(path):
                continue
            text = open(path).read()
            if path.endswith(".json"):
                text = {k: v for k, v in json.loads(text).items() if k != "wall_time_ms"}
            elif path.endswith(".csv"):
                text = [line.rsplit(",", 1)[0] for line in text.splitlines()]
            got[os.path.relpath(path, root)] = text
        return got

    want = outputs(tmp_path / "0")
    assert len(want) == 5 and outputs(tmp_path / "1") == want
    twice = _write(tmp_path, "k.json", {**base, "N": 2, "K": [8, 8.0]})
    capsys.readouterr()
    for command in ("run", "converge"):
        assert cli_main([command, "--config", twice, "--out", str(tmp_path / "k")]) == 2
        assert "grid repeats the cell ex1_a1.5_N2_K8" in capsys.readouterr().err


def test_config_flux_reaches_every_cell(tmp_path, capsys):
    cfg = load_config(_write(tmp_path, "f.json", {"problem": "ex1", "alpha": [1.3, 2.0],
                                                  "N": [1, 2], "K": 4,
                                                  "beta0": 3, "beta1": 0.05}))
    assert cfg.flux == FluxParams(3.0, 0.05)
    for _, spec in grid_cells(cfg):
        assert build_problem(spec).qop.flux == FluxParams(3.0, 0.05)
    bad = _write(tmp_path, "b.json", {"problem": "ex1", "alpha": 1.3, "N": 1, "K": 4,
                                      "beta1": 0.05})
    capsys.readouterr()
    for command in ("run", "converge"):
        assert cli_main([command, "--config", bad, "--out", str(tmp_path / "b")]) == 2
        assert "config error: beta1 given without beta0" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"problem": "ex1", "alpha": 1.3,')
    capsys.readouterr()
    for path in (str(tmp_path / "missing.json"), str(tmp_path), str(broken)):
        for command in ("run", "converge"):
            assert cli_main([command, "--config", path, "--out", str(tmp_path / "r")]) == 2
            assert f"config error: cannot read config {path}: " in capsys.readouterr().err


def test_converge_deterministic_modulo_walltime(tmp_path):
    cfg = RunConfig(problem="ex1", alphas=[1.3], N_list=[1], K_list=[8, 16],
                    T=0.25)
    run_convergence(cfg, str(tmp_path / "a"))
    run_convergence(cfg, str(tmp_path / "b"))

    def strip_wall(p):
        lines = (tmp_path / p / "convergence.csv").read_text().splitlines()
        return ["," .join(l.split(",")[:-1]) for l in lines]

    assert strip_wall("a") == strip_wall("b")


def test_dt_cfl_is_the_cfl_rule_with_or_without_an_override():
    # diagnostics' dt_cfl is timestep.cfl_timestep without the override: an
    # override sets dt and dt_bound, not the CFL step reported beside them
    spec = make_example("ex1", 1.5, 8, 1, T=0.01)
    diags = [simulate(RunConfig(problem="ex1", alphas=[1.5], N_list=[1], K_list=[8],
                                T=0.01, dt_override=dt), spec)[3]
             for dt in (None, 1e-3)]
    want = cfl_timestep(RunControl(T=spec.T, cfl_c=spec.cfl_c), 2.0 / 8, 1.5)
    assert diags[0]["dt_cfl"] == diags[1]["dt_cfl"] == want
    assert diags[1]["dt"] == 1e-3 and diags[1]["dt_bound"] == "override"


def test_flux_and_admissibility_defaults_have_one_owner(tmp_path):
    # a flag or key left out takes FluxParams' and check_admissibility's own
    # defaults, and the witness records the values the check used
    defaults = inspect.signature(check_admissibility).parameters
    for extra, want in (([], (FluxParams(0.1).beta1, defaults["gamma"].default,
                              defaults["mu_pen"].default)),
                        (["--beta1", "0.05", "--gamma", "0.4", "--mu", "0.2"], (0.05, 0.4, 0.2))):
        out = tmp_path / f"adm{len(extra)}"
        argv = ["admissibility", "--N", "2", "--beta0", "0.1", "--out", str(out)]
        assert cli_main(argv + extra) == 4
        witness = json.loads((out / "admissibility_witness.json").read_text())
        assert (witness["beta0"], witness["N"]) == (0.1, 2)
        assert (witness["beta1"], witness["gamma"], witness["mu"]) == want
    cfg = _write(tmp_path, "flux.json", {"problem": "ex1", "alpha": 1.3, "N": 1, "K": 8,
                                         "beta0": 2.0})
    assert load_config(cfg).flux == FluxParams(2.0)


def test_run_writes_snapshots_and_diagnostics(tmp_path, monkeypatch):
    cfg = RunConfig(problem="ex7", alphas=[1.5], N_list=[1], K_list=[8],
                    T=0.1, points_per_cell=8)
    results = run_single(cfg, str(tmp_path / "out"))
    case = tmp_path / "out" / "ex7_a1.5_N1_K8"
    snap = np.loadtxt(case / "snapshot_t0.100000.txt")
    assert snap.shape == (8 * 8 + 1, 3)       # (x, re, im) columns
    diag = json.loads((case / "diagnostics.json").read_text())
    assert diag["n_steps"] > 0
    assert "l2_errors" in diag
    # which bound set dt, and both candidates: the CFL rule here; the
    # spectral cap on the coarse Burgers profile run; an override when given
    assert diag["dt_bound"] == "cfl" and diag["dt"] == diag["dt_cfl"] < diag["dt_cap"]
    assert diag["dt_cfl"] == pytest.approx(0.05 * 0.25 ** 1.5, rel=1e-15)
    for dt_override, bound in ((None, "cap"), (0.01, "override")):
        cfg = RunConfig(problem="ex5", alphas=[1.5], N_list=[3], K_list=[8],
                        T=0.05, dt_override=dt_override)
        d = run_single(cfg, str(tmp_path / bound))[0]
        assert d["dt_bound"] == bound and d["dt_cap"] < d["dt_cfl"]
        assert d["dt"] == (d["dt_cap"] if dt_override is None else dt_override)
    assert results[0]["l2_errors"][0] < 5e-2
    # a snapshot time equal to T is written once, as the final state
    calls = []

    def counting(path, *args):
        calls.append(os.path.basename(path))
        return write_snapshot(path, *args)

    monkeypatch.setattr(harness, "write_snapshot", counting)
    cfg = RunConfig(problem="ex1", alphas=[1.5], N_list=[1], K_list=[8], T=0.05,
                    snapshot_times=(0.02, 0.05))
    files = run_single(cfg, str(tmp_path / "at_T"))[0]["files"]
    assert calls == ["snapshot_t0.020000.txt", "snapshot_t0.050000.txt"]
    assert [os.path.basename(f) for f in files] == calls


def test_coupled_run_writes_one_file_per_field(tmp_path):
    cfg = RunConfig(problem="ex8", alphas=[1.1], N_list=[1], K_list=[6], T=0.05)
    errs = run_single(cfg, str(tmp_path / "out"))[0]["l2_errors"]
    # the lifted manufactured solution: 1.09e-2 per field on this coarse mesh
    assert len(errs) == 2 and max(errs) < 2e-2
    case = tmp_path / "out" / "ex8_a1.1_N1_K6"
    assert (case / "snapshot_t0.050000_u1.txt").exists()
    assert (case / "snapshot_t0.050000_u2.txt").exists()


def test_convergence_requires_exact_solution(tmp_path):
    cfg = RunConfig(problem="ex5", alphas=[1.5], N_list=[1], K_list=[8, 16], T=0.05)
    with pytest.raises(ConfigError):
        run_convergence(cfg, str(tmp_path / "out"))


def test_convergence_checks_every_cell_for_an_exact_solution_before_stepping(
        tmp_path, monkeypatch):
    # nls_soliton has no exact solution, and manakov has one only at
    # alpha = 2: neither may step a cell before converge exits 2
    def no_stepping(*args, **kwargs):
        raise AssertionError("a cell stepped")

    monkeypatch.setattr(harness, "integrate", no_stepping)
    for i, raw in enumerate(({"problem": "nls_soliton", "alpha": 1.5, "N": 2,
                              "K": [200, 300], "T": 4.0},
                             {"problem": "manakov", "alpha": [2.0, 1.6], "N": 2,
                              "K": [16, 32], "T": 0.1})):
        cfg = _write(tmp_path, f"c{i}.json", raw)
        with pytest.raises(ConfigError, match="no exact solution"):
            run_convergence(load_config(cfg), str(tmp_path / f"out{i}"))
        assert cli_main(["converge", "--config", cfg, "--out", str(tmp_path / f"cli{i}")]) == 2


def test_cli_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "ok.json", {"problem": "ex1", "alpha": 1.3, "N": 1,
                                      "K": 8, "T": 0.05})
    assert cli_main(["run", "--config", ok, "--out", str(tmp_path / "r")]) == 0

    bad = _write(tmp_path, "bad.json", {"problem": "ex1", "alpha": 1.3,
                                        "N": 1, "K": 8, "zzz": True})
    assert cli_main(["run", "--config", bad, "--out", str(tmp_path / "r2")]) == 2

    blow = _write(tmp_path, "blow.json", {"problem": "ex1", "alpha": 1.3,
                                          "N": 2, "K": 16, "T": 100.0,
                                          "dt_override": 0.5})
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["run", "--config", blow, "--out", str(tmp_path / "r3")]) == 3
    assert [str(w.message) for w in caught] == []
    report = capsys.readouterr().err
    assert "numerical failure: non-finite state in component 'u'" in report
    assert "with dt = 0.5;" in report and "max |state| grew from" in report

    code = cli_main(["admissibility", "--N", "1", "--beta0", "0", "--beta1", "0",
                     "--out", str(tmp_path / "adm")])
    assert code == 4
    witness = json.loads((tmp_path / "adm" / "admissibility_witness.json").read_text())
    assert witness["N"] == 1 and len(witness["witness_dofs_left"]) == 2

    assert cli_main(["admissibility", "--N", "0", "--beta0", "1"]) == 0

    # out-of-range input exits 2 with a message that states the limit
    capsys.readouterr()
    for args, limit in ((["--gamma", "1.5"], "gamma must lie in (0, 1)"),
                        (["--mu", "0"], "mu_pen in (0, 1]"),
                        (["--N", "12"], "degree must be in [0, 8], got 12"),
                        (["--beta0", "-1"], "beta0 must be non-negative"),
                        (["--beta0", "nan"], "beta0 must be non-negative and finite, got nan"),
                        (["--beta0", "inf"], "beta0 must be non-negative and finite, got inf"),
                        (["--beta1", "nan"], "beta1 must be finite, got nan")):
        argv = ["admissibility", "--N", "1", "--beta0", "1"] + args
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and limit in err
    raw = {"problem": "ex1", "alpha": 1.3, "N": 1, "K": 8, "T": 0.05}
    for key, value, limit in (
            ("alpha", 2.5, "2.5 is greater than the maximum of 2"),
            ("alpha", [1.5, 1.0], "1.0 is less than or equal to the minimum of 1"),
            ("N", 9, "9 is greater than the maximum of 8"),
            ("N", [2, 12], "12 is greater than the maximum of 8"),
            ("beta0", 0, "0 is less than or equal to the minimum of 0"),
            ("K", 0, "K: 0 is less than the minimum of 1"),
            ("K", [8, 0], "K: 0 is less than the minimum of 1"),
            ("T", 0, "T: 0 is less than or equal to the minimum of 0"),
            ("cfl_c", 1, "cfl_c: 1 is greater than or equal to the maximum of 1"),
            ("dt_override", 0, "dt_override: 0 is less than or equal to the minimum of 0"),
            ("points_per_cell", 65, "points_per_cell: 65 is greater than the maximum of 64"),
            ("N", True, "N: True is not of type 'integer'"),
            ("K", 2.5, "K: 2.5 is not of type 'integer'"),
            ("snapshot_times", 0.5, "snapshot_times: 0.5 is not of type 'array'"),
            # JSON has no NaN or Infinity, though Python's json reads them
            ("T", float("inf"), "T: inf is not of type 'number'"),
            ("alpha", [1.5, float("nan")], "alpha: nan is not of type 'number'"),
            ("beta0", float("-inf"), "beta0: -inf is not of type 'number'"),
            ("beta1", float("inf"), "beta1: inf is not of type 'number'"),
            ("dt_override", float("nan"), "dt_override: nan is not of type 'number'"),
            ("cross_coupling", float("nan"), "cross_coupling: nan is not of type 'number'"),
            ("snapshot_times", [float("nan")], "snapshot_times: nan is not of type 'number'"),
            ("K", float("inf"), "K: inf is not of type 'integer'"),
            ("K", [], "'K' is missing or an empty list"),
            # no key: the value is the whole config
            (None, ["ex1", 1.3, 1, 8], "['ex1', 1.3, 1, 8] is not of type 'object'")):
        cfg = _write(tmp_path, "range.json", value if key is None else {**raw, key: value})
        for command in ("run", "converge"):
            assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "r4")]) == 2
            assert limit in capsys.readouterr().err

    # removed keys are unknown keys; an unknown problem names every example
    for key, value in (("varpi1", 0.0175), ("label", "x")):
        cfg = _write(tmp_path, "old.json", {"problem": "coupled_strong", "alpha": 1.6,
                                            "N": 1, "K": 8, key: value})
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "r5")]) == 2
        assert f"'{key}' was unexpected" in capsys.readouterr().err
    cfg = _write(tmp_path, "nope.json", {"problem": "ex9", "alpha": 1.6, "N": 1, "K": 8})
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "r6")]) == 2
    err = capsys.readouterr().err
    assert "unknown problem 'ex9'; known: " + ", ".join(EXAMPLES) in err

    # cross_coupling where no example reads it exits 2 before any run
    cfg = _write(tmp_path, "cc.json", {"problem": "ex8", "alpha": 1.1, "N": 1,
                                       "K": 8, "cross_coupling": 0.5})
    assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "r7")]) == 2
    err = capsys.readouterr().err
    assert "cross_coupling is read only by coupled_strong and manakov" in err
    assert not (tmp_path / "r7").exists()


_FRESH_CLI = textwrap.dedent("""
    import json, sys
    before = set(sys.modules)
    def loaded():
        # top-level modules loaded since start-up, less the stdlib and the
        # entries Cython-built extensions add (cython_runtime, _cython_*)
        tops = {m.split(".")[0] for m in set(sys.modules) - before}
        print("loaded:", sorted(m for m in tops - set(sys.stdlib_module_names)
                                if not m.startswith(("cython_runtime", "_cython_"))))
        print("numpy.random:", "numpy.random" in sys.modules)
    from ddgfrac import cli
    loaded()
    for i, argv in enumerate(json.loads(sys.argv[2])):
        assert cli.main([*argv, "--out", sys.argv[1] + str(i)]) == 0
    loaded()
""")


def _fresh_cli(tmp_path, calls):
    """Import ddgfrac.cli in a fresh interpreter and run cli.main on each
    argument list; returns the child's report lines after the import and
    after the calls."""
    src = os.path.dirname(os.path.dirname(ddgfrac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", _FRESH_CLI, str(tmp_path / "out"),
                           json.dumps(calls)], env=env, check=True, capture_output=True,
                          text=True, timeout=120).stdout.splitlines()


def test_cli_import_and_run_load_no_scipy(tmp_path):
    # the solver needs numpy only: Gauss-Jacobi rules come from Golub-Welsch
    # in numpy, SemiDiscreteProblem.E imports scipy only when it is read, and
    # harness.CONFIG_KEYS checks a config, so no third-party package but
    # numpy is loaded (no scipy, no schema validator).  Loading scipy would
    # add about 0.3 s and 27 MB to every CLI process.
    # alpha = 2 applies E through a BlockOperator at every size; ex1 at
    # alpha = 1.5 assembles the Riesz blocks and its forcing with Jacobi rules
    configs = [_write(tmp_path, "m.json", {"problem": "manakov", "alpha": 2.0, "N": 1,
                                           "K": 8, "T": 0.01, "cross_coupling": 1.0}),
               _write(tmp_path, "e.json", {"problem": "ex1", "alpha": 1.5, "N": 2,
                                           "K": 8, "T": 0.01})]
    out = _fresh_cli(tmp_path, [["run", "--config", cfg] for cfg in configs])
    assert ([line for line in out if line.startswith("loaded")]
            == ["loaded: ['ddgfrac', 'numpy']"] * 2)
    assert len(glob.glob(str(tmp_path / "out[01]" / "*" / "diagnostics.json"))) == 2


def test_cli_runs_never_load_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of resident memory per process, and no
    # CLI path needs it: the dt cap starts its Arnoldi estimate from a fixed
    # Weyl sequence.  run on the three families that step (ex3 with
    # convection, ex7 complex, manakov with two fields) and converge on an
    # ex7 grid, then check that neither the import nor the runs loaded it
    runs = [("ex3", {"alpha": 1.5, "N": 1, "K": 8}),
            ("ex7", {"alpha": 1.3, "N": 2, "K": 8}),
            ("manakov", {"alpha": 1.6, "N": 1, "K": 8, "cross_coupling": 1.0})]
    calls = [["run", "--config", _write(tmp_path, f"{name}.json",
                                        {"problem": name, "T": 0.01, **keys})]
             for name, keys in runs]
    calls.append(["converge", "--config", _write(
        tmp_path, "grid.json", {"problem": "ex7", "alpha": 1.1, "N": 1, "K": [4, 8],
                                "T": 0.01})])
    out = _fresh_cli(tmp_path, calls)
    assert [line for line in out if line.startswith("numpy.random")] == \
        ["numpy.random: False"] * 2
    assert len(glob.glob(str(tmp_path / "out[012]" / "*" / "diagnostics.json"))) == 3
    assert os.path.exists(tmp_path / "out3" / "convergence.csv")


def test_cli_rejects_grid_cells_that_share_a_case_tag(tmp_path, capsys):
    # a repeated K would divide by log(1) in the orders; alphas equal to six
    # significant digits would share one case directory
    twice_k = _write(tmp_path, "k.json", {"problem": "ex1", "alpha": 1.3, "N": 1,
                                          "K": [8, 8], "T": 0.05})
    close_alpha = _write(tmp_path, "a.json", {"problem": "ex1", "alpha": [1.6, 1.6000001],
                                              "N": 1, "K": 8, "T": 0.05})
    capsys.readouterr()
    assert cli_main(["converge", "--config", twice_k, "--out", str(tmp_path / "c")]) == 2
    assert "grid repeats the cell ex1_a1.3_N1_K8" in capsys.readouterr().err
    assert cli_main(["run", "--config", close_alpha, "--out", str(tmp_path / "r")]) == 2
    assert "grid repeats the cell ex1_a1.6_N1_K8" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_cli_rejects_snapshot_times_it_would_lose(tmp_path, capsys):
    # a time outside (0, T] is never reached, and two times that share a
    # file tag would write one file: either exits 2 before the cell runs
    base = {"problem": "ex5", "alpha": 1.5, "N": 1, "K": 8, "T": 0.05}
    out = tmp_path / "r"
    capsys.readouterr()
    for times, message in (
            ([0.02, 0.5, -1.0, 0.0200000001], "snapshot time -1.0 lies outside (0, T = 0.05]"),
            ([0.02, 0.5], "snapshot time 0.5 lies outside (0, T = 0.05]"),
            ([0.0], "snapshot time 0.0 lies outside"),
            ([0.02, 0.0200000001],
             "snapshot times 0.02 and 0.0200000001 share the file tag snapshot_t0.020000"),
            ([0.0499999999],
             "snapshot times 0.05 and 0.0499999999 share the file tag snapshot_t0.050000")):
        cfg = _write(tmp_path, "s.json", {**base, "snapshot_times": times})
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # times inside (0, T], T itself included, each get their own file
    cfg = _write(tmp_path, "s.json", {**base, "snapshot_times": [0.03, 0.05, 0.02]})
    assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "ex5_a1.5_N1_K8").glob("snapshot_*")) == [
        "snapshot_t0.020000.txt", "snapshot_t0.030000.txt", "snapshot_t0.050000.txt"]


def test_cli_converge_rejects_snapshot_times(tmp_path, capsys):
    # converge writes no snapshots, and the times would still shorten its
    # steps and so change the table: a config error (exit 2) before any run
    cfg = _write(tmp_path, "c.json", {"problem": "ex1", "alpha": 1.5, "N": 1,
                                      "K": [8, 16], "T": 0.05, "snapshot_times": [0.0123]})
    out = tmp_path / "c"
    capsys.readouterr()
    assert cli_main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert "converge writes no snapshots" in capsys.readouterr().err
    assert not out.exists()


def test_snapshot_bytes_match_savetxt(tmp_path):
    # one format call per file writes exactly np.savetxt's "%.17g" bytes,
    # here for a two-field complex snapshot and a real one
    rng = np.random.default_rng(4)
    for name in ("ex8", "ex1"):
        prob = build_problem(make_example(name, 1.5, 6, 2))
        m, t = prob.spec.n_components, 0.25
        shape = (m, prob.n)
        state = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        if prob.spec.is_complex:
            state = state + 1j * rng.standard_normal(shape)
        files = write_snapshot(str(tmp_path / f"{name}.txt"), prob, state, t, 4)
        assert len(files) == m
        xs = snapshot_grid(prob, 4)
        full = prob.full_fields(state, t)
        for fp, u in zip(files, full):
            parts = (u.real, u.imag) if prob.spec.is_complex else (u,)
            cols = [eval_field(FieldVector(c, prob.mesh, prob.basis), xs) for c in parts]
            ref = tmp_path / "ref.txt"
            np.savetxt(ref, np.column_stack([xs] + cols), fmt="%.17g")
            with open(fp, "rb") as fh:
                assert fh.read() == ref.read_bytes()
