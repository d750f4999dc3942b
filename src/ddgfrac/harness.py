"""Batch driver: validated run configs, single runs, convergence studies,
CSV tables and plot-ready snapshot files.

A config is one JSON document; ``alpha``, ``N`` and ``K`` may be scalars or
lists, and a convergence study runs their full grid.  Output files use a
fixed 17-significant-digit float format so identical configs reproduce
identical bytes (the wall-time column is the one measurement that varies
between runs).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, replace
from operator import ge, gt, le, lt
from typing import Optional

import numpy as np

from .meshbasis import MAX_DEGREE, FieldVector, eval_field
from .models import CROSS_COUPLED, EXAMPLES, SemiDiscreteProblem, build_problem, make_example
from .ddg_spatial import FluxParams
from .timestep import RunControl, cfl_timestep, integrate


# Per key: its kind (JSON true is no number, nor are NaN and Infinity; 2.0 is an integer),
# its form (one value, one_or_list: that or a non-empty list, or a list only) and bounds.
CONFIG_KEYS = {
    "problem": ("string", "one", ()),
    "alpha": ("number", "one_or_list", ((gt, 1), (le, 2))),
    "N": ("integer", "one_or_list", ((ge, 1), (le, MAX_DEGREE))),
    "K": ("integer", "one_or_list", ((ge, 1),)),
    "T": ("number", "one", ((gt, 0),)),
    "cfl_c": ("number", "one", ((gt, 0), (lt, 1))),
    "dt_override": ("number", "one", ((gt, 0),)),
    "beta0": ("number", "one", ((gt, 0),)),
    "beta1": ("number", "one", ()),
    "cross_coupling": ("number", "one", ()),
    "snapshot_times": ("number", "list", ()),
    "points_per_cell": ("integer", "one", ((ge, 1), (le, 64))),
}
_KINDS = {"string": lambda v: type(v) is str,
          "number": lambda v: type(v) in (int, float) and math.isfinite(v),
          "integer": lambda v: type(v) is int or (type(v) is float and v.is_integer())}
_BROKEN = {gt: "less than or equal to the minimum", ge: "less than the minimum",
           lt: "greater than or equal to the maximum", le: "greater than the maximum"}

class ConfigError(ValueError):
    """An unreadable config, a key that breaks ``CONFIG_KEYS`` (a non-finite number too),
    an unknown problem, a misplaced cross_coupling or beta1 (flux), a grid that
    ``grid_cells`` rejects, or converge without an exact solution or with snapshot times."""


@dataclass
class RunConfig:
    """Validated run configuration with study grids."""

    problem: str
    alphas: list
    N_list: list
    K_list: list
    T: Optional[float] = None
    cfl_c: Optional[float] = None
    dt_override: Optional[float] = None
    flux: Optional[FluxParams] = None
    cross_coupling: Optional[float] = None
    snapshot_times: tuple = ()
    points_per_cell: int = 8


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if type(raw) is not dict:
        raise ConfigError(f"config {path}: {raw!r} is not of type 'object'")
    errors = [f"{key!r} is missing or an empty list" for key in ("problem", "alpha", "N", "K")
              if raw.get(key, []) == []]
    errors += [f"{key!r} was unexpected" for key in raw if key not in CONFIG_KEYS]
    values = {}  # each given key's values as a list
    for key in sorted(CONFIG_KEYS.keys() & raw):
        kind, form, bounds = CONFIG_KEYS[key]
        value = raw[key]
        if form == "list" and type(value) is not list:
            errors.append(f"{key}: {value!r} is not of type 'array'")
        values[key] = value if form != "one" and type(value) is list else [value]
        for v in values[key]:
            if not _KINDS[kind](v):
                errors.append(f"{key}: {v!r} is not of type {kind!r}")
                continue
            errors += [f"{key}: {v!r} is {_BROKEN[op]} of {b}" for op, b in bounds if not op(v, b)]
    if errors:
        raise ConfigError(f"config {path}: {'; '.join(errors)}")
    if raw["problem"] not in EXAMPLES:
        raise ConfigError(f"unknown problem {raw['problem']!r}; "
                          f"known: {', '.join(EXAMPLES)}")
    if "cross_coupling" in raw and raw["problem"] not in CROSS_COUPLED:
        raise ConfigError(f"cross_coupling is read only by {' and '.join(CROSS_COUPLED)}, "
                          f"not by {raw['problem']!r}")
    flux = None
    if "beta0" in raw or "beta1" in raw:
        if "beta0" not in raw:
            raise ConfigError("beta1 given without beta0")
        flux = FluxParams(**{k: raw[k] for k in ("beta0", "beta1") if k in raw})
    return RunConfig(
        problem=raw["problem"],
        alphas=values["alpha"],
        N_list=[int(N) for N in values["N"]],  # CONFIG_KEYS takes 2.0 as an integer
        K_list=[int(K) for K in values["K"]],
        T=raw.get("T"),
        cfl_c=raw.get("cfl_c"),
        dt_override=raw.get("dt_override"),
        flux=flux,
        cross_coupling=raw.get("cross_coupling"),
        snapshot_times=tuple(raw.get("snapshot_times", ())),
        points_per_cell=int(raw.get("points_per_cell", RunConfig.points_per_cell)),
    )


def compute_order(errors, h_values) -> list:
    """order_i = log(e_{i-1}/e_i) / log(h_{i-1}/h_i); first entry is None."""
    errors = list(errors)
    h_values = list(h_values)
    if len(errors) != len(h_values):
        raise ValueError("errors and mesh sizes must pair up")
    if any(e <= 0 for e in errors):
        raise ValueError("orders need positive errors")
    if any(h <= 0 for h in h_values) or any(a == b for a, b in zip(h_values, h_values[1:])):
        raise ValueError(f"orders need positive mesh sizes, no two successive equal: {h_values}")
    orders = [None]
    for i in range(1, len(errors)):
        orders.append(math.log(errors[i - 1] / errors[i])
                      / math.log(h_values[i - 1] / h_values[i]))
    return orders


def _fmt(x) -> str:
    return "" if x is None else format(x, ".17g")


def field_suffix(field: int, n_fields: int) -> str:
    """Names a field's files (CSV, snapshots): none for one field, else _u1, _u2."""
    return "" if n_fields == 1 else f"_u{field + 1}"


def write_rows_csv(path: str, cells, field: int) -> None:
    with open(path, "w") as fh:
        fh.write("alpha,N,K,dt,l2_error,order,wall_time_ms\n")
        for d in cells:
            fh.write(f"{_fmt(d['alpha'])},{d['N']},{d['K']},{_fmt(d['dt'])},"
                     f"{_fmt(d['l2_errors'][field])},{_fmt(d['orders'][field])},"
                     f"{d['wall_time_ms']}\n")


def grid_cells(cfg: RunConfig) -> list:
    """The config's grid as (case tag, ProblemSpec) pairs, K varying fastest.

    Every grid-level check runs here, before any cell steps: no two cells may
    share a case tag (also the cell's case directory under ``run``), and every
    snapshot time must lie in (0, T] and get a file tag of its own.
    """
    for name in ("alphas", "N_list", "K_list"):
        if not len(getattr(cfg, name)):
            raise ConfigError(f"{name} is an empty list, so the grid has no cells")
    cells = {}
    for alpha, N, K in itertools.product(cfg.alphas, cfg.N_list, cfg.K_list):
        tag = f"{cfg.problem}_a{alpha:g}_N{N}_K{K}"
        if tag in cells:
            raise ConfigError(f"grid repeats the cell {tag} (case tags "
                              "give alpha to 6 significant digits)")
        cells[tag] = make_example(cfg.problem, alpha, K, N, flux=cfg.flux, T=cfg.T,
                                  cfl_c=cfg.cfl_c, cross_coupling=cfg.cross_coupling)
    for T in dict.fromkeys(spec.T for spec in cells.values()):
        tags = {f"{T:.6f}": T}
        for t in sorted(set(cfg.snapshot_times) - {T}):
            if not 0.0 < t <= T:
                raise ConfigError(f"snapshot time {t!r} lies outside (0, T = {T!r}]")
            if tags.setdefault(f"{t:.6f}", t) != t:
                raise ConfigError(f"snapshot times {tags[f'{t:.6f}']!r} and {t!r} share "
                                  f"the file tag snapshot_t{t:.6f}")
    return list(cells.items())


def simulate(cfg: RunConfig, spec):
    """Run one spec of grid_cells; returns (problem, final state, snapshots, diagnostics)."""
    problem = build_problem(spec)
    control = RunControl(T=spec.T, cfl_c=spec.cfl_c,
                         dt_override=cfg.dt_override,
                         snapshot_times=cfg.snapshot_times)
    history = []

    def observer(t, state):
        history.append((t, problem.l2_norms_squared(state, t)))

    t0 = time.perf_counter()
    dt_cap = problem.stable_dt_cap()
    dt_cfl = cfl_timestep(replace(control, dt_override=None), problem.mesh.dx, spec.alpha)
    dt_bound = ("override" if cfg.dt_override is not None
                else "cap" if dt_cap < dt_cfl else "cfl")
    state, snaps, dt, n_steps = integrate(
        problem.rhs, problem.initial_state(), control,
        problem.mesh.dx, spec.alpha, observer=observer,
        dt_cap=dt_cap, labels=problem.roles,
    )
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))

    diagnostics = {
        "problem": cfg.problem, "alpha": spec.alpha, "N": spec.N, "K": spec.K,
        "T": spec.T, "dt": dt, "n_steps": n_steps,
        "dt_cfl": dt_cfl, "dt_cap": dt_cap, "dt_bound": dt_bound,
        "wall_time_ms": wall_ms,
        "l2_norm_history": [[t, [math.sqrt(max(s, 0.0)) for s in sq]]
                            for t, sq in history],
    }
    if spec.exact is not None:
        diagnostics["l2_errors"] = problem.field_errors(state, spec.T)
    return problem, state, snaps, diagnostics


def snapshot_grid(problem: SemiDiscreteProblem, points_per_cell: int) -> np.ndarray:
    """Per-cell sample points (left edge inclusive) plus the right endpoint."""
    mesh = problem.mesh
    offs = np.arange(points_per_cell) / points_per_cell
    xs = (mesh.boundaries[:-1, None] + mesh.dx * offs[None, :]).ravel()
    return np.append(xs, mesh.b)


def write_snapshot(path: str, problem: SemiDiscreteProblem, state: np.ndarray,
                   t: float, points_per_cell: int) -> list:
    """Plot-ready columns of the (m, n) state; complex fields write (x, re, im).

    Writes one file per physical field, and returns their paths: ``path``
    with each field's ``field_suffix`` before the extension.
    """
    xs = snapshot_grid(problem, points_per_cell)
    full = problem.full_fields(state, t)
    base, ext = os.path.splitext(path)
    written = []
    for j, u in enumerate(full):
        parts = (u.real, u.imag) if problem.spec.is_complex else (u,)
        cols = [eval_field(FieldVector(c, problem.mesh, problem.basis), xs) for c in parts]
        fp = f"{base}{field_suffix(j, len(full))}{ext}"
        # np.savetxt(fmt="%.17g")'s bytes, in one format call
        row = " ".join(["%.17g"] * (1 + len(cols))) + "\n"
        with open(fp, "w") as fh:
            fh.write(row * len(xs) % tuple(np.column_stack([xs] + cols).ravel().tolist()))
        written.append(fp)
    return written


def run_single(cfg: RunConfig, out_dir: str) -> list:
    """Execute the config's (alpha, N, K) grid as plain runs with snapshots."""
    results = []
    for tag, spec in grid_cells(cfg):
        problem, state, snaps, diag = simulate(cfg, spec)
        case_dir = os.path.join(out_dir, tag)
        os.makedirs(case_dir, exist_ok=True)
        # T is in snaps too when it was requested: one file per time
        files = []
        for t_snap, s in sorted({**snaps, diag["T"]: state}.items()):
            files += write_snapshot(
                os.path.join(case_dir, f"snapshot_t{t_snap:.6f}.txt"),
                problem, s, t_snap, cfg.points_per_cell)
        with open(os.path.join(case_dir, "diagnostics.json"), "w") as fh:
            json.dump(diag, fh, indent=1, sort_keys=True)
        diag["files"] = files
        results.append(diag)
    return results


def run_convergence(cfg: RunConfig, out_dir: str) -> list:
    """Run the grid, write a convergence CSV per field, return the cell records."""
    if cfg.snapshot_times:
        # they would shorten steps to land on each time and write nothing
        raise ConfigError("converge writes no snapshots; remove snapshot_times "
                          "or use run")
    cells = grid_cells(cfg)
    for tag, spec in cells:
        if spec.exact is None:
            raise ConfigError(f"problem {cfg.problem!r} has no exact solution at "
                              f"{tag}; convergence studies need one")
    os.makedirs(out_dir, exist_ok=True)
    diags = [simulate(cfg, spec)[3] for _, spec in cells]
    for i in range(0, len(diags), len(cfg.K_list)):  # K innermost: a slice per (alpha, N)
        group = diags[i:i + len(cfg.K_list)]
        orders = [compute_order(errs, [1.0 / d["K"] for d in group])
                  for errs in zip(*(d["l2_errors"] for d in group))]
        for d, o in zip(group, zip(*orders)):
            d["orders"] = list(o)
    n_fields = len(diags[0]["l2_errors"])
    for f in range(n_fields):
        write_rows_csv(os.path.join(out_dir, f"convergence{field_suffix(f, n_fields)}.csv"),
                       diags, f)
    return diags
