"""Batch driver: validated run configs, single runs, convergence studies,
CSV tables and plot-ready snapshot files.

A config is one JSON document; ``alpha``, ``N`` and ``K`` may be scalars or
lists, and a convergence study runs their full grid.  Output files use a
fixed 17-significant-digit float format so identical configs reproduce
identical bytes (the wall-time column is the one measurement that varies
between runs).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from jsonschema import Draft202012Validator

from .meshbasis import MAX_DEGREE, FieldVector, eval_field
from .models import CROSS_COUPLED, EXAMPLES, SemiDiscreteProblem, build_problem, make_example
from .ddg_spatial import FluxParams
from .timestep import RunControl, cfl_timestep, integrate


def _one_or_list(kind: str, **bounds) -> dict:
    """One ``kind`` value within ``bounds``, or a non-empty list of them.

    Bounds act on numbers and ``items`` on arrays, so a bad value is
    reported with the bound it breaks.
    """
    return {"type": [kind, "array"], **bounds, "minItems": 1,
            "items": {"type": kind, **bounds}}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "alpha", "N", "K"],
    "properties": {
        "problem": {"type": "string"},
        "alpha": _one_or_list("number", exclusiveMinimum=1, maximum=2),
        "N": _one_or_list("integer", minimum=1, maximum=MAX_DEGREE),
        "K": _one_or_list("integer", minimum=1),
        "T": {"type": "number", "exclusiveMinimum": 0},
        "cfl_c": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "dt_override": {"type": "number", "exclusiveMinimum": 0},
        "beta0": {"type": "number", "exclusiveMinimum": 0},
        "beta1": {"type": "number"},
        "cross_coupling": {"type": "number"},
        "snapshot_times": {"type": "array", "items": {"type": "number"}},
        "points_per_cell": {"type": "integer", "minimum": 1, "maximum": 64},
    },
}

class ConfigError(ValueError):
    """An unreadable config, a schema violation, an unknown problem, a grid that
    repeats a cell, snapshot times outside (0, T] or sharing a file tag, converge
    without an exact solution, or a misplaced cross_coupling or beta1 (flux)."""


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


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(raw),
                    key=lambda e: e.path)
    if errors:
        msgs = "; ".join(f"{'/'.join(map(str, e.path))}: {e.message}" if e.path
                         else e.message for e in errors)
        raise ConfigError(f"config schema violation: {msgs}")
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
        alphas=_as_list(raw["alpha"]),
        N_list=[int(N) for N in _as_list(raw["N"])],  # the schema takes 2.0 as an integer
        K_list=[int(K) for K in _as_list(raw["K"])],
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
    orders = [None]
    for i in range(1, len(errors)):
        orders.append(math.log(errors[i - 1] / errors[i])
                      / math.log(h_values[i - 1] / h_values[i]))
    return orders


def _fmt(x) -> str:
    return "" if x is None else format(x, ".17g")


def field_suffix(field: int, n_fields: int) -> str:
    """Names a field's convergence CSV: none for one field, else _u1, _u2."""
    return "" if n_fields == 1 else f"_u{field + 1}"


def write_rows_csv(path: str, cells, field: int) -> None:
    with open(path, "w") as fh:
        fh.write("alpha,N,K,dt,l2_error,order,wall_time_ms\n")
        for d in cells:
            fh.write(f"{_fmt(d['alpha'])},{d['N']},{d['K']},{_fmt(d['dt'])},"
                     f"{_fmt(d['l2_errors'][field])},{_fmt(d['orders'][field])},"
                     f"{d['wall_time_ms']}\n")


def case_tag(cfg: RunConfig, alpha: float, N: int, K: int) -> str:
    """Name of one grid cell, also its case directory under ``run``."""
    return f"{cfg.problem}_a{alpha:g}_N{N}_K{K}"


def grid_cells(cfg: RunConfig) -> list:
    """The config's (alpha, N, K) cells; no two may share a case tag."""
    cells, seen = [], set()
    for alpha in cfg.alphas:
        for N in cfg.N_list:
            for K in cfg.K_list:
                tag = case_tag(cfg, alpha, N, K)
                if tag in seen:
                    raise ConfigError(f"grid repeats the cell {tag} (case tags "
                                      "give alpha to 6 significant digits)")
                seen.add(tag)
                cells.append((alpha, N, K))
    return cells


def cell_spec(cfg: RunConfig, alpha: float, N: int, K: int):
    """The ProblemSpec of one grid cell."""
    return make_example(cfg.problem, alpha, K, N, flux=cfg.flux, T=cfg.T,
                        cfl_c=cfg.cfl_c, cross_coupling=cfg.cross_coupling)


def simulate(cfg: RunConfig, alpha: float, N: int, K: int):
    """One simulation; returns (problem, final state, snapshots, diagnostics)."""
    spec = cell_spec(cfg, alpha, N, K)
    # every requested snapshot is reached and gets a file of its own
    tags = {f"{spec.T:.6f}": spec.T}
    for t in sorted(set(cfg.snapshot_times) - {spec.T}):
        if not 0.0 < t <= spec.T:
            raise ConfigError(f"snapshot time {t!r} lies outside (0, T = {spec.T!r}]")
        if tags.setdefault(f"{t:.6f}", t) != t:
            raise ConfigError(f"snapshot times {tags[f'{t:.6f}']!r} and {t!r} share "
                              f"the file tag snapshot_t{t:.6f}")
    problem = build_problem(spec)
    control = RunControl(T=spec.T, cfl_c=spec.cfl_c,
                         dt_override=cfg.dt_override,
                         snapshot_times=cfg.snapshot_times)
    history = []

    def observer(t, state):
        history.append((t, problem.l2_norms_squared(state, t)))

    t0 = time.perf_counter()
    dt_cap = problem.stable_dt_cap()
    dt_cfl = cfl_timestep(replace(control, dt_override=None), problem.mesh.dx, alpha)
    dt_bound = ("override" if cfg.dt_override is not None
                else "cap" if dt_cap < dt_cfl else "cfl")
    state, snaps, dt, n_steps = integrate(
        problem.rhs, problem.initial_state(), control,
        problem.mesh.dx, alpha, observer=observer,
        dt_cap=dt_cap, labels=problem.roles,
    )
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))

    diagnostics = {
        "problem": cfg.problem, "alpha": alpha, "N": N, "K": K,
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

    Writes one file per physical field, and returns their paths: a single
    field uses ``path`` itself, several get ``_u1``, ``_u2`` suffixes.
    """
    xs = snapshot_grid(problem, points_per_cell)
    full = problem.full_fields(state, t)
    base, ext = os.path.splitext(path)
    written = []
    for u, name in zip(full, problem.roles):
        parts = (u.real, u.imag) if problem.spec.is_complex else (u,)
        cols = [eval_field(FieldVector(c, problem.mesh, problem.basis), xs) for c in parts]
        fp = f"{base}_{name}{ext}" if len(full) > 1 else path
        # np.savetxt(fmt="%.17g")'s bytes, in one format call
        row = " ".join(["%.17g"] * (1 + len(cols))) + "\n"
        with open(fp, "w") as fh:
            fh.write(row * len(xs) % tuple(np.column_stack([xs] + cols).ravel().tolist()))
        written.append(fp)
    return written


def run_single(cfg: RunConfig, out_dir: str) -> list:
    """Execute the config's (alpha, N, K) grid as plain runs with snapshots."""
    cells = grid_cells(cfg)
    results = []
    for alpha, N, K in cells:
        problem, state, snaps, diag = simulate(cfg, alpha, N, K)
        case_dir = os.path.join(out_dir, case_tag(cfg, alpha, N, K))
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
    for alpha, N, K in cells:
        if cell_spec(cfg, alpha, N, K).exact is None:
            raise ConfigError(f"problem {cfg.problem!r} has no exact solution at "
                              f"{case_tag(cfg, alpha, N, K)}; convergence studies need one")
    os.makedirs(out_dir, exist_ok=True)
    diags = [simulate(cfg, alpha, N, K)[3] for alpha, N, K in cells]
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
