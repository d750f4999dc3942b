"""Run one benchmark workload as one ``ddgfrac.cli.main`` call in this process.

Started by ``bench/run.py`` in a fresh interpreter for every repetition, so
each call pays its own imports and nothing is cached between calls:

    python3 bench/child.py --command converge --config CFG --out DIR \
        --result RESULT.json [--trace SPANS.json --seed N]

Untraced, only the set-up calls (``build_problem``, ``stable_dt_cap``,
``initial_state``) and ``simulate`` are wrapped; that costs a handful of
calls per cell.  With ``--trace`` the public functions of every layer are
wrapped from outside, each call is recorded as a span (name, start, end,
parent) in memory, and the spans are written out when the call returns.
The wrappers are then removed and the RHS term kernels are timed over a
fixed batch of states captured from the run.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import importlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (module, attribute) pairs; "Class.method" patches the class attribute,
# a plain function name is replaced in every ddgfrac module that binds it.
SETUP_TARGETS = (
    ("models", "build_problem"),
    ("models", "SemiDiscreteProblem.stable_dt_cap"),
    ("models", "SemiDiscreteProblem.initial_state"),
)
UNTRACED_TARGETS = SETUP_TARGETS + (("harness", "simulate"),)
TRACE_TARGETS = UNTRACED_TARGETS + (
    ("specfun", "gauss_legendre"),
    ("specfun", "gauss_jacobi"),
    ("meshbasis", "mass_solve"),
    ("meshbasis", "mass_solve_mat"),
    ("meshbasis", "project"),
    ("meshbasis", "eval_field"),
    ("fracops", "assemble_frac_operator"),
    ("fracops", "project_riesz_poly"),
    ("ddg_spatial", "assemble_q_operator"),
    ("ddg_spatial", "convection_rhs"),
    ("models", "SemiDiscreteProblem.rhs"),
    ("models", "SemiDiscreteProblem.l2_norms_squared"),
    ("timestep", "erk4_step"),
    ("timestep", "integrate"),
    ("harness", "write_snapshot"),
    ("harness", "write_rows_csv"),
)

MAX_STATES = 32          # states kept for the kernel batch
KERNEL_MIN_S = 0.3       # time each kernel for at least this long


class Tracer:
    """In-memory span recorder; span ids are indices into ``spans``."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent id or -1)
        self._stack = [-1]

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def total(self, names) -> float:
        return sum(e - s for n, s, e, _p in self.spans if n in names)


def _ddgfrac_modules():
    return [m for name, m in sys.modules.items()
            if name == "ddgfrac" or name.startswith("ddgfrac.")]


def install(tracer, targets, hooks):
    """Wrap every target; returns the undo list of (owner, attr, original)."""
    undo = []
    modules = _ddgfrac_modules()
    for mod_name, attr in targets:
        mod = importlib.import_module(f"ddgfrac.{mod_name}")
        span_name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[meth]
            setattr(owner, meth, tracer.wrap(span_name, orig, hooks.get(span_name)))
            undo.append((owner, meth, orig))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(span_name, orig, hooks.get(span_name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


class Capture:
    """Per-call facts the spans alone do not carry."""

    def __init__(self):
        self.cells = []          # simulate() diagnostics, one per cell
        self.integrations = []   # (control, dx_min, alpha, dt, n_steps)
        self.problems_n = []     # (alpha, n) per build_problem
        self.output_bytes = 0
        self.kernel_problem = None
        self.states = []         # (t, flat state) of kernel_problem
        self._stride = 1
        self._seen = 0

    def hooks(self, traced: bool) -> dict:
        hooks = {"harness.simulate": self._on_simulate}
        if traced:
            hooks.update({
                "timestep.integrate": self._on_integrate,
                "models.build_problem": self._on_build,
                "models.SemiDiscreteProblem.rhs": self._on_rhs,
                "harness.write_snapshot": self._on_snapshot,
                "harness.write_rows_csv": self._on_rows,
            })
        return hooks

    def _on_simulate(self, args, kwargs, result):
        self.cells.append(result[3])

    def _on_integrate(self, args, kwargs, result):
        _rhs, _state0, control, dx_min, alpha = args[:5]
        self.integrations.append((control, dx_min, alpha, result[2], result[3]))

    def _on_build(self, args, kwargs, problem):
        self.problems_n.append((problem.spec.alpha, problem.n))

    def _on_rhs(self, args, kwargs, result):
        problem, t, flat = args
        if problem is not self.kernel_problem:
            # keep the largest cell; the first one of that size wins
            if self.kernel_problem is not None and problem.n <= self.kernel_problem.n:
                return
            self.kernel_problem, self.states = problem, []
            self._stride, self._seen = 1, 0
        if self._seen % self._stride == 0:
            self.states.append((t, flat.copy()))
            if len(self.states) > MAX_STATES:
                self.states = self.states[::2]
                self._stride *= 2
        self._seen += 1

    def _on_snapshot(self, args, kwargs, files):
        self.output_bytes += sum(os.path.getsize(f) for f in files)

    def _on_rows(self, args, kwargs, result):
        self.output_bytes += os.path.getsize(args[0])


def _time_kernel(fn, batch) -> float:
    """Median seconds of one ``fn(item)`` over repeated passes of the batch."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < KERNEL_MIN_S:
        for item in batch:
            t0 = time.perf_counter()
            fn(item)
            samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def kernel_timings(capture: Capture, seed: int) -> dict:
    """E apply and convection over the captured states of the largest cell.

    The seed only permutes the order in which the batch is applied.
    """
    import numpy as np

    from ddgfrac.ddg_spatial import convection_rhs
    from ddgfrac.meshbasis import FieldVector

    problem = capture.kernel_problem
    ncomp = problem.spec.n_components
    order = np.random.default_rng(seed).permutation(len(capture.states))
    batch = [capture.states[i] for i in order]
    E_T = problem.E.T
    out = {
        "e_apply_s": _time_kernel(lambda s: s[1].reshape(ncomp, problem.n) @ E_T, batch),
        "e_flop": 2.0 * ncomp * problem.n ** 2,
        "e_bytes": 8.0 * problem.n ** 2,
        "convection_s": 0.0,
    }
    spec = problem.spec
    if spec.conv is not None:
        def conv(s):
            t, flat = s
            full = problem.full_fields(flat.reshape(ncomp, problem.n), t)
            convection_rhs(FieldVector(full[0], problem.mesh, problem.basis),
                           spec.conv, spec.bcs[0], t)
        out["convection_s"] = _time_kernel(conv, batch)
    return out


def step_replay(capture: Capture) -> list:
    """Steps and dt each cell would take under the CFL rule alone."""
    import numpy as np

    from ddgfrac.timestep import cfl_timestep, integrate

    def zero_rhs(t, s):
        return np.zeros_like(s)

    cells = []
    for control, dx_min, alpha, dt, n_steps in capture.integrations:
        dt_cfl = cfl_timestep(control, dx_min, alpha)
        n_cfl = integrate(zero_rhs, np.zeros(1), control, dx_min, alpha)[3]
        cells.append({"dt": dt, "dt_cfl": dt_cfl, "steps": n_steps, "steps_cfl": n_cfl})
    return cells


def runtime_info() -> dict:
    """numpy/scipy versions, and thread count and build of numpy's OpenBLAS."""
    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": None, "blas_config": "unknown"}

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info.update(blas_threads=threads(), blas_config=config().decode())
                return info
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--command", required=True, choices=("run", "converge"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import ddgfrac
    from ddgfrac import cli

    if not os.path.abspath(ddgfrac.__file__).startswith(SRC + os.sep):
        print(f"ddgfrac imported from {ddgfrac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    traced = args.trace is not None
    tracer, capture = Tracer(), Capture()
    undo = install(tracer, TRACE_TARGETS if traced else UNTRACED_TARGETS,
                   capture.hooks(traced))

    t0 = time.perf_counter()
    code = cli.main([args.command, "--config", args.config, "--out", args.out])
    wall = time.perf_counter() - t0
    uninstall(undo)

    result = {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": tracer.total({f"{m}.{a}" for m, a in SETUP_TARGETS}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": capture.cells,
        **runtime_info(),
    }
    if traced and code == 0:
        result["kernels"] = kernel_timings(capture, args.seed)
        result["steps"] = step_replay(capture)
        result["problems_n"] = capture.problems_n
        result["output_bytes"] = capture.output_bytes
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(args.trace, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans]},
                      fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
