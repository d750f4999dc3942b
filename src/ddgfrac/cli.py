"""Command-line driver.

Subcommands:

* ``run``          one simulation (or a small grid), snapshots + diagnostics
* ``converge``     convergence study, CSV tables with orders
* ``admissibility`` exact admissibility check of a flux parameter pair

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 admissibility violation (witness serialized).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .ddg_spatial import FluxParams, check_admissibility
from .harness import ConfigError, field_suffix, load_config, run_convergence, run_single
from .timestep import IntegrationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INADMISSIBLE = 4


def _add_common(p):
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ddgfrac",
                                 description="1D direct DG solver for fractional "
                                             "convection-diffusion and Schrodinger "
                                             "equations")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one simulation per grid cell")
    _add_common(run)

    conv = sub.add_parser("converge", help="convergence study over (alpha, N, K)")
    _add_common(conv)

    adm = sub.add_parser("admissibility", help="check a numerical-flux pair",
                         argument_default=argparse.SUPPRESS)  # the callee owns each default
    adm.add_argument("--N", type=int, required=True)
    adm.add_argument("--beta0", type=float, required=True)
    adm.add_argument("--beta1", type=float)
    adm.add_argument("--gamma", type=float)
    adm.add_argument("--mu", type=float, dest="mu_pen")
    adm.add_argument("--out", default="out")
    return ap


def _cmd_run(args) -> int:
    results = run_single(load_config(args.config), args.out)
    for diag in results:
        err = diag.get("l2_errors")
        err_txt = ("  l2_err=" + "/".join(f"{e:.3e}" for e in err)) if err else ""
        print(f"run {diag['problem']} alpha={diag['alpha']:g} N={diag['N']} "
              f"K={diag['K']}: dt={diag['dt']:.3e} steps={diag['n_steps']}"
              f"{err_txt}")
    print(f"wrote {len(results)} case(s) under {args.out}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    cells = run_convergence(load_config(args.config), args.out)
    n_fields = len(cells[0]["l2_errors"])
    for f in range(n_fields):
        for d in cells:
            order = "-" if d["orders"][f] is None else f"{d['orders'][f]:.2f}"
            print(f"{field_suffix(f, n_fields) or 'u'} alpha={d['alpha']:g} N={d['N']} "
                  f"K={d['K']}: err={d['l2_errors'][f]:.3e} order={order}")
    print(f"wrote convergence tables under {args.out}")
    return EXIT_OK


def _cmd_admissibility(args) -> int:
    given = vars(args)
    try:
        flux = FluxParams(**{k: given[k] for k in ("beta0", "beta1") if k in given})
        report = check_admissibility(flux, args.N,
                                     **{k: given[k] for k in ("gamma", "mu_pen") if k in given})
    except np.linalg.LinAlgError:  # a ValueError, but a fault of the check
        raise
    except ValueError as exc:  # a flag out of its range
        raise ConfigError(str(exc)) from None
    print(f"flux (beta0={flux.beta0:g}, beta1={flux.beta1:g}) at N={args.N}: "
          f"min_ratio={report.min_ratio:.6f} min_value={report.min_value:.3e} "
          f"admissible={report.admissible}")
    if report.admissible:
        return EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    witness_path = os.path.join(args.out, "admissibility_witness.json")
    with open(witness_path, "w") as fh:
        json.dump({
            "beta0": flux.beta0, "beta1": flux.beta1, "N": args.N,
            "gamma": report.gamma, "mu": report.mu_pen,
            "min_value": report.min_value, "min_ratio": report.min_ratio,
            "witness_dofs_left": list(report.witness[: args.N + 1]),
            "witness_dofs_right": list(report.witness[args.N + 1:]),
        }, fh, indent=1, sort_keys=True)
    print(f"violation witness written to {witness_path}")
    return EXIT_INADMISSIBLE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "admissibility":
            return _cmd_admissibility(args)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
