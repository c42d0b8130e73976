"""Command-line front end.

Subcommands:

    verify spinor                  self-test of the projection identities
    verify lemma3                  Monte-Carlo sweep of the 3/2 inequality
    counterexample                 ratio ladder for one strip family -> CSV
    fit                            log-log slope fit of a ratio CSV -> JSON
    region                         region membership / parameter choice at (s, r)
    region-grid                    membership sweep over the (s, r) plane -> CSV
    solve                          evolve the coupled system, diagnostics -> CSV

All informational output is JSON on stdout.  Exit code 0 means every
check requested by the subcommand passed.  Every refused command prints
one ``{"error": ...}``, writes nothing to stderr and exits with code 2:
argparse's errors (a missing, unknown or malformed option, a bad choice),
input a subcommand rejects, an ``--out`` it cannot open and memory the
host will not allocate alike.  A negative number in exponent notation
needs the ``=`` form (``--s=-1e-3``), since argparse reads ``-1e-3`` as an
option.  ``region-grid`` refuses more than 2 * 10**6 points (``--ns``
times ``--nr``), a cap on run time, before it opens ``--out``.
``counterexample`` and ``solve`` open their outputs once their
input is checked and before they compute, so an unwritable path is
reported at once; a ``solve`` whose T / dt is not finite or not below 2**53
(exit code 2) or that records a non-finite row, t = 0 included (exit code
1 with ``{"error": ..., "step": ...}``), leaves both files empty.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time

import numpy as np

from . import counterexamples as cx
from . import regions, solver, spinor, weights

IDENTITY_TOL = 1e-14
NULL_FORM_TOL = 1e-12
SLOPE_TOL = 0.15
_MAX_GRID_POINTS = 2 * 10**6  # about 9 s and 69 MB of region-grid CSV on a 2-core x86-64 host
_EXPONENT_COLUMNS = cx.ExponentTuple._fields


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    if args.target == "spinor":
        residuals = spinor.verify_identities(n_samples=args.samples, seed=args.seed)
        ok = all(
            value <= (NULL_FORM_TOL if key == "null_form_vanishing" else IDENTITY_TOL)
            for key, value in residuals.items()
        )
        _emit({"target": "spinor", "samples": args.samples, "residuals": residuals, "pass": ok})
        return 0 if ok else 1
    stats = weights.sample_margins(args.samples, seed=args.seed)
    ok = (
        stats["min_relative_margin"] >= -1e-9
        and stats["min_relative_sum_bound_margin"] >= -1e-9
        and stats["max_relative_residual"] <= 1e-12
    )
    _emit({"target": "lemma3", **stats, "pass": ok})
    return 0 if ok else 1


def _cmd_counterexample(args) -> int:
    L_values = cx.check_scales(args.family, (float(v) for v in args.L.split(",")))
    exps = cx._exponent_tuple(float(v) for v in args.exps.split(","))
    # Open the output before the ladder, so that an unwritable path fails at once.
    with open(args.out, "w", newline="") as fh:
        rows = cx.ratio_ladder(args.family, L_values, [exps])
        writer = csv.writer(fh)
        writer.writerow(["family", "L", *_EXPONENT_COLUMNS, "numerator", "denom_u", "denom_v", "ratio"])
        writer.writerows(
            [r.family, r.L, *r.exponents, r.numerator, r.denom_u, r.denom_v, r.ratio] for r in rows
        )
    ladder = [{k: getattr(r, k) for k in ("L", "points_u", "points_v", "offsets", "pairs")} for r in rows]
    _emit({"family": args.family, "rows": len(rows), "out": args.out, "ladder": ladder})
    return 0


def _read_ratios(path) -> dict[tuple[str, cx.ExponentTuple], list[tuple[float, float]]]:
    """(L, ratio) pairs of a ``counterexample`` CSV, grouped by family and exponents."""
    ladders: dict[tuple[str, cx.ExponentTuple], list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = sorted({"family", "L", *_EXPONENT_COLUMNS, "ratio"} - set(reader.fieldnames or ()))
        if missing:
            raise ValueError(f"ratio CSV lacks column(s) {', '.join(missing)}")
        for record in reader:
            cx._family(record["family"])
            key = (record["family"], cx._exponent_tuple(float(record[name]) for name in _EXPONENT_COLUMNS))
            ladders.setdefault(key, []).append((float(record["L"]), float(record["ratio"])))
    if not ladders:
        raise ValueError("ratio CSV has no rows")
    return ladders


def _cmd_fit(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError("--tolerance must be finite and nonnegative")
    results = []
    for (family, e), pairs in _read_ratios(args.infile).items():
        L, ratio = np.array(sorted(pairs)).T
        slope, r_squared = cx.loglog_fit(L, ratio)
        delta = cx.predicted_delta(family, e)
        results.append(
            {
                "family": family,
                "exponents": e._asdict(),
                "slope": slope,
                "r_squared": r_squared,
                "predicted_slope": -delta,
                "pass": abs(slope + delta) <= args.tolerance,
            }
        )
    _emit(results)
    return 0 if all(r["pass"] for r in results) else 1


def _require_finite(args, *names) -> None:
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")


def _cmd_region(args) -> int:
    _require_finite(args, "s", "r")
    payload = {
        "s": args.s,
        "r": args.r,
        "wellposed": regions.in_wellposed_region(args.s, args.r),
        "pecher": regions.in_pecher_region(args.s, args.r),
        "machihara": regions.in_machihara_region(args.s, args.r),
    }
    if args.solve:
        choice = regions.choose_parameters(args.s, args.r)
        if isinstance(choice, regions.ParameterChoice):
            report = regions.check_constraints(args.s, args.r, choice)
            payload["parameters"] = {
                "sigma": choice.sigma,
                "rho": choice.rho,
                "eps": choice.eps,
            }
            payload["constraints"] = report
        else:
            payload["infeasible"] = choice.reason
    _emit(payload)
    return 0


def _cmd_region_grid(args) -> int:
    _require_finite(args, "s-min", "s-max", "r-max")
    if min(args.ns, args.nr) < 1:
        raise ValueError("--ns and --nr must be at least 1")
    if args.ns * args.nr > _MAX_GRID_POINTS:
        raise ValueError(f"--ns * --nr must be at most {_MAX_GRID_POINTS} (a cap on run time)")
    s_values = np.linspace(args.s_min, args.s_max, args.ns)
    r_values = args.r_max * (np.arange(args.nr) + 1) / args.nr  # half-open (0, r_max]
    violations = 0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "r", "wellposed", "pecher", "machihara"])
        for s in s_values:
            for r in r_values:
                wp = regions.in_wellposed_region(s, r)
                pe = regions.in_pecher_region(s, r)
                ma = regions.in_machihara_region(s, r)
                if (pe or ma) and not wp:
                    violations += 1
                writer.writerow([s, r, int(wp), int(pe), int(ma)])
    _emit({"out": args.out, "points": args.ns * args.nr, "containment_violations": violations})
    return 0 if violations == 0 else 1


def _cmd_solve(args) -> int:
    grid = solver.GridSpec1D(n_x=args.n, x_extent=args.xbox)
    dt = grid.dx / 2 if args.dt == "auto" else float(args.dt)
    config = solver.SolverConfig(
        grid=grid,
        dt=dt,
        t_end=args.T,
        diagnostics_every=args.every,
        diag_s=args.s,
        diag_r=args.r,
    )
    if args.data == "smooth":
        psi0, phi0, phi1 = solver.smooth_data(grid)
    else:
        psi0 = solver.rough_data(args.s, args.seed, grid)
        phi0 = np.zeros(grid.n_x)
        phi1 = np.zeros(grid.n_x)
    state = solver.init_state(psi0, phi0, phi1, args.M, args.m, grid)
    # Open the outputs before the run, so that an unwritable path fails at once.
    with contextlib.ExitStack() as outputs:
        out = outputs.enter_context(open(args.out, "w", newline=""))
        state_out = outputs.enter_context(open(args.state_out, "wb")) if args.state_out else None
        solver._pocketfft()  # import SciPy's binding here, so that run_s times the run alone
        start = time.perf_counter()
        try:
            series, final = solver.run(config, state, return_final=True)
        except solver.BlowUpError as err:
            _emit({"error": str(err), "step": err.step})
            return 1
        run_s = time.perf_counter() - start
        writer = csv.writer(out)
        columns = vars(series)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
        if state_out:
            solver.save_state(state_out, final)
    drift = float(np.abs(series.charge - series.charge[0]).max())
    rel = drift / series.charge[0] if series.charge[0] > 0 else 0.0
    steps = int(round(final.t / dt))
    _emit({"out": args.out, "n_x": grid.n_x, "dt": dt, "steps": steps, "rows": series.t.size, "charge_drift_rel": rel,
           "run_s": run_s, "step_us": run_s / steps * 1e6 if steps else None})
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValueError, reported by ``main``; sub-parsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dkg1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="built-in self tests")
    p_verify.add_argument("target", choices=["spinor", "lemma3"])
    p_verify.add_argument("--samples", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_cx = sub.add_parser("counterexample", help="ratio ladder for one strip family")
    p_cx.add_argument("--family", choices=sorted(cx.FAMILIES), required=True)
    p_cx.add_argument("--L", default=",".join(f"{L:g}" for L in cx.DEFAULT_L_LADDER))
    p_cx.add_argument("--exps", default=",".join(f"{e:g}" for e in cx.ExponentTuple()))
    p_cx.add_argument("--out", required=True)
    p_cx.set_defaults(func=_cmd_counterexample)

    p_fit = sub.add_parser("fit", help="log-log slope fit of a ratio CSV")
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--tolerance", type=float, default=SLOPE_TOL)
    p_fit.set_defaults(func=_cmd_fit)

    p_region = sub.add_parser("region", help="region membership at one (s, r)")
    p_region.add_argument("--s", type=float, required=True)
    p_region.add_argument("--r", type=float, required=True)
    p_region.add_argument("--solve", action="store_true")
    p_region.set_defaults(func=_cmd_region)

    p_grid = sub.add_parser("region-grid", help="membership sweep over the (s, r) plane")
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--ns", type=int, default=200)
    p_grid.add_argument("--nr", type=int, default=200)
    p_grid.add_argument("--s-min", type=float, default=-0.3)
    p_grid.add_argument("--s-max", type=float, default=0.5)
    p_grid.add_argument("--r-max", type=float, default=1.5)
    p_grid.set_defaults(func=_cmd_region_grid)

    p_solve = sub.add_parser("solve", help="evolve the coupled system")
    p_solve.add_argument("--n", type=int, default=1024)
    p_solve.add_argument("--xbox", type=float, default=64.0)
    p_solve.add_argument("--dt", default="auto")
    p_solve.add_argument("--T", type=float, default=1.0)
    p_solve.add_argument("--M", type=float, default=1.0)
    p_solve.add_argument("--m", type=float, default=1.0)
    p_solve.add_argument("--data", choices=["smooth", "rough"], default="smooth")
    p_solve.add_argument("--s", type=float, default=0.0)
    p_solve.add_argument("--r", type=float, default=0.0)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--every", type=int, default=16)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--state-out", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, csv.Error, MemoryError) as err:
        _emit({"error": str(err) or type(err).__name__})
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
