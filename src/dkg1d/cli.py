"""Command-line front end.

Subcommands:

    verify spinor                  self-test of the projection identities
    verify lemma3                  Monte-Carlo sweep of the 3/2 inequality
    norms                          weighted norm of a serialized grid function
    counterexample                 ratio ladder for one strip family -> CSV
    fit                            log-log slope fit of a ratio CSV -> JSON
    region                         region membership / parameter choice at (s, r)
    region-grid                    membership sweep over the (s, r) plane -> CSV
    solve                          evolve the coupled system, diagnostics -> CSV

All informational output is JSON on stdout; exit code 0 means every check
requested by the subcommand passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import counterexamples as cx
from . import norms, regions, solver, spinor, weights

IDENTITY_TOL = 1e-14
NULL_FORM_TOL = 1e-12
SLOPE_TOL = 0.15


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
        _emit({"target": "spinor", "residuals": residuals, "pass": ok})
        return 0 if ok else 1
    # lemma3
    stats = weights.sample_margins(args.samples, seed=args.seed)
    ok = (
        stats["min_relative_margin"] >= -1e-9
        and stats["min_relative_sum_bound_margin"] >= -1e-9
        and stats["max_relative_residual"] <= 1e-12
    )
    _emit({"target": "lemma3", **stats, "pass": ok})
    return 0 if ok else 1


def _cmd_norms(args) -> int:
    gf = norms.load_gridfunction(args.input)
    if gf.side == "physical":
        gf = norms.transform(gf)
    value = norms.weighted_norm(gf, norms.NormIndex(args.a, args.alpha, args.flavor))
    _emit(
        {
            "input": args.input,
            "a": args.a,
            "alpha": args.alpha,
            "flavor": args.flavor,
            "norm": value,
        }
    )
    return 0


def _parse_exponents(text: str) -> cx.ExponentTuple:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected 6 comma-separated exponents")
    return cx.ExponentTuple(*parts)


def _cmd_counterexample(args) -> int:
    L_values = [float(v) for v in args.L.split(",")]
    rows = cx.ratio_ladder(args.family, L_values, [args.exps])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "L", "numerator", "denom_u", "denom_v", "ratio"])
        for row in rows:
            writer.writerow(
                [row.family, row.L, row.numerator, row.denom_u, row.denom_v, row.ratio]
            )
    _emit({"family": args.family, "rows": len(rows), "out": args.out})
    return 0


def _cmd_fit(args) -> int:
    by_family: dict[str, list[tuple[float, float]]] = {}
    with open(args.infile, newline="") as fh:
        for record in csv.DictReader(fh):
            by_family.setdefault(record["family"], []).append(
                (float(record["L"]), float(record["ratio"]))
            )
    results = []
    for family, pairs in by_family.items():
        pairs.sort()
        L = np.array([p[0] for p in pairs])
        ratio = np.array([p[1] for p in pairs])
        slope, r_squared = cx.loglog_fit(L, ratio)
        delta = cx.predicted_delta(family, args.exps)
        results.append(
            {
                "family": family,
                "slope": slope,
                "r_squared": r_squared,
                "predicted_slope": -delta,
                "pass": abs(slope + delta) <= args.tolerance,
            }
        )
    _emit(results)
    return 0 if all(r["pass"] for r in results) else 1


def _cmd_region(args) -> int:
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
    try:
        series, final = solver.run(config, state, return_final=True)
    except solver.BlowUpError as err:
        _emit({"error": str(err), "step": err.step})
        return 1
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(solver.DiagnosticsSeries.COLUMNS)
        writer.writerows(series.rows())
    if args.state_out:
        solver.save_state(args.state_out, final)
    drift = float(np.abs(series.charge - series.charge[0]).max())
    rel = drift / series.charge[0] if series.charge[0] > 0 else 0.0
    _emit({"out": args.out, "steps": int(round(args.T / dt)), "charge_drift_rel": rel})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dkg1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="built-in self tests")
    p_verify.add_argument("target", choices=["spinor", "lemma3"])
    p_verify.add_argument("--samples", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_norms = sub.add_parser("norms", help="weighted norm of a stored grid function")
    p_norms.add_argument("--input", required=True)
    p_norms.add_argument("--a", type=float, required=True)
    p_norms.add_argument("--alpha", type=float, required=True)
    p_norms.add_argument("--flavor", choices=["X_plus", "X_minus", "H"], required=True)
    p_norms.set_defaults(func=_cmd_norms)

    p_cx = sub.add_parser("counterexample", help="ratio ladder for one strip family")
    p_cx.add_argument("--family", choices=sorted(cx.FAMILIES), required=True)
    p_cx.add_argument("--L", default="64,128,256,512")
    p_cx.add_argument("--exps", type=_parse_exponents, default=cx.ExponentTuple())
    p_cx.add_argument("--out", required=True)
    p_cx.set_defaults(func=_cmd_counterexample)

    p_fit = sub.add_parser("fit", help="log-log slope fit of a ratio CSV")
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--exps", type=_parse_exponents, default=cx.ExponentTuple())
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
