"""Command-line interface.

Subcommands: bound, rational, sweep, density-grid, cubature,
reproduce-table1.  Exit codes: 0 success, 2 input error, 3 numerical or
certification failure, 4 reference-diff failure (reproduce-table1 only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .bounds import DPS_MIN, POSITIVITY_POINTS, CertificationError, ConditioningError, \
    check_grid, density_grid, extract_density, rational_upper_bound, upper_bound
from .cubature import save_rule_csv, sphere_product_rule
from .harness import TABLE1_REFERENCE, TABLE1_TOLERANCE, fit_rate, reproduce_table1, \
    save_density_csv, save_sweep_csv, sweep
from .polynomials import ParseError, parse_poly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4


def _read_poly(text, n):
    """Accept a polynomial literal or a path to a file holding one."""
    if os.path.isfile(text):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    return parse_poly(text, n)


def _output(path):
    """Context manager for the file at path, or for stdout (left open) if None."""
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


def _write_json(res, path):
    with _output(path) as fh:
        fh.write(json.dumps(res.to_json_dict(), indent=2) + "\n")


def build_parser():
    # each argument that several commands take is defined once, in a parent parser
    poly, n, r, dps, json_out, csv_out = (argparse.ArgumentParser(add_help=False)
                                          for _ in range(6))
    poly.add_argument("--poly", required=True,
                      help="polynomial in x1..xn, as a literal or a file holding one")
    n.add_argument("--n", type=int, required=True,
                   help="number of variables: the sphere is S^{n-1} in R^n")
    r.add_argument("--r", type=int, required=True,
                   help="level: the density is the square of a polynomial of degree at most r")
    dps.add_argument("--dps", type=int, default=None,
                     help=f"decimal precision for the high-precision solve (at least {DPS_MIN})")
    json_out.add_argument("--json", default=None, help="output file (default stdout)")
    csv_out.add_argument("--csv", default=None, help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="spherebound",
        description="Sum-of-squares density upper bounds for polynomial "
                    "minimization on the unit sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bound", parents=[poly, n, r, dps, json_out],
                   help="single upper bound as JSON").set_defaults(run=_cmd_bound)

    # --p and --q first, so that usage and missing-argument errors list them first
    pq = argparse.ArgumentParser(add_help=False)
    pq.add_argument("--p", required=True, help="numerator literal or file")
    pq.add_argument("--q", required=True, help="denominator literal or file")
    sub.add_parser("rational", parents=[pq, n, r, dps, json_out],
                   help="rational-objective upper bound as JSON",
                   description="Level-r upper bound on min p/q over the sphere. The positivity "
                               "of q is checked, not certified: q is sampled at "
                               f"{POSITIVITY_POINTS:,} fixed random points and A_q must be "
                               "positive definite."
                   ).set_defaults(run=_cmd_rational)

    s = sub.add_parser("sweep", parents=[poly, n, dps, csv_out],
                       help="bounds over a level range as CSV")
    s.add_argument("--r-min", type=int, required=True, help="lowest level")
    s.add_argument("--r-max", type=int, required=True, help="highest level")
    s.add_argument("--fmin", type=float, default=None,
                   help="known minimum; prints the log-log slope of (bound - fmin) against r "
                        "to stderr. At finite r a C/(r+s)^2 gap has slope -2r/(r+s), not -2 "
                        "(f = x_n reads -1.78/-1.72/-1.66 for n = 3/4/5 over r = 10..16)")
    s.add_argument("--no-certificates", action="store_true",
                   help="skip cubature lower certificates")
    s.set_defaults(run=_cmd_sweep)

    g = sub.add_parser("density-grid", parents=[poly, n, r, dps, csv_out],
                       help="optimal density on a grid as CSV")
    g.add_argument("--resolution", type=int, default=100,
                   help="steps per angle, for (resolution + 1)^2 points (default 100)")
    g.set_defaults(run=_cmd_density_grid)

    c = sub.add_parser("cubature", parents=[n, csv_out], help="product cubature rule as CSV")
    c.add_argument("--d", type=int, required=True, help="rule exact to degree 2d - 1")
    c.set_defaults(run=_cmd_cubature)

    t = sub.add_parser("reproduce-table1",
                       help="recompute the published Motzkin bounds and diff")
    t.add_argument("--csv", default=None, help="also write the sweep CSV")
    t.set_defaults(run=_cmd_reproduce_table1)
    return parser


def _cmd_bound(args):
    f = _read_poly(args.poly, args.n)
    res = upper_bound(f, args.n, args.r, dps=args.dps)
    _write_json(res, args.json)
    return EXIT_OK


def _cmd_rational(args):
    p = _read_poly(args.p, args.n)
    q = _read_poly(args.q, args.n)
    res = rational_upper_bound(p, q, args.n, args.r, dps=args.dps)
    _write_json(res, args.json)
    return EXIT_OK


def _cmd_sweep(args):
    f = _read_poly(args.poly, args.n)
    records = sweep(f, args.n, args.r_min, args.r_max,
                    certificates=not args.no_certificates, dps=args.dps)
    with _output(args.csv) as fh:
        save_sweep_csv(records, fh)
    if args.fmin is not None:
        fit = fit_rate(records, args.fmin)
        print(f"rate fit over r={fit.r_range[0]}..{fit.r_range[1]}: "
              f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
              f"residual={fit.residual:.2e}", file=sys.stderr)
    return EXIT_OK


def _cmd_density_grid(args):
    f = _read_poly(args.poly, args.n)
    check_grid(args.resolution, args.n)
    res = upper_bound(f, args.n, args.r, dps=args.dps)
    grid = density_grid(extract_density(res), args.n, args.resolution)
    with _output(args.csv) as fh:
        save_density_csv(grid, fh)
    return EXIT_OK


def _cmd_cubature(args):
    rule = sphere_product_rule(args.n, args.d)
    with _output(args.csv) as fh:
        save_rule_csv(rule, fh)
    return EXIT_OK


def _cmd_reproduce_table1(args):
    records, diffs, ok = reproduce_table1()
    for rec, ref, diff in zip(records, TABLE1_REFERENCE, diffs):
        status = "ok" if abs(diff) <= TABLE1_TOLERANCE else "MISMATCH"
        print(f"r={rec.r}  computed={rec.bound:.6f}  reference={ref:.4f}  "
              f"diff={diff:+.2e}  {status}")
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            save_sweep_csv(records, fh)
    if not ok:
        print(f"reference mismatch beyond {TABLE1_TOLERANCE:g}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"all {len(records)} levels within {TABLE1_TOLERANCE:g}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConditioningError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
