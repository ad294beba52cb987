"""Command-line front end.

Exit codes: 0 property holds / success, 1 property fails, 2 input error,
3 non-convergence.  All output on stdout is JSON (sorted keys), CSV files
are written where requested; identical invocations produce byte-identical
output.  The environment variable COPULA_GRID_CAP overrides the lcm
refinement cap of the product.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import metrics
from .algebra import (
    DEFAULT_RESOLUTION,
    DecompositionError,
    NotStochasticallyIncreasingError,
    extract_pi_ordinal_structure,
    is_idempotent,
    iterate_to_limit,
    markov_product,
    quadrature_markov_product,
)
from .core import CopulaError, DomainError, GridCopula, _check_count
from .monotonicity import check_complete_dependence, check_quadrant_dependence, check_si
from .serialize import _write_csv, _write_json, load_copula, save_copula


def _emit(obj) -> None:
    _write_json(obj, sys.stdout)


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


#: each --property: its verdict call and the verdict field that decides "holds"
_PROPERTIES = {
    "si1": (lambda c, a: check_si(c, 1, a.tol), "si"),
    "si2": (lambda c, a: check_si(c, 2, a.tol), "si"),
    "sd1": (lambda c, a: check_si(c, 1, a.tol), "sd"),
    "sd2": (lambda c, a: check_si(c, 2, a.tol), "sd"),
    "idempotent": (lambda c, a: is_idempotent(c, a.tol, a.resolution), "idempotent"),
    "pqd": (lambda c, a: check_quadrant_dependence(c, a.tol), "pqd"),
    "nqd": (lambda c, a: check_quadrant_dependence(c, a.tol), "nqd"),
    "complete-dependence": (
        lambda c, a: check_complete_dependence(c, a.tol, a.resolution),
        "completely_dependent",
    ),
}


def cmd_check(args) -> int:
    c = load_copula(args.spec)
    verdict_of, field = _PROPERTIES[args.property]
    verdict = verdict_of(c, args)
    holds = bool(getattr(verdict, field))
    _emit({"property": args.property, "holds": holds, **verdict.to_json()})
    return 0 if holds else 1


def cmd_product(args) -> int:
    a = load_copula(args.spec_a)
    b = load_copula(args.spec_b)
    result = markov_product(a, b, resolution=args.resolution)
    save_copula(result, args.out)
    summary = {"out": args.out}
    if isinstance(result, GridCopula):
        summary["resolution"] = result.n
    if args.oracle and isinstance(result, GridCopula):  # a short-circuit has no grid to check
        # smallest multiple of the resolution accepted by the oracle
        panels = args.panels or result.n * max(1, -(-8 // result.n))
        quad = quadrature_markov_product(a, b, panels)
        axis = np.arange(result.n + 1) / result.n
        lattice = quad(axis[:, None], axis)
        summary["oracle_panels"] = panels
        summary["oracle_max_discrepancy"] = float(np.max(np.abs(lattice - result.corner_cdf())))
    _emit(summary)
    return 0


def cmd_iterate(args) -> int:
    c = load_copula(args.spec)
    try:
        report = iterate_to_limit(
            c,
            tol=args.tol,
            max_iter=args.max_iter,
            resolution=args.resolution,
            interval_tol=args.interval_tol,
        )
    except NotStochasticallyIncreasingError as exc:
        _emit({"error": "not stochastically increasing", **exc.verdict.to_json()})
        return 1
    summary = report.to_json()
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "report.json"), "w", encoding="utf-8") as fh:
            _write_json(summary, fh)
        path = os.path.join(args.out_dir, "steps.csv")
        _write_csv(path, np.array(report.steps), "%d,%.17g,%.17g", "step,d_inf_gap,d1_gap")
    _emit(summary)
    return 0 if report.converged else 3


def cmd_derivative_trace(args) -> int:
    c = load_copula(args.spec)
    m = _check_count(args.points, "points")
    x = (np.arange(m) + 0.5) / m
    u, v = (x, args.at) if args.component == 1 else (args.at, x)
    values = c.partial_derivative(args.component, u, v)
    header = "u,dC" if args.component == 1 else "v,dC"
    _write_csv(args.out, np.column_stack([x, values]), header=header)
    _emit({"out": args.out, "points": m, "component": args.component, "at": args.at})
    return 0


def cmd_decompose(args) -> int:
    c = load_copula(args.spec)
    try:
        decomposition = extract_pi_ordinal_structure(c, tol=args.tol)
    except (DomainError, DecompositionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(decomposition.to_json())
    return 0


#: each --metric: its function and the number of specs it reads
_METRICS = {
    "dinf": (metrics.d_inf, 2),
    "d1": (metrics.d1_metric, 2),
    "sobolev-diag": (metrics.sobolev_diagonal, 1),
}


def cmd_metric(args) -> int:
    metric, arity = _METRICS[args.metric]
    a = load_copula(args.spec_a)
    if arity == 1:
        value = metric(a)
        b_name = None
    else:
        if not args.spec_b:
            raise DomainError(f"metric {args.metric} needs two specs")
        value = metric(a, load_copula(args.spec_b))
        b_name = args.spec_b
    _emit({"metric": args.metric, "value": value, "copula_a": args.spec_a, "copula_b": b_name})
    return 0


def _add_resolution(p) -> None:
    p.add_argument(
        "--resolution",
        type=int,
        default=DEFAULT_RESOLUTION,
        help=f"grid resolution for closed-form inputs (default {DEFAULT_RESOLUTION})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copula-markov",
        description="Algebra of bivariate copulas under the Markov product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a property of a copula spec")
    p.add_argument("spec", help="spec file (.json) or checkerboard matrix (.csv)")
    p.add_argument("--property", required=True, choices=list(_PROPERTIES))
    p.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
    _add_resolution(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("product", help="Markov product of two specs")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--out", "-o", required=True, help="output spec (.json or .csv)")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the matrix path against midpoint quadrature",
    )
    p.add_argument(
        "--panels",
        type=int,
        default=0,
        help="quadrature panel count (default: the result resolution)",
    )
    _add_resolution(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("iterate", help="iterate a copula to its idempotent limit")
    p.add_argument("spec")
    p.add_argument(
        "--tol", type=float, default=1e-8, help="stopping sup gap (default 1e-8)"
    )
    p.add_argument("--max-iter", type=int, default=200, help="default 200")
    p.add_argument(
        "--interval-tol",
        type=float,
        default=1e-6,
        help="diagonal fixed-point tolerance (default 1e-6)",
    )
    _add_resolution(p)
    p.add_argument("--out-dir", help="write report.json and steps.csv here")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser(
        "derivative-trace", help="tabulate a partial derivative along one axis"
    )
    p.add_argument("spec")
    p.add_argument("--component", type=int, choices=[1, 2], default=1)
    p.add_argument(
        "--at",
        type=float,
        required=True,
        help="fixed value of the other coordinate",
    )
    p.add_argument("--points", type=int, default=300, help="trace rows (default 300)")
    p.add_argument("--out", "-o", required=True, help="output CSV")
    p.set_defaults(func=cmd_derivative_trace)

    p = sub.add_parser(
        "decompose", help="interval family of an idempotent copula's diagonal"
    )
    p.add_argument("spec")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="diagonal fixed-point tolerance (default 1e-6)",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("metric", help="distance or functional between specs")
    p.add_argument("spec_a")
    p.add_argument("spec_b", nargs="?", default=None)
    p.add_argument("--metric", required=True, choices=list(_METRICS))
    p.set_defaults(func=cmd_metric)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CopulaError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
