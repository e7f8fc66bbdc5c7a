"""Command-line frontend: number tables, polynomial listings, identity
verification, and seeded simulation, in machine-readable csv or json.

Exit codes: 0 success, 1 identity failure, 2 usage, 3 table cap exceeded,
4 evaluation domain error or a mass table that does not sum to 1, 5 signed mass.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .distributions import DegenerateBinomial, DegeneratePoisson, MomentKind, moment
from .errors import (
    DomainError,
    EvaluationError,
    NormalizationError,
    SignedMassError,
    TailError,
)
from .exact_core import (
    LAH_TRIANGLE,
    STIRLING1_TRIANGLE,
    STIRLING2_TRIANGLE,
    as_rational,
    degenerate_falling_factorial,
    format_rational,
)
from .montecarlo import SUITES, SamplerStream, VerificationReport, estimate_moment, run_suite, z_score
from .polynomials import (
    bell_polynomial,
    degenerate_bell_polynomial,
    degenerate_lah_bell_polynomial,
    evaluate_degenerate,
    lah_bell_number,
    lah_bell_polynomial,
)

TABLE_CAP_DEFAULT = 200

_TRIANGLES = {
    "lah": LAH_TRIANGLE,
    "s1": STIRLING1_TRIANGLE,
    "s2": STIRLING2_TRIANGLE,
}


def _rational(text: str) -> Fraction:
    try:
        return as_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _refuse_digits(log10_bound: float, where: str) -> None:
    """Raise DomainError when an entry the command would print is at least
    10**log10_bound and so has more digits than str() may print; called
    before any row is built."""
    limit = sys.get_int_max_str_digits()
    if limit and log10_bound >= limit + 1:
        raise DomainError(
            f"result too large to print: {where} holds an entry of at least "
            f"{int(log10_bound)} digits, beyond the {limit}-digit limit"
        )


def _stirling2_log10(n: int) -> float:
    """log10 max_k k**(n-k) <= log10 max_k S2(n,k): one element per block, the rest anywhere."""
    return max(((n - k) * math.log10(k) for k in range(1, n + 1)), default=0.0)


def cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        return _fail("--n-max must be nonnegative", 2)
    if args.cap < 0:
        return _fail("--cap must be nonnegative", 2)
    if args.n_max > args.cap:
        return _fail(f"--n-max {args.n_max} exceeds the cap {args.cap}", 3)
    # L(n,1) = n!, |s1(n,1)| = (n-1)! and the n-th Lah-Bell number exceeds n!, so
    # the other tables hold an entry of at least (n_max-1)!
    if args.kind == "s2":
        _refuse_digits(_stirling2_log10(args.n_max), f"row {args.n_max}")
    elif args.n_max >= 2:
        _refuse_digits(math.lgamma(args.n_max) / math.log(10), f"row {args.n_max}")
    if args.kind == "lahbell-numbers":
        data = [lah_bell_number(n) for n in range(args.n_max + 1)]
        rows = [data]
    else:
        rows = data = [list(_TRIANGLES[args.kind].row(n)) for n in range(args.n_max + 1)]
    # build every line before emitting any, so an oversized entry leaves stdout empty
    try:
        lines = [json.dumps(data)] if args.format == "json" else [",".join(map(str, row)) for row in rows]
    except ValueError as exc:
        raise DomainError(f"result too large to print: {exc}") from exc
    _emit("\n".join(lines))
    return 0


def cmd_poly(args: argparse.Namespace) -> int:
    degenerate = args.family in ("dbell", "dlahbell")
    if degenerate and args.lam is None:
        return _fail(f"--lambda is required for family {args.family}", 2)
    if args.n < 0:
        return _fail("--n must be nonnegative", 2)
    # refuse a coefficient too large to print before building the row: the
    # Lah families hold L(n,1) (1)_{1,lam} = n!, the degenerate ones (1)_{n,lam}
    # at degree n, as S2(n,n) = L(n,n) = 1
    if args.family in ("lahbell", "dlahbell"):
        _refuse_digits(math.lgamma(args.n + 1) / math.log(10), f"polynomial {args.n}")
    elif args.family == "bell":
        _refuse_digits(_stirling2_log10(args.n), f"polynomial {args.n}")
    if degenerate:
        format_rational(degenerate_falling_factorial(1, args.n, args.lam))
    # the builders are looked up by name at each call, so they can be wrapped
    build = {"bell": bell_polynomial, "lahbell": lah_bell_polynomial,
             "dbell": degenerate_bell_polynomial, "dlahbell": degenerate_lah_bell_polynomial}[args.family]
    poly = build(args.n, args.lam) if degenerate else build(args.n)

    value = None
    if args.eval_at is not None:
        value = evaluate_degenerate(poly, args.eval_at, args.lam) if degenerate else poly.evaluate(args.eval_at)

    coefficients = [format_rational(c) for c in poly.coefficients]
    if args.format == "json":
        out = {"family": args.family, "n": args.n, "variable": poly.variable,
               "coefficients": coefficients}
        if degenerate:
            out["lambda"] = format_rational(args.lam)
        if args.eval_at is not None:
            out["eval_at"] = format_rational(args.eval_at)
            out["value"] = format_rational(value)
        _emit(json.dumps(out))
    else:
        _emit(",".join([poly.variable] + coefficients))
        if args.eval_at is not None:
            _emit(f"value,{format_rational(value)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        return _fail("--n-max must be nonnegative", 2)
    if args.trials < 2:
        return _fail("--trials must be at least 2", 2)
    if not args.z_threshold >= 0:
        return _fail("--z-threshold must be a nonnegative number", 2)
    reports = run_suite(
        args.suite,
        n_max=args.n_max,
        seed=args.seed,
        trials=args.trials,
        z_threshold=args.z_threshold,
    )
    if args.format == "csv":
        _emit(VerificationReport.CSV_HEADER)
    for report in reports:
        _emit(report.to_csv() if args.format == "csv" else report.to_json())
    return 1 if any(r.status == "FAIL" for r in reports) else 0


def _build_distribution(args: argparse.Namespace):
    if args.dist in ("poisson", "dpoisson"):
        if args.alpha is None:
            raise DomainError("--alpha is required for Poisson-type distributions")
        lam = Fraction(0) if args.dist == "poisson" else (args.lam if args.lam is not None else Fraction(0))
        return DegeneratePoisson(args.alpha, lam)
    if args.p is None or args.n is None:
        raise DomainError("--n and --p are required for binomial-type distributions")
    lam = Fraction(0) if args.dist == "binomial" else (args.lam if args.lam is not None else Fraction(0))
    return DegenerateBinomial(args.n, args.p, lam)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        dist = _build_distribution(args)
    except DomainError as exc:
        return _fail(str(exc), 2)
    kind = MomentKind(args.moment)
    estimate = estimate_moment(dist, kind, args.order, args.samples, SamplerStream(args.seed, 0))
    target = moment(dist, kind, args.order)
    z = z_score(estimate.estimate, estimate.standard_error, target)

    record = {
        "distribution": args.dist,
        "params": {
            "lambda" if field.name == "lam" else field.name: format_rational(getattr(dist, field.name))
            for field in dataclasses.fields(dist)
        },
        "moment": kind.value,
        "order": args.order,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": estimate.estimate,
        "standard_error": estimate.standard_error,
        "target": format_rational(target),
        # strict JSON has no infinity: "inf" / "-inf", the csv text
        "z": z if math.isfinite(z) else repr(z),
    }
    if args.format == "json":
        _emit(json.dumps(record, allow_nan=False))
    else:
        # CSV carries every field but the params map; str(float) == repr(float)
        del record["params"]
        _emit(",".join(record))
        _emit(",".join(map(str, record.values())))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lahbell` parser, built once per process. Parsing leaves it
    unchanged, and argparse looks up sys.stdout / sys.stderr only when it
    prints, so every `main` call may share it."""
    parser = argparse.ArgumentParser(
        prog="lahbell",
        description="Exact Lah-Bell / degenerate Lah-Bell machinery with identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print a number triangle or sequence")
    table.add_argument("kind", choices=["lah", "s1", "s2", "lahbell-numbers"])
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--cap", type=int, default=TABLE_CAP_DEFAULT)
    table.add_argument("--format", choices=["csv", "json"], default="json")
    table.set_defaults(func=cmd_table)

    poly = sub.add_parser("poly", help="print a polynomial family member")
    poly.add_argument("family", choices=["bell", "lahbell", "dbell", "dlahbell"])
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--lambda", dest="lam", type=_rational, default=None)
    poly.add_argument("--eval-at", dest="eval_at", type=_rational, default=None)
    poly.add_argument("--format", choices=["csv", "json"], default="json")
    poly.set_defaults(func=cmd_poly)

    verify = sub.add_parser("verify", help="run a registered identity suite")
    verify.add_argument("suite", choices=["all", *SUITES])
    verify.add_argument("--n-max", type=int, default=12)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100_000)
    verify.add_argument("--z-threshold", type=float, default=5.0)
    verify.add_argument("--format", choices=["csv", "json"], default="json")
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="estimate a moment by seeded sampling")
    simulate.add_argument("--dist", choices=["poisson", "binomial", "dpoisson", "dbinomial"], required=True)
    simulate.add_argument("--alpha", type=_rational, default=None)
    simulate.add_argument("--p", type=_rational, default=None)
    simulate.add_argument("--n", type=int, default=None)
    simulate.add_argument("--lambda", dest="lam", type=_rational, default=None)
    simulate.add_argument("--moment", choices=[k.value for k in MomentKind], default="raw")
    simulate.add_argument("--order", type=int, default=1)
    simulate.add_argument("--samples", type=int, default=100_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--format", choices=["csv", "json"], default="json")
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SignedMassError as exc:
        return _fail(str(exc), 5)
    except (EvaluationError, DomainError, TailError, NormalizationError) as exc:
        return _fail(str(exc), 4)
    except ValueError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
