"""Command-line surface.

Commands:
  analyze-system FILE     rigidity/flexibility verdict for a quadratic system
  analyze-framework FILE  verdict for a bar-joint framework
  reduce FILE -o OUT      rewrite a polynomial system to degree <= 2
  extend FILE --degree Q  grow a canonical series solution to degree Q

Exit codes: 0 = a report was produced (any verdict), 2 = unreadable or
invalid input, or an output file that cannot be written, 3 = the base
point is not an exact solution.
"""

from __future__ import annotations

import argparse
import sys as _sys
from typing import Optional

from . import certify, fileio, quadsys, rigidity, series
from .certify import AnalyzeConfig
from .fileio import ParseError
from .quadsys import BasePointError
from .ratlinalg import _without_digit_limit
from .rigidity import FrameworkError, PinningError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BASE_POINT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexcert",
        description="Exact rigidity/flexibility analysis of polynomial systems "
        "and bar-joint frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--q-max", type=int, default=AnalyzeConfig.q_max,
                       help="search cap for the span-closure certificate (default %(default)s)")
        p.add_argument("--max-depth", type=int, default=AnalyzeConfig.max_depth,
                       help="depth cap for the T-standard recurrence (default %(default)s)")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("analyze-system", help="analyze a quadratic system file")
    p.add_argument("file")
    add_caps(p)

    p = sub.add_parser("analyze-framework", help="analyze a framework file")
    p.add_argument("file")
    add_caps(p)
    p.add_argument("--auto-pin", action="store_true",
                   help="pin a normal-position frame before analysis (the file sets no pins)")

    p = sub.add_parser("reduce", help="reduce a polynomial system to degree <= 2")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True, help="output system file")

    p = sub.add_parser("extend", help="extend a canonical series solution")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True, help="target series degree")
    p.add_argument("--json", action="store_true", help="emit the series as JSON")
    return parser


def _print_report(report, as_json: bool) -> None:
    if as_json:
        _sys.stdout.write(fileio.dumps(fileio.report_to_dict(report)))
        return
    print(f"verdict: {report.verdict}")
    if report.certificate is not None:
        print(f"certificate: {report.certificate.summary()}")
    print(f"depth reached: {report.depth_reached}")
    for note in report.notes:
        print(f"  - {note}")
    flexion = getattr(report, "flexion", None)
    if flexion is not None and flexion.witness_pair is not None:
        a, b = flexion.witness_pair
        print(
            f"witness: distance ({a}, {b}) changes at order {flexion.witness_order} "
            f"(coefficient {flexion.witness_value})"
        )


def _run_analyze_system(args) -> int:
    sys_, base = fileio.load_system(args.file)
    if base is None:
        raise ParseError(args.file, "missing 'base_point'")
    config = AnalyzeConfig(q_max=args.q_max, max_depth=args.max_depth)
    report = certify.analyze_system(sys_, base, config)
    _print_report(report, args.json)
    return EXIT_OK


def _run_analyze_framework(args) -> int:
    fw, auto_flag = fileio.load_framework(args.file)
    config = AnalyzeConfig(q_max=args.q_max, max_depth=args.max_depth)
    try:
        report = rigidity.analyze_framework(fw, config, use_auto_pin=auto_flag or args.auto_pin)
    except PinningError as exc:  # a pin request the framework cannot meet
        raise ParseError(args.file, str(exc)) from None
    _print_report(report, args.json)
    return EXIT_OK


def _run_reduce(args) -> int:
    poly, original_base = fileio.load_poly(args.file)
    reduced, rmap = quadsys.reduce_degree(poly)
    base = None
    if original_base is not None:
        base = quadsys.lift_base_point(rmap, original_base)
    out = fileio.system_to_dict(reduced, base)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(fileio.dumps(out))
    except OSError as exc:
        print(f"error: {args.output}: cannot write: {exc.strerror or exc}", file=_sys.stderr)
        return EXIT_PARSE
    print(f"reduced system written to {args.output} "
          f"({reduced.n} equations, {reduced.m} variables, "
          f"{len(rmap.auxiliary_definitions)} auxiliary)")
    return EXIT_OK


def _run_extend(args) -> int:
    data = fileio.load_json(args.file)
    sys_, base = fileio.system_from_dict(data, args.file)
    if base is None:
        raise ParseError(args.file, "missing 'base_point'")
    if args.degree < 1:
        raise ParseError(args.file, "--degree must be at least 1")
    ops = quadsys.linearize(sys_, base)
    if isinstance(data, dict) and "series" in data:
        s = fileio.series_from_dict(data["series"], args.file)
        if s.width != sys_.m:
            raise ParseError(args.file, f"series coefficient length {s.width} differs "
                                        f"from the variable count {sys_.m}")
        if s.coefficient(0) != ops.base_point:
            raise ParseError(args.file, "series constant coefficient differs from base_point")
    elif ops.kernel:
        s = series.SeriesCoefficients((ops.base_point, ops.kernel[0]))
    else:
        s = series.SeriesCoefficients((ops.base_point,))
    s = series.extend_to(ops, s, args.degree)
    stalled = s.degree + 1 if s.degree < args.degree else None
    order = series.residual_order(ops, s)
    order_repr = "infinite" if order == series.INFINITE else order
    if args.json:
        out = fileio.series_to_dict(s)
        out["residual_order"] = order_repr
        if stalled is not None:
            out["unsolvable_at"] = stalled
        _sys.stdout.write(fileio.dumps(out))
    else:
        print(f"series degree: {s.degree} (residual order {order_repr})")
        if stalled is not None:
            print(f"extension unsolvable at order {stalled}")
        for p, coeff in enumerate(s.coeffs):
            print(f"  t^{p}: (" + ", ".join(str(x) for x in coeff) + ")")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze-system": _run_analyze_system,
        "analyze-framework": _run_analyze_framework,
        "reduce": _run_reduce,
        "extend": _run_extend,
    }
    try:
        return _without_digit_limit(handlers[args.command], args)
    except BasePointError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BASE_POINT
    except (ParseError, FrameworkError, quadsys.DimensionError,
            certify.PreconditionError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
