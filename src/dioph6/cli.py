"""Command-line front end.

Subcommands: generate, verify, triple, family, scan, reduce, lemmas,
catalog.  All output is JSON (JSONL for scans) with rationals rendered as
canonical ``num/den`` strings, never floating point.  Exit codes: 0 for
success / verified, 1 for a failed mathematical check, 2 for invalid input.

The subcommands signal bad input by raising; :func:`main` alone maps an
exception to an exit code and an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import ConsistencyError
from .exactnum import DEFAULT_FACTOR_BOUND, format_rat, parse_rat
from . import family as fam
from . import paramfam
from . import reduction_lab as red
from . import sextuple_engine as engine
from .weierstrass import Point

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _rat(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except ValueError as exc:  # argparse turns this into exit code 2
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write(text: str, out_path: str | None) -> None:
    """Write the command's output to ``--out`` if given, else to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", out_path)


def _closed_form_record(t: Fraction, n: int) -> engine.SextupleRecord:
    point = paramfam.family_point(t)
    # the triple's witnesses are the certificate's pairs (1,2), (1,3), (2,3)
    roots = {(w.i, w.j): w.square_root for w in point.report.pair_results}
    triple = fam.TripleABC(
        point.a, point.b, point.c, roots[1, 2], roots[1, 3], roots[2, 3], t=t, m=2
    )
    return engine.SextupleRecord(
        t=t, m=2, n=n, triple=triple,
        d=point.d, e=point.e, f=point.f,
        report=point.report,
    )


def cmd_generate(args) -> int:
    t = args.t
    if args.route == "closed-form":
        if args.m != 2 or args.n != 1:
            raise ValueError("the closed-form route is only defined for m = 2, n = 1")
        record = _closed_form_record(t, args.n)
    else:
        triple = fam.triple_from_multiple(t, args.m)
        record = engine.extend_to_sextuple(triple, args.n)
    _emit(record.to_json_dict(route=args.route), args.out)
    return EXIT_OK


def _read_elements(args) -> list[Fraction]:
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("element file must hold a JSON array of rational strings")
        return [parse_rat(str(item)) for item in data]
    if not args.elements:
        raise ValueError("no elements given (pass them as arguments or via --file)")
    return [parse_rat(item) for item in args.elements]


def cmd_verify(args) -> int:
    elements = _read_elements(args)
    report = engine.verify_tuple(elements)
    _emit(report.to_json_dict(elements), args.out)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_triple(args) -> int:
    if args.route == "closed-form":
        if args.m != 2:
            raise ValueError("the closed-form route is only defined for m = 2")
        triple = paramfam.family_triple(args.t)
    else:
        triple = fam.triple_from_multiple(args.t, args.m)
    payload = {"t": format_rat(args.t), "m": args.m, "route": args.route, **triple.to_json_dict()}
    _emit(payload, args.out)
    return EXIT_OK


def _family_row(t: Fraction) -> dict:
    point = paramfam.family_point(t)
    return {
        "t": format_rat(t),
        "elements": [format_rat(e) for e in point.elements],
        "negatives": point.negatives,
    }


def cmd_family(args) -> int:
    _emit(_family_row(args.t), args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    start, stop, step = args.start, args.stop, args.step
    if step <= 0:
        raise ValueError("--step must be positive")
    ts = []
    t = start
    while t <= stop:
        ts.append(t)
        t += step
    if not ts:
        raise ValueError("empty scan range")
    lines = []
    for t in ts:  # ascending by construction; rows stay sorted
        try:
            row = _family_row(t)
        except ValueError as exc:  # inadmissible parameter; log and move on
            row = {"t": format_rat(t), "skipped": str(exc)}
        lines.append(json.dumps(row))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    point = Point(args.x, args.y)
    if args.p is None:
        payload = red.bad_primes_epp(args.t, point, bound=args.factor_bound).to_json_dict()
    else:
        red.require_base_point(args.t, point)
        report = red.classify(fam.curve_Epp(Fraction(args.t), point.x), args.p)
        payload = {
            "t": args.t,
            "x": format_rat(point.x),
            "y": format_rat(point.y),
            "report": report.to_json_dict(),
        }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_lemmas(args) -> int:
    t, p, m_max = args.t, args.p, args.max_m
    red.require_odd_prime(p)  # before t % p below, which fails at p = 0
    payload: dict = {"t": t, "p": p, "max_m": m_max}
    if p == 3:
        payload["table"], rows = "mod3-signs", red.mod3_sign_table(t, m_max)
    elif t % p == 0:
        payload["table"], rows = "nonsingular-residues", None
        payload["all_pass"] = red.nonsingular_residues(t, p, m_max)
    else:
        payload["table"], rows = "valuations", red.valuation_table(t, p, m_max)
    if rows is not None:
        payload["rows"] = [row.to_json_dict() for row in rows]
        payload["all_pass"] = all(row.passed for row in rows)
    _emit(payload, args.out)
    return EXIT_OK if payload["all_pass"] else EXIT_CHECK_FAILED


def cmd_catalog(args) -> int:
    _emit([entry.to_json_dict() for entry in paramfam.catalog()], args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls,
    which must not modify it."""
    parser = argparse.ArgumentParser(
        prog="dioph6",
        description="Exact construction, certification and reduction analysis "
        "of rational Diophantine sextuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "construct and certify a sextuple")
    p.add_argument("--t", type=_rat, required=True, help="family parameter (not -1, 0, 1)")
    p.add_argument("--m", type=int, default=2, help="seed multiple index (>= 2)")
    p.add_argument("--n", type=int, default=1, help="odd extension index: uses [2n+1]P'")
    p.add_argument("--route", choices=("isogeny", "closed-form"), default="isogeny")

    p = command("verify", cmd_verify, "verify the square certificate of a tuple")
    p.add_argument("elements", nargs="*", help="rationals in num/den form")
    p.add_argument("--file", help="JSON file holding an array of rational strings")

    p = command("triple", cmd_triple, "extract the triple attached to a seed multiple")
    p.add_argument("--t", type=_rat, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--route", choices=("isogeny", "closed-form"), default="isogeny")

    p = command("family", cmd_family, "evaluate the closed-form family at one t")
    p.add_argument("--t", type=_rat, required=True)

    p = command("scan", cmd_scan, "evaluate the family over a range (JSONL)")
    p.add_argument("--from", dest="start", type=_rat, required=True)
    p.add_argument("--to", dest="stop", type=_rat, required=True)
    p.add_argument("--step", type=_rat, required=True)

    p = command("reduce", cmd_reduce, "reduction analysis at a base-curve point")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--x", type=_rat, required=True)
    p.add_argument("--y", type=_rat, required=True)
    p.add_argument("--p", type=int, help="classify at this odd prime only")
    p.add_argument(
        "--factor-bound",
        type=int,
        default=DEFAULT_FACTOR_BOUND,
        help="trial-division bound for the bad-prime scan",
    )

    p = command("lemmas", cmd_lemmas, "predicted-vs-observed valuation tables")
    p.add_argument("--t", type=int, required=True)
    p.add_argument(
        "--p",
        type=int,
        required=True,
        help="odd prime: 3 gives the mod-3 sign table, a divisor of t the "
        "residue check, a divisor of t^2+1 the valuation table",
    )
    p.add_argument("--max-m", dest="max_m", type=int, default=red.DEFAULT_TABLE_MAX)

    command("catalog", cmd_catalog, "print the catalog of named examples")

    for name, p in sub.choices.items():  # --out comes last in every subcommand
        kind = "JSONL" if name == "scan" else "JSON"
        p.add_argument("--out", help=f"write {kind} here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
