"""Command-line front end.

Subcommands: generate, verify, triple, family, scan, reduce, lemmas,
catalog.  All output is JSON (JSONL for scans) with rationals rendered as
canonical ``num/den`` strings, never floating point.  Exit codes: 0 for
success / verified, 1 for a failed mathematical check, 2 for invalid input.

The subcommands signal bad input by raising; :func:`main` alone maps an
exception to an exit code and an ``error:`` line on stderr.

A command line whose first argument names a command is read from a table
of that command's options (:func:`_table_parse`) when it is well formed:
each option spelled out in full, as ``--name value`` or ``--name=value``,
at most once, every required option given, and every value converted and
checked as argparse would.  A value may not be ``--`` after ``=``, which
argparse rejects as a missing value, nor start with ``-`` in its own token
unless the rest is ASCII digits.
``verify`` takes its elements there after one ``--`` right after the
command, or with no token that starts with ``-``.  Every other command
line, from help, abbreviations and repeated options to a value that fails
to convert, goes to argparse, which writes its own usage and error text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import ConsistencyError
from .exactnum import DEFAULT_FACTOR_BOUND, _coprime, format_rat, parse_rat
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


#: ``json.dumps(payload, indent=2)`` built once; the payloads are acyclic.
_ENCODER = json.JSONEncoder(indent=2, check_circular=False)


def _emit(payload, out_path: str | None) -> None:
    _write(_ENCODER.encode(payload) + "\n", out_path)


def cmd_generate(args) -> int:
    t = args.t
    if args.route == "closed-form":
        if args.m != 2 or args.n != 1:
            raise ValueError("the closed-form route is only defined for m = 2, n = 1")
        point = paramfam.family_point(t)
        # rows (1, 2), (1, 3) and (2, 3) hold the roots of ab + 1, ac + 1, bc + 1
        roots = [_coprime(*point.report.rows[k][4:]) for k in (0, 1, 5)]
        triple = fam.TripleABC(point.a, point.b, point.c, *roots, t=t, m=2)
        record = engine.SextupleRecord(t, 2, 1, triple, point.d, point.e, point.f, point.report)
    else:
        triple = fam.triple_from_multiple(t, args.m)
        record = engine.extend_to_sextuple(triple, args.n)
    _emit(record.to_json_dict(route=args.route), args.out)
    return EXIT_OK


def _read_elements(args) -> list[Fraction]:
    """The elements to verify, from the arguments or from ``--file``."""
    items = args.elements
    if args.file:
        if items:
            raise ValueError("give the elements as arguments or via --file, not both")
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("element file must hold a JSON array of rational strings")
        items = [str(item) for item in data]
    if not items:
        raise ValueError("no elements given (pass them as arguments or via --file)")
    return [parse_rat(item) for item in items]


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
    if start > stop:
        raise ValueError("empty scan range")
    lines = []
    t = start
    while t <= stop:  # ascending, so the rows stay sorted
        try:
            fam.require_param(t)
        except ValueError as exc:  # t = -1, 0 or 1; log and move on
            row = {"t": format_rat(t), "skipped": str(exc)}
        else:  # any other error is the command's and reaches main
            row = _family_row(t)
        lines.append(json.dumps(row))
        t += step
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    point = Point(args.x, args.y)
    if args.p is None:
        payload = red.bad_primes_epp(args.t, point, bound=args.factor_bound).to_json_dict()
    else:
        red.require_base_point(args.t, point)
        model = fam._cleared_Epp(args.t, 1, point.x)
        red.require_odd_prime(args.p)
        report = red.ReductionReport(*next(red._classified(model, (args.p,))))
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
    payload: dict = {"t": t, "p": p, "max_m": m_max}
    if p == 3:
        payload["table"], rows = "mod3-signs", red.mod3_sign_table(t, m_max)
    elif p and t % p == 0:  # p = 0 falls through; each table checks p before t
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with ``--opt=--`` an option given no value on every
    interpreter: before 3.13 argparse stores [], and 3.13 the value ``--``."""

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:  # only "=--" gives these
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls,
    which must not modify it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser, and by command name the table that
    :func:`_table_parse` reads: the options that take one value, by name;
    the positional or None; the namespace's defaults; the required dests."""
    parser = _Parser(
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

    tables = {}
    for name, p in sub.choices.items():  # --out comes last in every subcommand
        kind = "JSONL" if name == "scan" else "JSON"
        p.add_argument("--out", help=f"write {kind} here instead of stdout")
        actions = p._actions  # every Action that add_argument returned, in order
        defaults = {a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}
        tables[name] = (
            {a.option_strings[0]: a for a in actions if a.option_strings and a.nargs is None},
            next((a for a in actions if not a.option_strings), None),
            {"command": name, **defaults, "func": p.get_default("func")},
            {a.dest for a in actions if a.required},
        )
    return parser, tables


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a well-formed command line (see the module
    docstring), or None to leave the command line to argparse."""
    table = _parsers()[1].get(argv[0]) if argv else None
    if table is None:  # no command, an unknown one, or a top-level option
        return None
    options, positional, defaults, required = table
    _, *rest = argv
    if positional is not None:  # verify: its elements alone
        if rest[:1] == ["--"]:
            rest = rest[1:]
            if "--" in rest:
                return None
        elif any(arg[:1] == "-" for arg in rest):
            return None
        return argparse.Namespace(**{**defaults, positional.dest: rest}) if rest else None
    given = {}
    tokens = iter(rest)
    for token in tokens:
        name, eq, value = token.partition("=")
        action = options.get(name)
        if action is None or action.dest in given:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value reads as "-"
            if value[:1] == "-" and not (value[1:].isdigit() and value[1:].isascii()):
                return None
        elif value == "--":  # "--opt=--" gives no value; _Parser says so
            return None
        try:
            value = action.type(value) if action.type else value
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    return argparse.Namespace(**{**defaults, **given}) if required <= given.keys() else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, from the table when it takes the
    command line."""
    args = _table_parse(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
