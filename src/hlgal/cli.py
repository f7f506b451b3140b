"""Command-line frontend.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 internal
fault (a ValueError, ArithmeticError, AssertionError or RecursionError raised
by the library on input the command line accepted).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .folding import defining_chain, enumerate_pf, has_maximal_crossings
from .gallery import enumerate_of_type, gallery_to_jsonable, type_of_lambda
from .hlengine import L_polynomial, character_LS, character_to_jsonable, gallery_term
from .rootdata import RootSystemSpec, build_root_system
from .tableaux import (
    gallery_to_tableau,
    is_semistandard,
    pretty,
    shape_partition,
    tableau_to_jsonable,
)
from .verify import run_suite


class UsageError(Exception):
    pass


def parse_type(text: str):
    text = text.strip().upper()
    if len(text) < 2 or text[0] not in "ABC":
        raise UsageError("bad --type %r; expected e.g. A2, B3, C3" % text)
    try:
        rank = int(text[1:])
    except ValueError:
        raise UsageError("bad rank in --type %r" % text)
    try:
        return build_root_system(RootSystemSpec(text[0], rank))
    except ValueError as exc:
        raise UsageError(str(exc))


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def parse_coeffs(rs, text: str, what: str):
    try:
        coeffs = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("bad --%s %r; expected comma-separated integers" % (what, text))
    if len(coeffs) != rs.rank:
        raise UsageError("--%s needs %d coefficients" % (what, rs.rank))
    if any(c < 0 for c in coeffs):
        raise UsageError("--%s coefficients must be nonnegative" % what)
    return rs.weight(coeffs)


def _emit(rows, header, fmt):
    if fmt == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(row.get(k)) for k in header})
        sys.stdout.write(buf.getvalue())
    else:
        for row in rows:
            print("  ".join("%s=%s" % (k, row.get(k)) for k in header))


def cmd_L(args) -> int:
    rs = parse_type(args.type)
    lam = parse_coeffs(rs, args.lam, "lambda")
    mu = parse_coeffs(rs, args.mu, "mu")
    poly = L_polynomial(rs, lam, mu)
    if args.format == "json":
        print(json.dumps(poly.to_jsonable()))
    else:
        print(poly.pretty())
    return 0


def cmd_galleries(args) -> int:
    rs = parse_type(args.type)
    lam = parse_coeffs(rs, args.lam, "lambda")
    mu = parse_coeffs(rs, args.mu, "mu")
    rows = []
    for g in enumerate_pf(rs, lam, mu):
        ls = has_maximal_crossings(rs, g)
        if args.ls_only and not ls:
            continue
        chain = defining_chain(rs, g)
        rows.append(
            {
                "gallery": gallery_to_jsonable(rs, g),
                "ls": ls,
                "defining_chain": [list(rs.weyl.reduced_word(w)) for w in chain],
                "term": list(gallery_term(rs, g).coeffs),
            }
        )
    _emit(rows, ["gallery", "ls", "defining_chain", "term"], args.format)
    return 0


def cmd_char(args) -> int:
    rs = parse_type(args.type)
    lam = parse_coeffs(rs, args.lam, "lambda")
    char = character_to_jsonable(character_LS(rs, lam))
    if args.format == "pretty":
        for entry in char:
            print("%s  mult %d" % (",".join(entry["weight"]), entry["mult"]))
    else:
        _emit(char, ["weight", "mult"], args.format)
    return 0


def cmd_tableaux(args) -> int:
    rs = parse_type(args.type)
    lam = parse_coeffs(rs, args.lam, "lambda")
    tabs = []
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        tab = gallery_to_tableau(rs, g)
        ss = is_semistandard(tab)
        if ss or not args.semistandard:
            tabs.append((tab, ss))
    if args.format == "pretty":
        print("shape: %s" % (list(shape_partition(rs, lam)),))
        for tab, _ in tabs:
            print(pretty(tab))
            print("--")
        print("count: %d" % len(tabs))
    else:
        rows = [tableau_to_jsonable(tab) | {"semistandard": ss} for tab, ss in tabs]
        _emit(rows, ["family", "rank", "columns", "semistandard"], args.format)
    return 0


def cmd_verify(args) -> int:
    rs = parse_type(args.type)
    if args.suite == "a2-example":
        if (rs.family, rs.rank) != ("A", 2):
            raise UsageError("the a2-example suite runs on --type A2")
        if (args.max_coeff_sum, args.max_height) != (None, None):
            raise UsageError("--max-coeff-sum and --max-height bound the default suite only")
    report = run_suite(
        rs,
        suite=args.suite,
        max_coeff_sum=2 if args.max_coeff_sum is None else args.max_coeff_sum,
        max_height=12 if args.max_height is None else args.max_height,
        fault=args.inject_fault,
    )
    if args.format == "json" or not report["ok"]:
        payload = report if args.verbose else {k: report[k] for k in ("system", "suite", "checks", "failures", "ok")}
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print("%s suite=%s checks=%d ok" % (report["system"], report["suite"], report["checks"]))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlgal",
        description="Hall-Littlewood coefficient polynomials via one-skeleton galleries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu=False):
        p.add_argument("--type", required=True, help="root system, e.g. A2, B3, C3")
        p.add_argument("--lambda", dest="lam", required=True, help="coefficients a1,..,an")
        if mu:
            p.add_argument("--mu", required=True, help="coefficients c1,..,cn")
        return p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")

    p = sub.add_parser("L", help="print L_{lambda,mu}(q)")
    common(p, mu=True).choices = ("json", "pretty")  # a polynomial has no table form
    p.set_defaults(func=cmd_L)

    p = sub.add_parser("galleries", help="list positively folded galleries with target mu")
    common(p, mu=True)
    p.add_argument("--ls-only", action="store_true")
    p.set_defaults(func=cmd_galleries)

    p = sub.add_parser("char", help="LS-gallery character of lambda")
    common(p)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("tableaux", help="list tableaux for the standard gallery type")
    common(p)
    p.add_argument("--semistandard", action="store_true")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("verify", help="run the oracle-equality and invariant suite")
    p.add_argument("--type", default="A1", help="root system, e.g. A2")
    p.add_argument("--suite", default="default", choices=("default", "a2-example"))
    p.add_argument("--max-coeff-sum", type=nonnegative_int, help="default suite only; default 2")
    p.add_argument("--max-height", type=nonnegative_int, help="default suite only; default 12")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="with --format json, or on a failing run, print every record",
    )
    p.add_argument(
        "--inject-fault",
        choices=("sign-flip",),
        help="self-test switch: corrupt the gallery side to prove mismatches are caught",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, AssertionError, RecursionError) as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
