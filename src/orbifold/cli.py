"""Command-line front end.

Subcommands: enumerate, check, table, chaincheck, build, census, kernel.
Exit codes: 0 = pass, 2 = mathematical failure (not PBW / count mismatch),
1 = usage or I/O error.  Every sweep has a fixed guard and fails at once,
with exit 1, past it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable

from .chains import verify_chain_maps
from .group_algebra import GroupAlgebraElement, check_prime
from .params import CoboundaryData, DeformationParams, add_coboundary, build_candidate, implied_a
from .pbw import check_all
from .rewriting import MAX_DIMENSION_DEGREE, check_dimension, check_overlaps, rules_from_params
from .solver import (
    Listing,
    build_listing,
    census,
    class_kernel_basis,
    kernel_agrees,
    records_to_csv,
    records_to_json,
    records_to_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2

# Every command runs in one process.  enumerate, table, check and chaincheck
# still accept --workers only because the benchmark workloads in perfbench/
# pass it; the option can go once they stop passing it.
SERIAL_WORKERS = "accepted and ignored: this command runs in one process"

# The solution listings also write CSV; the reports do not.
TABLE_FORMATS = ("json", "csv", "text")
REPORT_FORMATS = ("json", "text")
Text = Callable[[], Iterable[str]]  # a report's text lines, rendered only for --format text


def _parse_element(p: int, text: str, what: str) -> GroupAlgebraElement:
    try:
        return GroupAlgebraElement.from_text(p, text)
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write "--d -2,-1" as "--d=-2,-1" for the options whose values may start
    with "-" (elements such as -g, d lists): argparse reads a separate value
    that starts with "-" and is not a number as an option, an attached one as
    the value."""
    out: list[str] = []
    for arg in argv:
        after_value_option = out and out[-1] in ("--b", "--d", "--kappaC", "--f")
        if after_value_option and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _add_common(sub: argparse.ArgumentParser, formats: tuple) -> None:
    sub.add_argument("--p", type=int, required=True, help="odd prime order of the group")
    sub.add_argument("--format", choices=formats, default="text")


def _add_workers(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workers", type=int, default=1, help=SERIAL_WORKERS)


def _count_status(p: int, total: int) -> int:
    """Exit status of a solution count, which must be p^(p+1)."""
    expected = p ** (p + 1)
    if total == expected:
        return EXIT_OK
    print(f"count mismatch: {total} != {expected}", file=sys.stderr)
    return EXIT_MATH_FAIL


def _print_report(fmt: str, payload: dict, text: Text) -> None:
    """Print a report command's payload as one JSON line, or else its text lines."""
    if fmt == "json":
        print(json.dumps(payload))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in text()))


def _census(p: int) -> tuple[dict, Text]:
    """The census payload (rows, and the number of solutions they count) and its text."""
    rows = census(p)
    payload = {"p": p, "rows": rows, "total": sum(r["b_class_size"] * r["a_per_b"] for r in rows)}
    return payload, lambda: [
        f"census for p = {p} (total solutions: {payload['total']})",
        *(f"k = {r['k']}: {r['b_class_size']} b-value(s), {r['a_per_b']} solution(s) per b"
          for r in rows),
    ]


def _write_listing(listing: Listing, fmt: str, json_tail: dict, text_head: Text) -> None:
    """Write the listing of enumerate or table; the text_head lines precede the text table."""
    if fmt == "json":
        records_to_json(listing, sys.stdout, json_tail)
    elif fmt == "csv":
        records_to_csv(listing, sys.stdout)
    else:
        sys.stdout.write("".join(f"{line}\n" for line in text_head()))
        records_to_text(listing, sys.stdout)


def cmd_enumerate(args) -> int:
    p = check_prime(args.p)
    listing = build_listing(p, args.mode)
    payload, text = _census(p)
    _write_listing(listing, args.format, {"census": payload["rows"], "total": listing.total}, text)
    return _count_status(p, listing.total)


def cmd_check(args) -> int:
    if not 3 <= args.degree <= MAX_DIMENSION_DEGREE:
        bound = ">= 3" if args.degree < 3 else f"<= {MAX_DIMENSION_DEGREE}"
        raise ValueError(f"degree bound must be {bound}, got {args.degree}")
    try:
        with open(args.params_file) as fh:
            obj = json.load(fh)
        params = DeformationParams.from_json(obj)
    except (OSError, json.JSONDecodeError, ValueError, RecursionError) as exc:
        print(f"cannot load parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = check_all(params)
    payload = report.to_json()
    ok_all = report.pbw
    if args.oracle:
        rules = rules_from_params(params)
        ok, witness = check_overlaps(rules)
        dim_ok, dim_rows = check_dimension(rules, args.degree)
        payload["oracle"] = {"degree": args.degree, "associative": ok, "witness": witness,
                             "dimension": dim_ok, "dimension_rows": dim_rows}
        if ok != report.pbw:
            payload["oracle"]["agrees_with_conditions"] = False
        ok_all = ok_all and ok

    def text():
        for i in sorted(report.passed):
            yield f"condition {i}: {'pass' if report.passed[i] else 'FAIL'}"
            if not report.passed[i]:
                yield from (f"  witness: {w}" for w in report.witnesses[i][:5])
        if args.oracle:
            yield f"oracle (degree {args.degree}): {'pass' if ok else 'FAIL'}"
            if witness:
                yield f"  witness: {witness}"
        yield f"PBW: {'yes' if ok_all else 'no'}"

    _print_report(args.format, payload, text)
    return EXIT_OK if ok_all else EXIT_MATH_FAIL


def cmd_table(args) -> int:
    _write_listing(build_listing(check_prime(args.p)), args.format, {}, lambda: [])
    return EXIT_OK


def cmd_chaincheck(args) -> int:
    report = verify_chain_maps(check_prime(args.p), args.degree)

    def text():
        for c in report["checks"]:
            status = "pass" if c["passed"] else f"FAIL at {c.get('witness')}"
            yield f"degree {c['degree']}: {c['identity']}: {status}"
        yield f"chain maps: {'ok' if report['passed'] else 'BROKEN'}"

    _print_report(args.format, report, text)
    return EXIT_OK if report["passed"] else EXIT_MATH_FAIL


def cmd_build(args) -> int:
    p = check_prime(args.p)
    b = _parse_element(p, args.b, "--b")
    try:
        d = [int(x) % p for x in args.d.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad --d list {args.d!r}: {exc}") from exc
    kappaC = _parse_element(p, args.kappaC, "--kappaC") if args.kappaC else None
    a = implied_a(b, d)
    params = build_candidate(a, b)
    if kappaC is not None:
        params = params.with_kappaC(kappaC)
    if args.f:
        params = add_coboundary(params, _parse_coboundary(p, args.f))
    print(f"implied a = {a.to_text()}", file=sys.stderr)
    _print_report(args.format, params.to_json(), lambda: [params.to_text()])
    return EXIT_OK


def _parse_coboundary(p: int, text: str) -> CoboundaryData:
    """Parse "v1:ELEM" or "v1:ELEM,v2:ELEM" into a linear map V -> F_pG."""
    values = {}
    for piece in text.split(","):
        if ":" not in piece:
            raise ValueError(f"bad --f entry {piece!r}: expected v1:ELEM or v2:ELEM")
        name, _, elem = piece.partition(":")
        name = name.strip()
        if name not in ("v1", "v2"):
            raise ValueError(f"bad --f entry {piece!r}: unknown vector {name!r}")
        if name in values:
            raise ValueError(f"bad --f entry {piece!r}: repeated vector {name!r}")
        values[name] = _parse_element(p, elem, f"--f {name}")
    zero = GroupAlgebraElement.zero(p)
    return CoboundaryData(values.get("v1", zero), values.get("v2", zero))


def cmd_census(args) -> int:
    p = check_prime(args.p)
    payload, text = _census(p)
    if args.format == "csv":
        text = lambda: ["k,b_class_size,a_per_b",
                        *(f"{r['k']},{r['b_class_size']},{r['a_per_b']}" for r in payload["rows"])]
    _print_report(args.format, payload, text)
    return _count_status(p, payload["total"])


def cmd_kernel(args) -> int:
    p = check_prime(args.p)
    b = _parse_element(p, args.b, "--b")
    fact = b.gminus1_factor()
    basis = class_kernel_basis(p, fact.k)
    payload = {"p": p, "b": list(b.coeffs), "k": fact.k, "btilde": list(fact.btilde.coeffs),
               "kernel_basis": [list(e.coeffs) for e in basis], "kernel_size": p ** fact.k}
    brute_ok = True
    if args.brute:
        brute_ok = payload["bruteforce_agrees"] = kernel_agrees(b)
    _print_report(args.format, payload, lambda: [
        f"b = {b.to_text()}", f"k = {fact.k}, btilde = {fact.btilde.to_text()}",
        f"kernel basis: {[e.to_text() for e in basis]}", f"kernel size: {p ** fact.k}",
        *([f"brute-force sweep agrees: {brute_ok}"] if args.brute else []),
    ])
    return EXIT_OK if brute_ok else EXIT_MATH_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="orbifold",
        description="Enumerate, verify, and classify the PBW deformations of the "
        "transvection skew group algebra in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="enumerate all (a, b) solutions")
    _add_common(sp, TABLE_FORMATS)
    _add_workers(sp)
    sp.add_argument("--mode", choices=("closed_form", "brute_force"), default="closed_form")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("check", help="run the six-condition check on a parameter file")
    sp.add_argument("--format", choices=REPORT_FORMATS, default="text")
    _add_workers(sp)
    sp.add_argument("--degree", type=int, default=4,
                    help="degree bound for the oracle's dimension rows")
    sp.add_argument("params_file", help="JSON file with the parameter tables")
    sp.add_argument("--oracle", action="store_true", help="also run the rewriting oracle")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("table", help="print the solution table grouped by b-class")
    _add_common(sp, TABLE_FORMATS)
    _add_workers(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("chaincheck", help="verify the resolution comparison maps")
    _add_common(sp, REPORT_FORMATS)
    _add_workers(sp)
    sp.add_argument("--degree", type=int, default=4, help="highest homological degree checked")
    sp.set_defaults(func=cmd_chaincheck)

    sp = sub.add_parser("build", help="build parameter tables from (b, d, kappaC, f)")
    _add_common(sp, REPORT_FORMATS)
    sp.add_argument("--b", required=True, help='group-algebra element, e.g. "1-g"')
    sp.add_argument("--d", default="", help='comma-separated free coordinates, e.g. "-1" or "1,2"')
    sp.add_argument("--kappaC", default="", help="constant kappa part")
    sp.add_argument("--f", default="", help='coboundary map, e.g. "v1:g" or "v1:g,v2:1"')
    sp.set_defaults(func=cmd_build, format="json")

    sp = sub.add_parser("census", help="print class sizes per (g-1)-adic class")
    _add_common(sp, TABLE_FORMATS)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("kernel", help="kernel data for a fixed b")
    _add_common(sp, REPORT_FORMATS)
    sp.add_argument("--b", required=True, help='group-algebra element, e.g. "1-g"')
    sp.add_argument("--brute", action="store_true", help="cross-check with the exhaustive sweep")
    sp.set_defaults(func=cmd_kernel)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away: send what is still buffered to devnull, so
        # that the flush at exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ValueError as exc:  # bad input, TooLarge and refused values alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
