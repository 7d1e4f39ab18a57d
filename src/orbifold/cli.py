"""Command-line front end.

Subcommands: enumerate, check, table, chaincheck, build, census, kernel.
Exit codes: 0 = pass, 2 = mathematical failure (not PBW / count mismatch),
1 = usage or I/O error.  The ORBIFOLD_MAX_P environment variable raises the
brute-force guard ceilings, at your own risk.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chains import MAX_CHAIN_DEGREE, verify_chain_maps
from .group_algebra import GroupAlgebraElement, TooLarge, check_prime
from .params import CoboundaryData, DeformationParams, add_coboundary, closed_form, implied_a
from .pbw import check_all
from .rewriting import check_dimension, check_overlaps, rules_from_params
from .solver import SolutionRecord, census, enumerate_solutions, records_to_csv, records_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2

SWEEP_WORKERS = "worker processes for the b-value sweep"
# check and chaincheck run in one process; they take --workers so that one
# option list drives every sweep command.
SERIAL_WORKERS = "accepted and ignored: this command runs in one process"


class UsageError(Exception):
    pass


def _parse_element(p: int, text: str, what: str) -> GroupAlgebraElement:
    try:
        return GroupAlgebraElement.from_text(p, text)
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _add_common(sub: argparse.ArgumentParser, need_p: bool = True) -> None:
    sub.add_argument("--p", type=int, required=need_p, default=None,
                     help="odd prime order of the group")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")


def _add_workers(sub: argparse.ArgumentParser, help: str) -> None:
    sub.add_argument("--workers", type=int, default=1, help=help)


def _count_status(p: int, total: int) -> int:
    """Exit status of a solution count, which must be p^(p+1)."""
    expected = p ** (p + 1)
    if total == expected:
        return EXIT_OK
    print(f"count mismatch: {total} != {expected}", file=sys.stderr)
    return EXIT_MATH_FAIL


def _census(p: int) -> tuple[list[dict], int]:
    """The census rows as JSON objects, and the number of solutions they count."""
    rows = [
        {"k": r.k, "b_class_size": r.b_class_size, "a_per_b": r.a_class_size_per_b}
        for r in census(p)
    ]
    return rows, sum(r["b_class_size"] * r["a_per_b"] for r in rows)


def _census_lines(p: int, rows: list[dict], total: int) -> list[str]:
    lines = [f"census for p = {p} (total solutions: {total})"]
    for r in rows:
        lines.append(
            f"k = {r['k']}: {r['b_class_size']} b-value(s), {r['a_per_b']} solution(s) per b"
        )
    return lines


def _table_text(p: int, records: list[SolutionRecord]) -> str:
    total = sum(len(r.solutions) for r in records)
    lines = [f"solution table for p = {p}: {total} (b, a) pairs"]
    by_k: dict[int, list[SolutionRecord]] = {}
    for rec in records:
        by_k.setdefault(rec.k, []).append(rec)
    for k in sorted(by_k):
        group = by_k[k]
        lines.append(f"[k = {k}] {len(group)} b-value(s), {len(group[0].solutions)} solution(s) per b")
        for rec in group:
            avals = " | ".join(a.to_text() for _c, a in rec.solutions)
            lines.append(f"b = {rec.b.to_text()} :: a = {avals}")
    return "\n".join(lines) + "\n"


def cmd_enumerate(args) -> int:
    p = check_prime(args.p)
    records = enumerate_solutions(p, args.mode, workers=args.workers)
    total = sum(len(r.solutions) for r in records)
    if args.format == "json":
        payload = records_to_json(p, records)
        payload["census"], _ = _census(p)
        payload["total"] = total
        print(json.dumps(payload))
    elif args.format == "csv":
        sys.stdout.write(records_to_csv(records))
    else:
        for line in _census_lines(p, *_census(p)):
            print(line)
        sys.stdout.write(_table_text(p, records))
    return _count_status(p, total)


def cmd_check(args) -> int:
    if args.oracle and args.degree < 3:
        raise UsageError(f"degree bound must be >= 3, got {args.degree}")
    try:
        with open(args.params_file) as fh:
            obj = json.load(fh)
        params = DeformationParams.from_json(obj)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot load parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = check_all(params)
    payload = report.to_json()
    if args.oracle:
        rules = rules_from_params(params)
        ok, witness = check_overlaps(rules)
        dim_ok, dim_rows = check_dimension(rules, args.degree)
        payload["oracle"] = {
            "degree": args.degree,
            "associative": ok,
            "witness": witness,
            "dimension": dim_ok,
            "dimension_rows": dim_rows,
        }
        if ok != report.pbw:
            payload["oracle"]["agrees_with_conditions"] = False
        ok_all = report.pbw and ok and dim_ok
    else:
        ok_all = report.pbw
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for i in sorted(report.passed):
            status = "pass" if report.passed[i] else "FAIL"
            print(f"condition {i}: {status}")
            if not report.passed[i]:
                for witness in report.witnesses[i][:5]:
                    print(f"  witness: {witness}")
        if args.oracle:
            print(f"oracle (degree {args.degree}): "
                  f"{'pass' if payload['oracle']['associative'] and payload['oracle']['dimension'] else 'FAIL'}")
            if payload["oracle"]["witness"]:
                print(f"  witness: {payload['oracle']['witness']}")
        print(f"PBW: {'yes' if ok_all else 'no'}")
    return EXIT_OK if ok_all else EXIT_MATH_FAIL


def cmd_table(args) -> int:
    p = check_prime(args.p)
    records = enumerate_solutions(p, "closed_form", workers=args.workers)
    if args.format == "json":
        print(json.dumps(records_to_json(p, records)))
    elif args.format == "csv":
        sys.stdout.write(records_to_csv(records))
    else:
        sys.stdout.write(_table_text(p, records))
    return EXIT_OK


def cmd_chaincheck(args) -> int:
    p = check_prime(args.p)
    if args.degree > MAX_CHAIN_DEGREE:
        raise UsageError(f"chain check degree must be <= {MAX_CHAIN_DEGREE}, got {args.degree}")
    report = verify_chain_maps(p, args.degree)
    if args.format == "json":
        print(json.dumps(report))
    else:
        for c in report["checks"]:
            status = "pass" if c["passed"] else f"FAIL at {c.get('witness')}"
            print(f"degree {c['degree']}: {c['identity']}: {status}")
        print(f"chain maps: {'ok' if report['passed'] else 'BROKEN'}")
    return EXIT_OK if report["passed"] else EXIT_MATH_FAIL


def cmd_build(args) -> int:
    p = check_prime(args.p)
    b = _parse_element(p, args.b, "--b")
    d = []
    if args.d:
        try:
            d = [int(x) % p for x in args.d.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"bad --d list {args.d!r}: {exc}") from exc
    kappaC = _parse_element(p, args.kappaC, "--kappaC") if args.kappaC else None
    try:
        params = closed_form(b, d, kappaC)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.f:
        params = add_coboundary(params, _parse_coboundary(p, args.f))
    print(f"implied a = {implied_a(b, d).to_text()}", file=sys.stderr)
    if args.format == "text":
        print(params.to_text())
    else:
        print(json.dumps(params.to_json()))
    return EXIT_OK


def _parse_coboundary(p: int, text: str) -> CoboundaryData:
    """Parse "v1:ELEM" or "v1:ELEM,v2:ELEM" into a linear map V -> F_pG."""
    values = {"v1": GroupAlgebraElement.zero(p), "v2": GroupAlgebraElement.zero(p)}
    for piece in text.split(","):
        if ":" not in piece:
            raise UsageError(f"bad --f entry {piece!r}: expected v1:ELEM or v2:ELEM")
        name, _, elem = piece.partition(":")
        name = name.strip()
        if name not in values:
            raise UsageError(f"bad --f entry {piece!r}: unknown vector {name!r}")
        values[name] = _parse_element(p, elem, f"--f {name}")
    return CoboundaryData(values["v1"], values["v2"])


def cmd_census(args) -> int:
    p = check_prime(args.p)
    rows, total = _census(p)
    if args.format == "json":
        print(json.dumps({"p": p, "rows": rows, "total": total}))
    elif args.format == "csv":
        print("k,b_class_size,a_per_b")
        for r in rows:
            print(f"{r['k']},{r['b_class_size']},{r['a_per_b']}")
    else:
        for line in _census_lines(p, rows, total):
            print(line)
    return _count_status(p, total)


def cmd_kernel(args) -> int:
    from .solver import kernel_basis, kernel_bruteforce, span

    p = check_prime(args.p)
    b = _parse_element(p, args.b, "--b")
    fact = b.gminus1_factor()
    basis = kernel_basis(b)
    payload = {
        "p": p,
        "b": list(b.coeffs),
        "k": fact.k,
        "btilde": list(fact.btilde.coeffs),
        "kernel_basis": [list(e.coeffs) for e in basis],
        "kernel_size": p ** fact.k,
    }
    brute_ok = True
    if args.brute:
        brute = kernel_bruteforce(b)
        brute_ok = brute == set(span(p, basis))
        payload["bruteforce_agrees"] = brute_ok
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"b = {b.to_text()}")
        print(f"k = {fact.k}, btilde = {fact.btilde.to_text()}")
        print(f"kernel basis: {[e.to_text() for e in basis]}")
        print(f"kernel size: {p ** fact.k}")
        if args.brute:
            print(f"brute-force sweep agrees: {brute_ok}")
    return EXIT_OK if brute_ok else EXIT_MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbifold",
        description="Enumerate, verify, and classify the PBW deformations of the "
        "transvection skew group algebra in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="enumerate all (a, b) solutions")
    _add_common(sp)
    _add_workers(sp, SWEEP_WORKERS)
    sp.add_argument("--mode", choices=("closed_form", "brute_force"), default="closed_form")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("check", help="run the six-condition check on a parameter file")
    _add_common(sp, need_p=False)  # the parameter file carries p
    _add_workers(sp, SERIAL_WORKERS)
    sp.add_argument("--degree", type=int, default=4,
                    help="degree bound for the oracle's dimension rows")
    sp.add_argument("params_file", help="JSON file with the parameter tables")
    sp.add_argument("--oracle", action="store_true", help="also run the rewriting oracle")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("table", help="print the solution table grouped by b-class")
    _add_common(sp)
    _add_workers(sp, SWEEP_WORKERS)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("chaincheck", help="verify the resolution comparison maps")
    _add_common(sp)
    _add_workers(sp, SERIAL_WORKERS)
    sp.add_argument("--degree", type=int, default=4, help="highest homological degree checked")
    sp.set_defaults(func=cmd_chaincheck)

    sp = sub.add_parser("build", help="build parameter tables from (b, d, kappaC, f)")
    _add_common(sp)
    sp.add_argument("--b", required=True, help='group-algebra element, e.g. "1-g"')
    sp.add_argument("--d", default="", help='comma-separated free coordinates, e.g. "-1" or "1,2"')
    sp.add_argument("--kappaC", default="", help="constant kappa part")
    sp.add_argument("--f", default="", help='coboundary map, e.g. "v1:g" or "v1:g,v2:1"')
    sp.set_defaults(func=cmd_build, format="json")

    sp = sub.add_parser("census", help="print class sizes per (g-1)-adic class")
    _add_common(sp)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("kernel", help="kernel data for a fixed b")
    _add_common(sp)
    sp.add_argument("--b", required=True, help='group-algebra element, e.g. "1-g"')
    sp.add_argument("--brute", action="store_true", help="cross-check with the exhaustive sweep")
    sp.set_defaults(func=cmd_kernel)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
