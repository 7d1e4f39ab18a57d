"""The benchmark's workloads: the CLI commands of one pass and their output checks.

Every op is one call of ``orbifold.cli.main(argv)`` with stdout captured, the
entry point a user reaches.  Each op has a role: ``heavy`` for the workload's
large command and ``light`` for its small one; the end-to-end metrics are
defined per role (see README.md).  Each op's output is checked against
reference.py after the op, outside its timing; an output equal to one
already checked for the same op is accepted without parsing it again.

The caller puts src/ on sys.path before importing this module.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, NamedTuple

import orbifold.cli as cli
from orbifold.group_algebra import GroupAlgebraElement, gminus1_power
from orbifold.params import CoboundaryData, add_coboundary, build_candidate, closed_form, implied_a

from reference import candidate_ab, chain_identities, is_solution, parse_element
from setup_probe import warmup_ops

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_TABLE_P3 = os.path.join(ROOT, "tests", "golden", "table_p3.txt")

Check = Callable[[int, str], bool]


@dataclass
class Op:
    role: str  # "heavy", "light" or "warmup"
    label: str  # what the op is, e.g. "bf_csv", "accept", "sweep"
    argv: list[str]
    check: Check


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass, in order
    warmups: list[Op]  # run once in set-up, untimed
    notes: dict = field(default_factory=dict)  # context for the report


def remember_verified(check: Check) -> Check:
    """Accept without re-parsing an output equal to one this check already passed."""
    verified: set[tuple[int, str]] = set()

    def cached(code: int, out: str) -> bool:
        if (code, out) in verified:
            return True
        if check(code, out):
            verified.add((code, out))
            return True
        return False

    return cached


def run_op(op: Op, tracer=None) -> tuple[float, bool]:
    """Run one op; return its latency in seconds and whether its output checked out."""
    out = io.StringIO()
    scope = tracer.op(op.label) if tracer is not None else contextlib.nullcontext()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            with scope:
                code = cli.main(op.argv)
        except Exception:  # a raw exception from the program is a failed op
            crash = traceback.format_exc()
        elapsed = perf_counter() - start
    if code is None:
        print(f"op {op.argv} raised:\n{crash}", file=sys.stderr)
        return elapsed, False
    text = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += len(text.encode())
    try:
        ok = op.check(code, text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        ok = False  # unparsable output
    return elapsed, ok


class Result(NamedTuple):
    op: Op
    seconds: float  # latency
    ok: bool  # output checked out
    ratio: float  # latency over the reference loop's time around the op


REFERENCE_ITERATIONS = 100_000  # about 7 ms a loop on a 2.1 GHz Xeon


def reference_seconds() -> float:
    """The best of two runs of a fixed pure-Python loop: the host's speed right now.

    On a shared host the speed drifts by up to a third within seconds;
    a command's latency over the loop time around it drifts far less.
    """
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i
        best = min(best, perf_counter() - start)
    return best


def run_pass(workload: Workload, tracer=None) -> list[Result]:
    """Every op once, with the reference loop timed between consecutive ops."""
    results = []
    before = reference_seconds()
    for op in workload.ops:
        seconds, ok = run_op(op, tracer)
        after = reference_seconds()
        results.append(Result(op, seconds, ok, 2 * seconds / (before + after)))
        before = after
    return results


# -- enumerate --------------------------------------------------------------------


class SolutionSet:
    """Checks that an output lists exactly the p^(p+1) solutions (b, a).

    The first output to pass fixes the reference: p^(p+1) distinct pairs,
    each solving the system by reference.residual.  Since there are exactly
    that many solutions, every later output must list the same set, which
    makes the closed-form and brute-force outputs agree pair for pair.
    """

    def __init__(self, p: int):
        self.p = p
        self.total = p ** (p + 1)
        self.reference: frozenset | None = None
        # Known defect, kept visible: coefficients printed as floats, by op label.
        self.float_coefficients: dict[str, int] = {}

    def matches(self, pairs: list[tuple[tuple, tuple]]) -> bool:
        found = set(pairs)
        if len(pairs) != self.total or len(found) != self.total:
            return False
        if self.reference is None:
            if not all(is_solution(self.p, a, b) for b, a in found):
                return False
            self.reference = frozenset(found)
        return found == self.reference

    def csv_check(self, label: str, code: int, out: str) -> bool:
        lines = out.splitlines()
        if code != 0 or lines[0] != "b,a":
            return False
        self.float_coefficients[label] = out.count(".0")
        pairs = []
        for line in lines[1:]:
            b_text, a_text = line.split(",")
            pairs.append((parse_element(self.p, b_text), parse_element(self.p, a_text)))
        return self.matches(pairs)

    def json_check(self, label: str, code: int, out: str) -> bool:
        payload = json.loads(out)
        self.float_coefficients[label] = out.count(".0")
        pairs = [
            (tuple(rec["b"]), tuple(sol["a"]))
            for rec in payload["records"]
            for sol in rec["solutions"]
        ]
        return (
            code == 0
            and payload["p"] == self.p
            and payload["total"] == self.total
            and self.matches(pairs)
        )

    def table_check(self, label: str, code: int, out: str) -> bool:
        lines = out.splitlines()
        if code != 0 or lines[0] != f"solution table for p = {self.p}: {self.total} (b, a) pairs":
            return False
        self.float_coefficients[label] = out.count(".0")
        pairs = []
        for line in lines[1:]:
            if not line.startswith("b = "):
                continue
            b_text, a_texts = line[len("b = "):].split(" :: a = ")
            b = parse_element(self.p, b_text)
            pairs.extend((b, parse_element(self.p, t)) for t in a_texts.split(" | "))
        return self.matches(pairs)


def golden_check(code: int, out: str) -> bool:
    with open(GOLDEN_TABLE_P3) as fh:
        return code == 0 and out == fh.read()


def exit_code_check(expected: int) -> Check:
    return lambda code, out: code == expected


def _warmups(name: str, warmup_dir: str) -> list[Op]:
    ops = [
        Op("warmup", argv[0], argv, exit_code_check(code))
        for argv, code in warmup_ops(name, warmup_dir)
    ]
    if name == "enumerate":
        ops[0].check = golden_check  # table --p 3 must reproduce the golden file
    return ops


def enumerate_workload(p: int = 5, warmup_dir: str = "") -> Workload:
    """Closed-form table/json/csv (light) and the brute-force csv (heavy) at one p."""
    sets = SolutionSet(p)
    common = ["--p", str(p), "--workers", "1"]
    ops = [
        Op("light", "cf_table", ["table", *common], sets.table_check),
        Op("light", "cf_json", ["enumerate", *common, "--format", "json"], sets.json_check),
        Op("light", "cf_csv", ["enumerate", *common, "--format", "csv"], sets.csv_check),
        Op("heavy", "bf_csv", ["enumerate", *common, "--mode", "brute_force", "--format", "csv"],
           sets.csv_check),
    ]
    for op in ops:
        op.check = remember_verified(functools.partial(op.check, op.label))
    notes = {"solutions_per_command": sets.total, "float_coefficients": sets.float_coefficients}
    return Workload("enumerate", ops, _warmups("enumerate", warmup_dir), notes)


# -- certify ----------------------------------------------------------------------


def _random_element(rng: random.Random, p: int) -> GroupAlgebraElement:
    return GroupAlgebraElement(p, tuple(rng.randrange(p) for _ in range(p)))


def _element_of_class(rng: random.Random, p: int, k: int) -> GroupAlgebraElement:
    """A random b with (g-1)-adic class k: (g-1)^k times a random unit (0 for k = p)."""
    if k == p:
        return GroupAlgebraElement.zero(p)
    while True:
        unit = _random_element(rng, p)
        if sum(unit.coeffs) % p:
            return gminus1_power(p, k) * unit


def verdict_check(pbw: bool) -> Check:
    """Exit code, six-condition verdict and oracle verdict all match the label."""

    def check(code: int, out: str) -> bool:
        payload = json.loads(out)
        oracle = payload["oracle"]
        return (
            code == (0 if pbw else 2)
            and payload["pbw"] is pbw
            and oracle["associative"] is pbw
            and oracle.get("agrees_with_conditions", True) is True
            and (oracle["dimension"] is True or not pbw)
        )

    return check


def _never(code: int, out: str) -> bool:
    return False


def certify_params(
    seed: int, p: int, accepts_per_class: int, rejects_per_accept: int
) -> list[tuple[bool, dict | None]]:
    """(label, parameter JSON) pairs from the seed, in the order they run.

    Accepts are closed-form sets with random d, kappa^C and coboundary f,
    accepts_per_class for every class k = 0..p; each is labelled PBW only
    if the (a, b) read off it before the coboundary solves the reference
    system, and is replaced by None (a failed op) otherwise.  Rejects are
    half random candidates build_candidate(a, b), half near misses (a
    solution with one coefficient of a changed); both are kept only if the
    reference residual is nonzero.
    """
    rng = random.Random(seed)
    cases: list[tuple[bool, dict | None]] = []
    for k in range(p + 1):
        for _ in range(accepts_per_class):
            b = _element_of_class(rng, p, k)
            d = [rng.randrange(p) for _ in range(k)]
            base = closed_form(b, d, _random_element(rng, p))
            f = CoboundaryData(_random_element(rng, p), _random_element(rng, p))
            solved = is_solution(p, *candidate_ab(base.to_json()))
            cases.append((True, add_coboundary(base, f).to_json() if solved else None))
    n_rejects = rejects_per_accept * len(cases)
    while len(cases) < (p + 1) * accepts_per_class + n_rejects:
        b = _random_element(rng, p)
        if len(cases) % 2:
            a = _random_element(rng, p)
        else:
            d = [rng.randrange(p) for _ in range(b.gminus1_factor().k)]
            coeffs = list(implied_a(b, d).coeffs)
            coeffs[rng.randrange(p)] += rng.randrange(1, p)
            a = GroupAlgebraElement.from_coeffs(p, coeffs)
        if not is_solution(p, a.coeffs, b.coeffs):
            cases.append((False, build_candidate(a, b).to_json()))
    rng.shuffle(cases)
    return cases


def certify_workload(
    seed: int,
    files_dir: str,
    p: int = 5,
    accepts_per_class: int = 2,
    rejects_per_accept: int = 10,
    warmup_dir: str = "",
) -> Workload:
    """check --oracle over seeded parameter files: accepts (heavy) and rejects (light)."""
    ops = []
    cases = certify_params(seed, p, accepts_per_class, rejects_per_accept)
    for i, (pbw, obj) in enumerate(cases):
        path = os.path.join(files_dir, f"params_{i:03d}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        label = "accept" if pbw else "reject"
        check = verdict_check(pbw) if obj is not None else _never
        argv = ["check", path, "--oracle", "--degree", "4", "--format", "json", "--workers", "1"]
        ops.append(Op("heavy" if pbw else "light", label, argv, remember_verified(check)))
    return Workload("certify", ops, _warmups("certify", warmup_dir))


def write_certify_warmups(warmup_dir: str) -> None:
    """The two p = 3 files the certify warm-ups read: a PBW set and a non-PBW one."""
    p = 3
    one, g = GroupAlgebraElement.one(p), GroupAlgebraElement.g(p)
    for label, params in (
        ("accept", closed_form(one, [], GroupAlgebraElement.zero(p))),
        ("reject", build_candidate(GroupAlgebraElement.zero(p), g)),
    ):
        with open(os.path.join(warmup_dir, f"warm_{label}.json"), "w") as fh:
            json.dump(params.to_json(), fh)


# -- chains -----------------------------------------------------------------------


def chain_check(p: int, degree: int) -> Check:
    """The report passes, with exactly the expected identities in every degree."""

    def check(code: int, out: str) -> bool:
        report = json.loads(out)
        by_degree: dict[int, list[str]] = {}
        for entry in report["checks"]:
            by_degree.setdefault(entry["degree"], []).append(entry["identity"])
        return (
            code == 0
            and report["passed"] is True
            and report["p"] == p
            and report["max_degree"] == degree
            and all(entry["passed"] is True for entry in report["checks"])
            and by_degree == {n: chain_identities(n) for n in range(degree + 1)}
        )

    return check


def chains_workload(
    sweep: tuple[int, int] = (7, 3),
    small: tuple[int, int] = (3, 6),
    small_reps: int = 5,
    warmup_dir: str = "",
) -> Workload:
    """One large chaincheck (heavy) and a small one repeated (light)."""

    def op(role, label, p, degree):
        argv = ["chaincheck", "--p", str(p), "--degree", str(degree), "--format", "json",
                "--workers", "1"]
        return Op(role, label, argv, remember_verified(chain_check(p, degree)))

    ops = [op("heavy", "sweep", *sweep)]
    ops += [op("light", "small", *small) for _ in range(small_reps)]
    return Workload("chains", ops, _warmups("chains", warmup_dir))


# -- metrics ----------------------------------------------------------------------


def end_to_end(passes) -> dict[str, float]:
    """The timing metrics shared by every workload, from untraced passes: for
    each role, the mean over its commands of latency / reference loop time."""
    return {
        f"{role}_ref_ratio": statistics.fmean(
            r.ratio for results in passes for r in results if r.op.role == role
        )
        for role in ("heavy", "light")
    }


def named_metrics(workload: Workload, passes) -> dict[str, float]:
    """Latencies in ms and throughputs, under the names the workload's users know."""
    by_label: dict[str, list[float]] = {}
    by_role: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            by_label.setdefault(r.op.label, []).append(r.seconds)
            by_role.setdefault(r.op.role, []).append(r.seconds)
    out: dict[str, float] = {
        f"{role}_mean_ms": 1000 * statistics.fmean(ts) for role, ts in by_role.items()
    }
    if workload.name == "enumerate":
        for prefix, role in (("cf", "light"), ("bf", "heavy")):
            out[f"{prefix}_solutions_per_s"] = statistics.median(
                workload.notes["solutions_per_command"]
                * sum(1 for r in results if r.op.role == role)
                / sum(r.seconds for r in results if r.op.role == role)
                for results in passes
            )
    elif workload.name == "certify":
        out["accept_p50_ms"] = 1000 * statistics.median(by_label["accept"])
        out["reject_p50_ms"] = 1000 * statistics.median(by_label["reject"])
        if len(by_label["reject"]) >= 100:  # p90 then has ten samples beyond it
            out["reject_p90_ms"] = 1000 * statistics.quantiles(by_label["reject"], n=10)[8]
        out["verdicts_per_s"] = statistics.median(
            len(results) / sum(r.seconds for r in results) for results in passes
        )
    elif workload.name == "chains":
        out["sweep_s"] = statistics.median(by_label["sweep"])
        out["small_p50_ms"] = 1000 * statistics.median(by_label["small"])
    out["samples_ms"] = {label: [round(1000 * t, 3) for t in ts] for label, ts in by_label.items()}
    out.update(workload.notes)
    return out
