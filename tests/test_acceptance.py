"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance here is exact and every runtime bound is asserted.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from orbifold.chains import rep_to_params, verify_chain_maps
from orbifold.cli import main
from orbifold.group_algebra import GroupAlgebraElement as GA
from orbifold.params import (
    CoboundaryData,
    add_coboundary,
    build_candidate,
    closed_form,
)
from orbifold.pbw import (
    check_all,
    check_condition1,
    check_condition2,
    check_condition3,
    check_condition6,
)
from orbifold.rewriting import check_associativity, check_dimension, rules_from_params
from orbifold.solver import (
    a_from_c,
    enumerate_solutions,
    kernel_agrees,
    kernel_basis,
    span,
)
from test_pbw import elements

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def pair_key(b, a):
    return (b.coeffs, a.coeffs)


def transcribed_table_p3():
    """The expected p = 3 solution table, maintained by hand.

    The two closed-description rows are expanded by their rule (b = 0
    admits every a; a unit b forces a = b_1 g); the six remaining rows
    are written out literally, with b expanded mod 3
    ((g-1)^2 = 1 + g + g^2 and (g+1)(g-1) = -1 + g^2).  Nothing here
    goes through the solver, so the comparison is an independent check.
    """
    p = 3
    pairs = set()
    # b = 0 row: every a works.
    for a in GA.all_elements(p):
        pairs.add(pair_key(GA.zero(p), a))
    # Unit-b row: 18 values, each with the single solution a = b_1 g.
    for b in GA.all_elements(p):
        if b.augmentation() != 0:
            pairs.add(pair_key(b, GA.monomial(p, 1, b.coeffs[1])))
    literal_rows = [
        (["1-g", "-g+g^2"], ["-g", "1-g^2", "-1+g+g^2"]),
        (["-1+g", "g-g^2"], ["g", "-1+g^2", "1-g-g^2"]),
        (["-1+g^2"], ["0", "1+g-g^2", "-1-g+g^2"]),
        (["1-g^2"], ["0", "-1-g+g^2", "1+g-g^2"]),
        (
            ["1+g+g^2"],
            ["1", "g", "-g^2", "-1-g", "-g+g^2", "-1+g^2", "-1+g-g^2", "1-g-g^2", "1+g+g^2"],
        ),
        (
            ["-1-g-g^2"],
            ["-1", "-g", "g^2", "1+g", "g-g^2", "1-g^2", "1-g+g^2", "-1+g+g^2", "-1-g-g^2"],
        ),
    ]
    for b_texts, a_texts in literal_rows:
        for b_text in b_texts:
            for a_text in a_texts:
                pairs.add(pair_key(GA.from_text(p, b_text), GA.from_text(p, a_text)))
    return pairs


def test_criterion_1_table_reproduction(capsys):
    with criterion(1, "p=3 table matches the transcribed solution table"):
        start = time.perf_counter()
        records = enumerate_solutions(3)
        code = main(["table", "--p", "3"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / "table_p3.txt").read_text()

        produced = {pair_key(r.b, a) for r in records for _c, a in r.solutions}
        expected = transcribed_table_p3()
        assert produced == expected
        assert len(produced) == 81

        sizes = sorted((r.k, len(r.solutions)) for r in records)
        partition = {}
        for k, n in sizes:
            partition[(k, n)] = partition.get((k, n), 0) + 1
        assert partition == {(0, 1): 18, (1, 3): 6, (2, 9): 2, (3, 27): 1}
        assert elapsed < 1.0


def test_criterion_2_counting():
    with criterion(2, "solution counts are p^(p+1) and both modes agree"):
        for p in (3, 5):
            start = time.perf_counter()
            closed = enumerate_solutions(p, "closed_form")
            brute = enumerate_solutions(p, "brute_force")
            elapsed = time.perf_counter() - start
            assert sum(len(r.solutions) for r in closed) == p ** (p + 1)
            assert sum(len(r.solutions) for r in brute) == p ** (p + 1)
            for rc, rb in zip(closed, brute):
                assert rc.b == rb.b
                assert sorted(pair_key(a, c) for c, a in rc.solutions) == sorted(
                    pair_key(a, c) for c, a in rb.solutions
                )
            assert elapsed < 60.0


def test_criterion_3_kernel_theorem():
    with criterion(3, "brute-force kernels equal the closed-form spans"):
        start = time.perf_counter()
        for p in (3, 5):
            for b in GA.all_elements(p):
                assert kernel_agrees(b)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_running_example():
    with criterion(4, "the worked p=3 example reproduces exactly"):
        p = 3
        b = GA.from_text(p, "1-g")
        norm = GA.from_text(p, "1+g+g^2")
        assert set(span(p, kernel_basis(b))) == {GA.zero(p), norm, -norm}

        c = GA.from_text(p, "-1-g-g^2")
        a = a_from_c(c, b)
        assert a == GA.from_text(p, "-1+g+g^2")

        lam, _, kappaL = elements(build_candidate(a, b))
        for i in range(p):
            assert lam[i][0] == b.scale(i).shift(i)  # i (1-g) g^i
            expected_v2 = b.scale(i * (i - 1) // 2).shift(i) + (
                GA.g(p, 1) + GA.g(p, 2)
            ).scale(i).shift(i)  # C(i,2)(1-g)g^i + i(g^(i+1) + g^(i+2))
            assert lam[i][1] == expected_v2
        assert kappaL[0] == GA.from_text(p, "-1")
        assert kappaL[1] == GA.from_text(p, "-g")


def test_criterion_5_checker_oracle_equivalence():
    with criterion(5, "six-condition checker and rewriting oracle agree on all 2187 runs"):
        start = time.perf_counter()
        p = 3
        solutions = {
            pair_key(rec.b, a)
            for rec in enumerate_solutions(p)
            for _c, a in rec.solutions
        }
        for kappa_text in ("0", "1", "g"):
            kappaC = GA.from_text(p, kappa_text)
            pass_set = set()
            for a in GA.all_elements(p):
                for b in GA.all_elements(p):
                    params = build_candidate(a, b).with_kappaC(kappaC)
                    conditions_ok = check_all(params).pbw
                    oracle_ok, _ = check_associativity(rules_from_params(params), 4)
                    assert conditions_ok == oracle_ok, (a.to_text(), b.to_text(), kappa_text)
                    if conditions_ok:
                        pass_set.add(pair_key(b, a))
            assert pass_set == solutions
        assert time.perf_counter() - start < 300.0


def test_criterion_6_algebra_counts():
    with criterion(6, "p^(2p+1) and p^(3p+1) algebra counts with spot checks"):
        start = time.perf_counter()
        p = 3
        n_solutions = sum(len(r.solutions) for r in enumerate_solutions(p))
        n_kappa_c = p**p
        assert n_solutions * n_kappa_c == p ** (2 * p + 1) == 2187
        n_coboundaries = p**p  # one f_j(v1) choice per group element
        assert n_solutions * n_kappa_c * n_coboundaries == p ** (3 * p + 1) == 59049

        # Distinct parameter outputs back the multiplication: all 27 f-shifts
        # of one solution differ.
        base = closed_form(GA.from_text(p, "1-g"), [-1])
        shifted = {
            json.dumps(add_coboundary(base, CoboundaryData(f1, GA.zero(p))).to_json())
            for f1 in GA.all_elements(p)
        }
        assert len(shifted) == 27

        rng = random.Random(2024)
        records = enumerate_solutions(p)
        for _ in range(100):
            rec = rng.choice(records)
            _c, a = rec.solutions[rng.randrange(len(rec.solutions))]
            params = build_candidate(a, rec.b).with_kappaC(GA.random(rng, p))
            params = add_coboundary(
                params, CoboundaryData(GA.random(rng, p), GA.random(rng, p))
            )
            assert check_all(params).pbw
        assert time.perf_counter() - start < 60.0


def test_criterion_7_coboundary_invariance():
    with criterion(7, "coboundaries never change the condition-2 outcome"):
        rng = random.Random(777)
        for p in (3, 5):
            for _ in range(500):
                a, b = GA.random(rng, p), GA.random(rng, p)
                params = build_candidate(a, b).with_kappaC(GA.random(rng, p))
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                shifted = add_coboundary(params, f)
                before = check_condition2(params) == []
                after = check_condition2(shifted) == []
                assert before == after
                assert check_condition1(shifted) == []
                assert check_condition3(shifted) == []
                assert check_condition6(shifted) == []


def test_criterion_8_chain_maps():
    with criterion(8, "chain-map identities hold to degree 4 for p in {3,5,7}"):
        start = time.perf_counter()
        for p in (3, 5, 7):
            report = verify_chain_maps(p, 4)
            assert report["passed"], [c for c in report["checks"] if not c["passed"]]
            names = {c["identity"] for c in report["checks"]}
            assert names >= {
                "pi_iota_identity",
                "pi_commutes_with_differentials",
                "iota_commutes_with_differentials",
                "bar_differential_squares_to_zero",
                "periodic_differential_squares_to_zero",
            }
        assert time.perf_counter() - start < 30.0


def test_criterion_9_transfer_bridge():
    with criterion(9, "cochain transfer reproduces the candidate tables"):
        p = 3
        for alpha in range(p):
            for s in range(p):
                for beta in range(p):
                    for t in range(p):
                        a = GA.monomial(p, s, alpha)
                        b = GA.monomial(p, t, beta)
                        assert rep_to_params(a, b) == build_candidate(a, b)
        rng = random.Random(99)
        for _ in range(10_000):
            a, b = GA.random(rng, 5), GA.random(rng, 5)
            assert rep_to_params(a, b) == build_candidate(a, b)


def test_criterion_10_normal_form_dimension():
    with criterion(10, "every p=3 solution algebra has the polynomial word counts"):
        expected = [3, 9, 18, 30, 45]
        for rec in enumerate_solutions(3):
            for _c, a in rec.solutions:
                rules = rules_from_params(build_candidate(a, rec.b))
                ok, rows = check_dimension(rules, 4)
                assert ok
                assert [r["count"] for r in rows] == expected
