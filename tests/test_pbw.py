"""The six lifting conditions, their residuals, and invariance properties."""

import random

from orbifold.action import VGroupElement
from orbifold.group_algebra import GroupAlgebraElement as GA
from orbifold.params import (
    CoboundaryData,
    DeformationParams,
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
from orbifold.solver import enumerate_solutions, system_residual


def ga(p, text):
    return GA.from_text(p, text)


def all_pairs(p):
    for a in GA.all_elements(p):
        for b in GA.all_elements(p):
            yield a, b


class TestCondition1:
    def test_zero_params_pass(self):
        assert check_condition1(DeformationParams.zero(3)) == []

    def test_candidates_pass_exhaustively_p3(self):
        for a, b in all_pairs(3):
            assert check_condition1(build_candidate(a, b)) == []

    def test_single_entry_fails_at_g_g(self):
        p = 3
        z = GA.zero(p)
        lam = [(z, z), (GA.one(p), z), (z, z)]
        params = DeformationParams(p, tuple(lam), z, VGroupElement.zero(p))
        witnesses = check_condition1(params)
        assert witnesses
        # The (g, g) pair is the first defect: lambda(g^2, v1) = 0 while the
        # right side contributes g + g.
        assert witnesses[0] == ((1, 1, 1), [0, 1, 0])


class TestCondition2:
    def test_running_example_passes(self):
        assert check_condition2(build_candidate(ga(3, "-1+g+g^2"), ga(3, "1-g"))) == []

    def test_wrong_a_fails(self):
        assert check_condition2(build_candidate(ga(3, "g"), ga(3, "1-g"))) != []

    def test_pure_kappa_c_passes(self):
        params = DeformationParams.zero(3).with_kappaC(ga(3, "1+2*g"))
        assert check_condition2(params) == []

    def test_agrees_with_system_residual_exhaustive_p3(self):
        for a, b in all_pairs(3):
            params = build_candidate(a, b)
            assert (check_condition2(params) == []) == system_residual(a, b).is_zero()

    def test_agrees_with_system_residual_random_p5(self):
        rng = random.Random(3)
        for _ in range(300):
            a, b = GA.random(rng, 5), GA.random(rng, 5)
            params = build_candidate(a, b)
            assert (check_condition2(params) == []) == system_residual(a, b).is_zero()

    def test_kappa_c_never_matters(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = GA.random(rng, 3), GA.random(rng, 3)
            base = build_candidate(a, b)
            shifted = base.with_kappaC(GA.random(rng, 3))
            assert (check_condition2(base) == []) == (check_condition2(shifted) == [])


class TestCondition3:
    def test_candidates_pass_exhaustively_p3(self):
        for a, b in all_pairs(3):
            assert check_condition3(build_candidate(a, b)) == []

    def test_zero_tables_pass(self):
        assert check_condition3(DeformationParams.zero(5)) == []

    def test_bare_v2_kappa_fails(self):
        # kappa^L = v2 (x) 1 with lambda = 0 breaks equivariance at g = h = g^1.
        p = 3
        params = DeformationParams.zero(p)
        params = DeformationParams(
            p, params.lam, params.kappaC, VGroupElement(GA.zero(p), GA.one(p))
        )
        witnesses = check_condition3(params)
        assert ((1, 1), [1, 0]) in witnesses


class TestConditions456:
    def test_6_zero_kappa_passes(self):
        assert check_condition6(DeformationParams.zero(3)) == []

    def test_6_candidates_pass_exhaustively_p3(self):
        for a, b in all_pairs(3):
            assert check_condition6(build_candidate(a, b)) == []

    def test_6_repeated_v1_arguments_vanish(self):
        # Triples containing v1 twice contribute nothing: g fixes v1.
        rng = random.Random(9)
        params = build_candidate(GA.random(rng, 3), GA.random(rng, 3))
        witnesses = check_condition6(params)
        assert all(w[0][1] not in {(1, 1, 2), (1, 2, 1), (2, 1, 1)} for w in witnesses)


class TestCheckAll:
    def test_closed_form_passes(self):
        rng = random.Random(11)
        for p in (3, 5):
            for _ in range(10):
                b = GA.random(rng, p)
                d = [rng.randrange(p) for _ in range(b.gminus1_factor().k)]
                report = check_all(closed_form(b, d, GA.random(rng, p)))
                assert report.pbw, report.to_json()

    def test_zero_params_pass(self):
        assert check_all(DeformationParams.zero(3)).pbw

    def test_bad_pair_fails_only_condition_2(self):
        report = check_all(build_candidate(ga(3, "g"), ga(3, "1-g")))
        assert report.passed == {1: True, 2: False, 3: True, 4: True, 5: True, 6: True}

    def test_pass_set_is_solution_set_p3(self):
        solutions = {
            (a.coeffs, rec.b.coeffs)
            for rec in enumerate_solutions(3)
            for _c, a in rec.solutions
        }
        for a, b in all_pairs(3):
            report = check_all(build_candidate(a, b))
            assert report.pbw == ((a.coeffs, b.coeffs) in solutions)
            assert report.passed[1] and report.passed[3] and report.passed[6]

    def test_report_json_shape(self):
        report = check_all(build_candidate(ga(3, "g"), ga(3, "1-g")))
        blob = report.to_json()
        assert blob["pbw"] is False
        assert blob["conditions"]["2"]["passed"] is False
        assert blob["conditions"]["2"]["witnesses"]
        assert "note" in blob["conditions"]["4"]


class TestCoboundaryInvariance:
    def test_condition2_outcome_invariant(self):
        rng = random.Random(13)
        for p in (3, 5):
            for _ in range(100):
                a, b = GA.random(rng, p), GA.random(rng, p)
                params = build_candidate(a, b)
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                shifted = add_coboundary(params, f)
                assert (check_condition2(params) == []) == (check_condition2(shifted) == [])

    def test_cocycle_conditions_preserved(self):
        rng = random.Random(17)
        for p in (3, 5):
            for _ in range(60):
                params = build_candidate(GA.random(rng, p), GA.random(rng, p))
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                shifted = add_coboundary(params, f)
                assert check_condition1(shifted) == []
                assert check_condition3(shifted) == []
                assert check_condition6(shifted) == []
