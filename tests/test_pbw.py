"""The six lifting conditions, their residuals, and invariance properties."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbifold.action import Vector, act, sym_mul, v1, v2
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


# -- element views -------------------------------------------------------------
# The references below compute on F_pG elements.  These helpers wrap the rows
# of the integer tables in GroupAlgebraElement, and build tables from elements.


def elements(params):
    """(lam, kappaC, kappaL) as elements: lam[i][m - 1] is lambda(g^i, v_m)
    and kappaL[m - 1] the v_m row of kappa^L."""
    p = params.p

    def row(coeffs):
        return GA.from_coeffs(p, coeffs.tolist())

    lam = [[row(r) for r in rows] for rows in params.lam]
    return lam, row(params.kappaC), [row(r) for r in params.kappaL]


def from_elements(p, lam, kappaC, kappaL):
    """The parameter set whose tables hold these elements, laid out as
    elements() returns them."""
    return DeformationParams(
        p, [[x.coeffs for x in row] for row in lam], kappaC.coeffs, [x.coeffs for x in kappaL]
    )


# -- reference ---------------------------------------------------------------
# Conditions 1 and 2 as loops over F_pG elements, as pbw.py computed them
# before it decided them as array identities over the lambda table; kept as
# a cross-check of the witness lists, order and values included.


def reference_condition1(params):
    p = params.p
    lam = elements(params)[0]
    bad = []
    for i in range(p):
        for j in range(p):
            for m in (1, 2):
                # g^j fixes v1 and sends v2 to j*v1 + v2.
                if m == 1:
                    twisted = lam[i][0]
                else:
                    twisted = lam[i][0].scale(j) + lam[i][1]
                residual = (
                    lam[(i + j) % p][m - 1]
                    - twisted.shift(j)
                    - lam[j][m - 1].shift(i)
                )
                if not residual.is_zero():
                    bad.append(((i, j, m), list(residual.coeffs)))
    return bad


def reference_condition2_ring(params):
    lam, _, (kappa1, kappa2) = elements(params)
    bad = []
    for i, (lam1, lam2) in enumerate(lam):
        residual = (
            params.lam_ga(lam2, 1) - params.lam_ga(lam1, 2) + lam1 * kappa1 + lam2 * kappa2
        )
        if not residual.is_zero():
            bad.append((i, list(residual.coeffs)))
    return bad


# Conditions 2, 3 and 6 evaluated through the action on V, as pbw.py did
# before it wrote the transvection into the formulas; kept as a cross-check.


def wedge_coeff(u, w):
    """The coefficient of (v1, v2) in the antisymmetric extension at (u, w)."""
    return (u.x1 * w.x2 - u.x2 * w.x1) % u.p


def kappa_column(kappaL, m):
    """The V-part of the g^m component of kappa^L(v1, v2), from its rows."""
    return Vector(kappaL[0].p, kappaL[0].coeffs[m], kappaL[1].coeffs[m])


def reference_condition2(params):
    p = params.p
    lam, kappaC, kappaL = elements(params)
    bad = []
    e1, e2 = v1(p), v2(p)
    for i in range(p):
        rhs = params.lam_ga(lam[i][1], 1) - params.lam_ga(lam[i][0], 2)
        for m in range(p):
            col = kappa_column(kappaL, m)
            if not col.is_zero():
                rhs = rhs + params.lam_v(i, col.x1, col.x2).shift(m)
        det = wedge_coeff(act(i, e1), act(i, e2))
        lhs = kappaC.scale(det).shift(i) - kappaC.shift(i)
        residual = rhs - lhs
        if not residual.is_zero():
            bad.append((i, list(residual.coeffs)))
    return bad


def reference_condition3(params):
    p = params.p
    lam, _, kappaL = elements(params)
    bad = []
    e1, e2 = v1(p), v2(p)
    for i in range(p):
        gu, gv = act(i, e1), act(i, e2)
        for n in range(p):
            col = kappa_column(kappaL, (n - i) % p)
            lhs = act(i, col) - col.scale(wedge_coeff(gu, gv))
            rhs = (act(n, e2) - gv).scale(lam[i][0].coeffs[n]) - (
                act(n, e1) - gu
            ).scale(lam[i][1].coeffs[n])
            residual = lhs - rhs
            if not residual.is_zero():
                bad.append(((i, n), [residual.x1, residual.x2]))
    return bad


def reference_condition6(params):
    p = params.p
    kappaL = elements(params)[2]
    bad = []
    basis = {1: v1(p), 2: v2(p)}
    for i in range(p):
        col = kappa_column(kappaL, i)
        for mu in (1, 2):
            for mv in (1, 2):
                for mw in (1, 2):
                    u, v, w = basis[mu], basis[mv], basis[mw]
                    total = sym_mul(col.scale(wedge_coeff(u, v)), w - act(i, w))
                    total = total + sym_mul(col.scale(wedge_coeff(v, w)), u - act(i, u))
                    total = total + sym_mul(col.scale(wedge_coeff(w, u)), v - act(i, v))
                    if not total.is_zero():
                        bad.append((
                            (i, (mu, mv, mw)),
                            [total.q11.coeffs[0], total.q12.coeffs[0], total.q22.coeffs[0]],
                        ))
    return bad


@st.composite
def tables(draw):
    """Arbitrary tables (lambda, kappa^C, kappa^L) at p = 3, 5 or 7, about half
    of their coefficients zero so that some conditions hold at some g^i."""
    p = draw(st.sampled_from([3, 5, 7]))
    coeff = st.just(0) | st.integers(0, p - 1)
    row = st.lists(coeff, min_size=p, max_size=p)
    lam = [[[0] * p] * 2] + [[draw(row), draw(row)] for _ in range(p - 1)]
    return DeformationParams(p, lam, draw(row), [draw(row), draw(row)])


def plain_ints(x):
    """True when every number in x, through nested lists and tuples, is an int
    (not a numpy integer, which prints as np.int64(3) and is not JSON)."""
    if isinstance(x, (list, tuple)):
        return all(plain_ints(y) for y in x)
    return type(x) is int


def assert_loop_references_agree(params):
    for check, reference in (
        (check_condition1, reference_condition1),
        (check_condition2, reference_condition2_ring),
    ):
        witnesses = check(params)
        assert witnesses == reference(params)
        assert plain_ints(witnesses)


def perturbed(params, i, m, n):
    """params with the coefficient of g^n in lambda(g^i, v_m) moved by 1."""
    obj = params.to_json()
    obj["lambda"][i][m - 1][n] += 1
    return DeformationParams.from_json(obj)


class TestReference:
    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_array_identities_equal_the_loops_on_arbitrary_tables(self, params):
        assert_loop_references_agree(params)

    def test_array_identities_equal_the_loops_on_candidates_exhaustively_p3(self):
        for a, b in all_pairs(3):
            assert_loop_references_agree(build_candidate(a, b))

    @pytest.mark.parametrize("p", [31, 97])
    def test_array_identities_equal_the_loops_at_large_p(self, p):
        rng = random.Random(p)
        b = GA.random(rng, p)
        d = [rng.randrange(p) for _ in range(b.gminus1_factor().k)]
        params = closed_form(b, d, GA.random(rng, p))
        assert_loop_references_agree(params)
        broken = perturbed(params, 5, 2, 7)
        assert check_condition1(broken) and check_condition2(broken)
        assert_loop_references_agree(broken)

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_conditions_equal_the_reference_on_arbitrary_tables(self, params):
        assert check_condition2(params) == reference_condition2(params)
        assert check_condition3(params) == reference_condition3(params)
        assert check_condition6(params) == reference_condition6(params) == []

    def test_conditions_equal_the_reference_on_shifted_candidates(self):
        rng = random.Random(19)
        for p in (3, 5, 7):
            for _ in range(20):
                params = build_candidate(GA.random(rng, p), GA.random(rng, p))
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                params = add_coboundary(params, f).with_kappaC(GA.random(rng, p))
                assert check_condition2(params) == reference_condition2(params)
                assert check_condition3(params) == reference_condition3(params) == []


class TestCondition1:
    def test_zero_params_pass(self):
        assert check_condition1(DeformationParams.zero(3)) == []

    def test_candidates_pass_exhaustively_p3(self):
        for a, b in all_pairs(3):
            assert check_condition1(build_candidate(a, b)) == []

    def test_single_entry_fails_at_g_g(self):
        p = 3
        lam = np.zeros((p, 2, p), dtype=int)
        lam[1, 0, 0] = 1  # lambda(g, v1) = 1
        params = DeformationParams(p, lam, np.zeros(p), np.zeros((2, p)))
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
        params = DeformationParams(p, params.lam, params.kappaC, [[0] * p, GA.one(p).coeffs])
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

    def test_notes_are_read_only(self):
        # Every report shares one notes mapping, so no report may write to it.
        report = check_all(DeformationParams.zero(3))
        with pytest.raises(TypeError):
            report.notes[6] = "changed"
        assert set(report.notes) == {4, 5}


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
