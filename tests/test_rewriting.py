"""The rewriting system: rules, normal forms, confluence, the two certificates."""

import hashlib
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbifold import rewriting
from orbifold.group_algebra import GroupAlgebraElement as GA, gminus1_power
from orbifold.params import (
    CoboundaryData,
    DeformationParams,
    add_coboundary,
    build_candidate,
    closed_form,
    implied_a,
)
from orbifold.pbw import check_all
from orbifold.rewriting import (
    _add_scaled,
    _terms,
    _witness,
    V1,
    V2,
    RuleSet,
    check_associativity,
    check_dimension,
    check_overlaps,
    irreducible_words,
    normal_words,
    overlap_forms,
    poly_to_text,
    rules_from_params,
    trace_reduction,
    word_degree,
    word_to_text,
)
from test_pbw import all_pairs, perturbed, tables


def ga(p, text):
    return GA.from_text(p, text)


def running_rules():
    return rules_from_params(build_candidate(ga(3, "-1+g+g^2"), ga(3, "1-g")))


def random_word(rng, p, max_len):
    letters = [V1, V2] + list(range(1, p))
    return tuple(rng.choice(letters) for _ in range(rng.randrange(max_len + 1)))


class TestRules:
    def test_zero_params_r1_is_a_plain_swap(self):
        rules = rules_from_params(DeformationParams.zero(3))
        assert rules.rhs(1, V1) == {(V1, 1): 1}

    def test_running_example_r3(self):
        # v2 v1 -> v1 v2 + v1 + v2*g since kappa^L = -v1 - v2 g and kappa^C = 0.
        rules = running_rules()
        assert rules.rhs(V2, V1) == {(V1, V2): 1, (V1,): 1, (V2, 1): 1}

    @settings(max_examples=40, deadline=None)
    @given(tables())
    @example(DeformationParams.zero(5))
    def test_r2_carries_the_transvection_correction(self, params):
        """R1 and R2 put their v-words at g^m with fixed coefficients, whatever
        lambda is, and lambda(g^m, v_x) is the rest: overlap_forms' rolled
        gathers rest on it."""
        rules = rules_from_params(params)
        for m in range(1, params.p):
            for x, v_part in ((V1, {(V1, m): 1}), (V2, {(V1, m): m, (V2, m): 1})):
                lam = params.lam[m, -1 - x].tolist()
                group_part = {((n,) if n else ()): c for n, c in enumerate(lam) if c}
                assert rules.rhs(m, x) == {**v_part, **group_part}

    def test_r4_group_law(self):
        rules = rules_from_params(DeformationParams.zero(5))
        assert rules.rhs(2, 3) == {(): 1}
        assert rules.rhs(4, 3) == {(2,): 1}

    @pytest.mark.parametrize("pair, text", [((V1, V2), "v1*v2"), ((V1, 1), "v1*g^1"), ((V2, V2), "v2*v2")])
    def test_rhs_refuses_a_pair_that_is_no_left_hand_side(self, pair, text):
        with pytest.raises(ValueError, match=rf"^{re.escape(text)} is not a left-hand side$"):
            rules_from_params(DeformationParams.zero(3)).rhs(*pair)

    @pytest.mark.parametrize("call, letter", [
        (lambda rules: rules.rhs(3, V1), 3),
        (lambda rules: rules.reduce_word((3, V1)), 3),
        (lambda rules: trace_reduction((5, V2), rules), 5),
        (lambda rules: rules.rhs(1, 7), 7),
        # Letters that no left-hand side reads: checked where the word enters.
        (lambda rules: rules.reduce_word((V1, 5)), 5),
        (lambda rules: rules.reduce_word((7,)), 7),
        (lambda rules: rules.reduce_word((V1, 0)), 0),
        (lambda rules: trace_reduction((V2, 9), rules), 9),
    ], ids=["rhs", "reduce_word", "trace_reduction", "rhs_r4",
            "reduce_word_last", "reduce_word_alone", "reduce_word_identity", "trace_reduction_last"])
    def test_a_group_letter_past_p_is_refused(self, call, letter):
        with pytest.raises(ValueError, match=rf"^group letter g\^{letter} is outside 1\.\.2$"):
            call(rules_from_params(DeformationParams.zero(3)))


class TestReduce:
    def test_single_r1_application(self):
        rules = running_rules()
        assert rules.reduce_word((1, V1)) == {(V1, 1): 1, (1,): 1, (2,): 2}

    @pytest.mark.parametrize("rightmost", [False, True], ids=["leftmost", "rightmost"])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_normal_word_is_fixed(self, p, rightmost):
        # Every irreducible word is its own normal form, PBW or not, so
        # the dimension rows count normal words without reducing them.
        pbw = closed_form(gminus1_power(p, 1), [1], GA.g(p))
        non_pbw = build_candidate(GA.one(p), gminus1_power(p, 1))
        for params, is_pbw in ((pbw, True), (non_pbw, False)):
            rules = rules_from_params(params)
            assert check_overlaps(rules)[0] is is_pbw
            for w in irreducible_words(rules, 4):
                assert rules.reduce_word(w, rightmost) == {w: 1}

    def test_degree3_confluence_on_solution(self):
        rules = running_rules()
        word = (1, V2, V1)
        assert rules.reduce_word(word) == rules.reduce_word(word, rightmost=True)

    def test_linear(self):
        rules = running_rules()
        rng = random.Random(3)
        for _ in range(40):
            w1, w2 = random_word(rng, 3, 6), random_word(rng, 3, 6)
            alpha, beta = rng.randrange(3), rng.randrange(3)
            combo = {}  # alpha*w1 + beta*w2, which adds up when w1 == w2
            _add_scaled(3, combo, {w1: 1}, alpha)
            _add_scaled(3, combo, {w2: 1}, beta)
            rhs = {}
            _add_scaled(3, rhs, rules.reduce_word(w1), alpha)
            _add_scaled(3, rhs, rules.reduce_word(w2), beta)
            assert rules.reduce_poly(combo) == rhs

    def test_terminates_on_random_words(self):
        # Termination shows up as plain completion: every reduced word is normal.
        rng = random.Random(5)
        rules = running_rules()
        normal = set(normal_words(3, 8))
        for _ in range(300):
            word = random_word(rng, 3, 8)
            out = rules.reduce_word(word)
            assert all(w in normal for w in out)

    def test_confluence_left_vs_right_all_short_words(self):
        rng = random.Random(7)
        b = GA.random(rng, 3)
        d = [rng.randrange(3) for _ in range(b.gminus1_factor().k)]
        rules = rules_from_params(closed_form(b, d, GA.random(rng, 3)))
        letters = [V1, V2, 1, 2]
        stack = [()]
        while stack:
            word = stack.pop()
            if len(word) == 4:
                continue
            for letter in letters:
                w = word + (letter,)
                assert rules.reduce_word(w) == rules.reduce_word(w, rightmost=True)
                stack.append(w)


class TestOracleMultiply:
    # The induced product of two normal words: the normal form of their concatenation.
    def test_v1_times_v2(self):
        assert running_rules().reduce_word((V1,) + (V2,)) == {(V1, V2): 1}

    def test_group_letters_multiply(self):
        assert running_rules().reduce_word((2,) + (2,)) == {(1,): 1}

    def test_v2_times_v1_is_r3(self):
        rules = running_rules()
        assert rules.reduce_word((V2,) + (V1,)) == rules.rhs(V2, V1)


class TestAssociativity:
    def test_zero_params_pass(self):
        ok, witness = check_associativity(rules_from_params(DeformationParams.zero(3)), 4)
        assert ok and witness is None

    def test_solution_passes_d4(self):
        ok, _ = check_associativity(running_rules(), 4)
        assert ok

    def test_nonsolution_fails_d3(self):
        rules = rules_from_params(build_candidate(ga(3, "g"), ga(3, "1-g")))
        ok, witness = check_associativity(rules, 3)
        assert not ok
        assert witness is not None

    def test_nonsolution_g_v2_v1_triple_is_defective(self):
        # The specific overlap behind the failing bracket condition.
        rules = rules_from_params(build_candidate(ga(3, "g"), ga(3, "1-g")))
        x, y, z = (1,), (V2,), (V1,)
        lhs = rules.reduce_poly(
            {w + z: c for w, c in rules.reduce_word(x + y).items()}
        )
        rhs = rules.reduce_poly(
            {x + w: c for w, c in rules.reduce_word(y + z).items()}
        )
        assert lhs != rhs

    def test_degree_bound_guard(self):
        with pytest.raises(ValueError):
            check_associativity(running_rules(), 2)


def rule_table(rules):
    """The rules as a {left side: right side} dict read off rules.rhs, in rule
    order: R1 and R2 by m, then R3, then R4 by (m, m').  The overlap sweeps
    below take their order from it."""
    group = range(1, rules.p)
    pairs = [(m, x) for m in group for x in (V1, V2)] + [(V2, V1)]
    return {pair: rules.rhs(*pair) for pair in pairs + list(itertools.product(group, group))}


def reference_check_overlaps(rules):
    """check_overlaps before it skipped the g^a*g^b*g^c overlaps: every
    overlap of the rule table, in table order."""
    table = rule_table(rules)
    followers: dict[int, list[int]] = {}
    for y, z in table:
        followers.setdefault(y, []).append(z)
    for (x, y), xy in table.items():
        for z in followers.get(y, ()):
            lhs = rules.reduce_poly({w + (z,): c for w, c in xy.items()})
            rhs = rules.reduce_poly({(x,) + w: c for w, c in table[(y, z)].items()})
            if lhs != rhs:
                return False, _witness(rules.p, (x,), (y,), (z,), lhs, rhs)
    return True, None


def reducer_overlaps(rules):
    """Every overlap check_overlaps resolves, in table order, with both normal
    forms from the word reducer: (overlap, lhs, rhs).  Each word met in these
    expansions has a single reducible pair, so the rightmost strategy must
    reach the same normal forms as the leftmost one."""
    table = rule_table(rules)
    followers: dict[int, list[int]] = {}
    for y, z in table:
        if z < 0:
            followers.setdefault(y, []).append(z)
    out = []
    for (x, y), xy in table.items():
        for z in followers.get(y, ()):
            sides = [
                [rules.reduce_poly(terms, rightmost) for rightmost in (False, True)]
                for terms in (
                    {w + (z,): c for w, c in xy.items()},
                    {(x,) + w: c for w, c in table[(y, z)].items()},
                )
            ]
            assert all(left == right for left, right in sides)
            out.append(((x, y, z), sides[0][0], sides[1][0]))
    return out


def assert_forms_equal_the_reducer(params):
    """overlap_forms against the reducer overlap by overlap: the order, both
    normal forms term for term, and the verdict array of each piece."""
    rules = rules_from_params(params)
    expected = reducer_overlaps(rules_from_params(params))
    pieces = list(overlap_forms(rules))
    assert len(pieces[0][0]) == params.p - 1  # the g^m*v2*v1 family comes first
    got = [(o, _terms(l), _terms(r)) for part, lhs, rhs in pieces for o, l, r in zip(part, lhs, rhs)]
    assert got == expected
    verdicts = np.concatenate([(lhs != rhs).any(axis=(1, 2)) for _, lhs, rhs in pieces])
    assert verdicts.tolist() == [lhs != rhs for _, lhs, rhs in expected]
    assert check_overlaps(rules) == reference_check_overlaps(rules_from_params(params))


class TestOverlaps:
    def test_solutions_resolve(self):
        assert check_overlaps(rules_from_params(DeformationParams.zero(3))) == (True, None)
        assert check_overlaps(running_rules()) == (True, None)

    def test_nonsolution_witness(self):
        rules = rules_from_params(build_candidate(ga(3, "g"), ga(3, "1-g")))
        ok, witness = check_overlaps(rules)
        assert not ok
        assert set(witness) == {"x", "y", "z", "lhs", "rhs"}
        assert witness["lhs"] != witness["rhs"]
        # The bracket overlap g*v2*v1, where condition 2 fails.
        assert (witness["x"], witness["y"], witness["z"]) == ("g^1", "v2", "v1")

    @pytest.mark.parametrize("m", [1, 2])
    def test_condition1_defect_fails_a_group_vector_overlap(self, m):
        # lambda(g^2, v_m) moved at g^(m+1) breaks condition 1 alone (b = 0 keeps
        # lambda(g^i, v1) and kappa^L_2 at zero), so the first overlap to fail
        # is a g^a*g^b*v_m word, one the candidate strategies never fail.
        p = 5
        base = DeformationParams.zero(p) if m == 1 else closed_form(GA.zero(p), [1, 2, 3, 4, 0])
        params = perturbed(base, 2, m, m + 1)
        assert [i for i, ok in check_all(params).passed.items() if not ok] == [1]
        ok, witness = check_overlaps(rules_from_params(params))
        assert not ok and (witness["x"], witness["y"], witness["z"]) == ("g^1", "g^1", f"v{m}")
        assert (ok, witness) == reference_check_overlaps(rules_from_params(params))
        assert_forms_equal_the_reducer(params)

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("per_block", [1, 2])
    def test_blocks_of_a_equal_the_reducer(self, monkeypatch, p, per_block):
        """Blocks of a split only from p = 47 on; shrink them so that p = 5 and 7
        run per_block values of a per piece."""
        monkeypatch.setattr(rewriting, "_BLOCK_ENTRIES", per_block * 6 * p * p)
        f = CoboundaryData(GA.g(p, 2), GA.one(p))
        pbw = add_coboundary(closed_form(gminus1_power(p, 1), [1], GA.g(p)), f)
        for params in (pbw, perturbed(pbw, 2, 2, 3)):
            rules = rules_from_params(params)
            assert check_overlaps(rules)[0] is (params is pbw)
            assert len(list(overlap_forms(rules))) == 1 + -(-(p - 1) // per_block)
            assert_forms_equal_the_reducer(params)

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_dense_forms_equal_the_reducer_for_any_tables(self, params):
        assert_forms_equal_the_reducer(params)

    def test_dense_forms_equal_the_reducer_on_candidates_exhaustively_p3(self):
        for a, b in all_pairs(3):
            assert_forms_equal_the_reducer(build_candidate(a, b))

    @settings(max_examples=30, deadline=None)
    @given(tables())
    def test_group_overlaps_resolve_for_any_tables(self, params):
        """The g^a*g^b*g^c overlaps that check_overlaps skips resolve whatever
        lambda and kappa are: both sides are g^(a+b+c)."""
        rules = rules_from_params(params)
        p = params.p
        for a, b, c in itertools.product(range(1, p), repeat=3):
            s = (a + b + c) % p
            expected = {((s,) if s else ()): 1}
            lhs = rules.reduce_poly({w + (c,): k for w, k in rules.rhs(a, b).items()})
            rhs = rules.reduce_poly({(a,) + w: k for w, k in rules.rhs(b, c).items()})
            assert lhs == rhs == expected


def elements(p):
    return st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(
        lambda coeffs: GA.from_coeffs(p, coeffs)
    )


@st.composite
def class_and_b(draw, p):
    """(k, b) with b of (g-1)-adic class k, every class 0..p equally likely."""
    k = draw(st.integers(0, p))
    unit = GA.one(p) + gminus1_power(p, 1) * draw(elements(p))
    return k, gminus1_power(p, k) * unit


@st.composite
def solved_with_coboundary(draw, p):
    k, b = draw(class_and_b(p))
    d = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    params = closed_form(b, d, draw(elements(p)))
    return add_coboundary(params, CoboundaryData(draw(elements(p)), draw(elements(p))))


@st.composite
def near_miss(draw, p):
    """A solution's candidate with one coefficient of a moved: mostly not PBW."""
    k, b = draw(class_and_b(p))
    d = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    coeffs = list(implied_a(b, d).coeffs)
    coeffs[draw(st.integers(0, p - 1))] += draw(st.integers(1, p - 1))
    return build_candidate(GA.from_coeffs(p, coeffs), b).with_kappaC(draw(elements(p)))


def assert_certificates_agree(params):
    assert_forms_equal_the_reducer(params)
    rules = rules_from_params(params)
    assert check_overlaps(rules)[0] == check_all(params).pbw == check_associativity(rules, 4)[0]


class TestCertificatesAgree:
    """The overlap certificate against the full overlap sweep, the six
    conditions and the degree-4 sweep."""

    @settings(max_examples=60, deadline=None)
    @given(elements(3), elements(3), elements(3))
    def test_random_candidates_p3(self, a, b, kappaC):
        assert_certificates_agree(build_candidate(a, b).with_kappaC(kappaC))

    @settings(max_examples=8, deadline=None)
    @given(elements(7), elements(7), elements(7))
    def test_random_candidates_p7(self, a, b, kappaC):
        assert_certificates_agree(build_candidate(a, b).with_kappaC(kappaC))

    @settings(max_examples=6, deadline=None)
    @given(solved_with_coboundary(5))
    def test_closed_form_with_coboundary_p5(self, params):
        assert check_overlaps(rules_from_params(params)) == (True, None)
        assert_certificates_agree(params)

    @settings(max_examples=25, deadline=None)
    @given(near_miss(5))
    def test_near_misses_p5(self, params):
        assert_certificates_agree(params)


def failing_families(params):
    """The overlaps whose dense normal forms differ, by family and in table
    order: (a, b, m) for each g^a*g^b*v_m, and m for each g^m*v2*v1."""
    (bracket, lhs, rhs), *rest = overlap_forms(rules_from_params(params))
    family2 = [m for (m, _, _), bad in zip(bracket, (lhs != rhs).any(axis=(1, 2))) if bad]
    family1 = [
        (a, b, -x)
        for part, lhs, rhs in rest
        for (a, b, x), bad in zip(part, (lhs != rhs).any(axis=(1, 2)))
        if bad
    ]
    return family1, family2


def assert_families_match_conditions(params):
    """A g^a*g^b*v_m overlap fails exactly at a witness (a, b, m) of condition 1,
    in the same order; once condition 1 holds, a g^m*v2*v1 overlap fails
    exactly where condition 2 or 3 has a witness at g^m."""
    family1, family2 = failing_families(params)
    report = check_all(params)
    assert family1 == [index for index, _ in report.witnesses[1]]
    if report.passed[1]:
        at = {i for i, _ in report.witnesses[2]} | {i for (i, _), _ in report.witnesses[3]}
        assert family2 == sorted(at)


@st.composite
def moved_closed_form(draw):
    """A closed form at p = 3, 5 or 7 with one lambda coefficient moved."""
    p = draw(st.sampled_from([3, 5, 7]))
    k, b = draw(class_and_b(p))
    d = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    params = closed_form(b, d, draw(elements(p)))
    i, n = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
    return perturbed(params, i, draw(st.sampled_from([1, 2])), n)


random_candidates = st.sampled_from([3, 5, 7]).flatmap(
    lambda p: st.builds(build_candidate, elements(p), elements(p)))


class TestFamiliesMatchConditions:
    """Which overlap family fails, and where, names the failing condition."""

    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_arbitrary_tables(self, params):
        assert_families_match_conditions(params)

    @settings(max_examples=100, deadline=None)
    @given(random_candidates)
    def test_random_candidates(self, params):
        assert_families_match_conditions(params)

    @settings(max_examples=100, deadline=None)
    @given(moved_closed_form())
    def test_closed_forms_with_one_coefficient_moved(self, params):
        assert_families_match_conditions(params)


P3_DIMENSION_ROWS = [(0, 3, 3), (1, 9, 9), (2, 18, 18), (3, 30, 30), (4, 45, 45)]


class TestDimension:
    def test_counts_p3(self):
        ok, rows = check_dimension(running_rules(), 4)
        assert ok
        assert [(r["degree"], r["count"], r["expected"]) for r in rows] == P3_DIMENSION_ROWS

    def test_counts_without_reducing(self, monkeypatch):
        def refuse(self, word, rightmost=False):
            raise AssertionError(f"check_dimension reduced {word}")

        rules = running_rules()
        monkeypatch.setattr(RuleSet, "reduce_word", refuse)
        ok, rows = check_dimension(rules, 4)
        assert ok
        assert [(r["degree"], r["count"], r["expected"]) for r in rows] == P3_DIMENSION_ROWS

    def test_counts_p5_low_degree(self):
        rules = rules_from_params(DeformationParams.zero(5))
        ok, rows = check_dimension(rules, 2)
        assert ok
        assert [r["count"] for r in rows] == [5, 15, 30]

    @pytest.mark.parametrize("p, degree", [(3, 8), (5, 8), (7, 8), (11, 8), (13, 8), (31, 16), (97, 16)])
    def test_counts_equal_the_listed_words(self, p, degree):
        rules = rules_from_params(DeformationParams.zero(p))
        listed = [0] * (degree + 1)
        for w in irreducible_words(rules, degree):
            listed[word_degree(w)] += 1
        bounds = range(degree + 1) if degree <= 8 else [degree]
        for bound in bounds:
            rows = check_dimension(rules, bound)[1]
            assert [r["count"] for r in rows] == list(itertools.accumulate(listed[: bound + 1]))

    def test_negative_bound_raises_value_error(self):
        with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
            check_dimension(running_rules(), -1)

    def test_zero_bound_is_one_row(self):
        ok, rows = check_dimension(running_rules(), 0)
        assert ok and [(r["degree"], r["count"]) for r in rows] == [(0, 3)]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 97])
    def test_irreducible_words_are_the_normal_words(self, p):
        """The lemma behind the rows: the irreducible words are v1^i*v2^j*g^m."""
        rules = rules_from_params(DeformationParams.zero(p))
        assert set(irreducible_words(rules, 6)) == set(normal_words(p, 6))

    def test_irreducible_words_refuse_a_negative_bound(self):
        with pytest.raises(ValueError, match="^degree bound must be >= 0, got -1$"):
            irreducible_words(running_rules(), -1)


class TestCrossOracleP5:
    def test_sampled_solutions_pass(self):
        rng = random.Random(55)
        for _ in range(5):
            b = GA.random(rng, 5)
            d = [rng.randrange(5) for _ in range(b.gminus1_factor().k)]
            params = closed_form(b, d, GA.random(rng, 5))
            from orbifold.pbw import check_all

            assert check_all(params).pbw
            ok, witness = check_associativity(rules_from_params(params), 4)
            assert ok, witness

    def test_sampled_nonsolutions_fail(self):
        from orbifold.pbw import check_all
        from orbifold.solver import system_residual

        rng = random.Random(56)
        found = 0
        while found < 5:
            a, b = GA.random(rng, 5), GA.random(rng, 5)
            if system_residual(a, b).is_zero():
                continue
            params = build_candidate(a, b)
            assert not check_all(params).pbw
            ok, witness = check_associativity(rules_from_params(params), 4)
            assert not ok and witness is not None
            found += 1


def test_trace_reduction_is_line_oriented():
    rules = running_rules()
    lines = trace_reduction((1, V2, V1), rules)
    assert lines
    assert lines[0].startswith("g^1*v2*v1 --R2-->")
    assert all("-->" in line for line in lines)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_is_lhs_is_the_four_rule_families(p):
    """Every pair of letters: a left-hand side exactly when it is in one of
    R1 (g^m*v1), R2 (g^m*v2), R3 (v2*v1) or R4 (g^m*g^m'), named by rule_id."""
    group = range(1, p)
    families = {(m, V1): "R1" for m in group}
    families.update({(m, V2): "R2" for m in group})
    families[(V2, V1)] = "R3"
    families.update({(m, n): "R4" for m in group for n in group})
    rules = rules_from_params(DeformationParams.zero(p))
    letters = [V1, V2, *group]
    for x, y in itertools.product(letters, repeat=2):
        assert rewriting.is_lhs(x, y) is ((x, y) in families)
    assert {pair: rules.rule_id(pair) for pair in families} == families


def test_certificate_builds_no_rule_dicts(monkeypatch):
    """rules_from_params, check_overlaps and check_dimension read the rule
    arrays alone: no {word: coeff} dict is made on a PBW file, and a failing
    one makes the two of its witness sides."""
    calls = []
    terms = rewriting._terms
    monkeypatch.setattr(rewriting, "_terms", lambda form: calls.append(1) or terms(form))
    f = CoboundaryData(GA.g(5, 2), GA.one(5))
    pbw = add_coboundary(closed_form(gminus1_power(5, 1), [1], GA.g(5)), f)
    for params, ok, made in ((pbw, True, 0), (perturbed(pbw, 2, 2, 3), False, 2)):
        calls.clear()
        rules = rules_from_params(params)
        assert check_overlaps(rules)[0] is ok and check_dimension(rules, 4)[0]
        assert len(calls) == made


# sha256 over the trace_reduction lines of every overlap word x*y*z, (x, y)
# and (y, z) both left-hand sides, by letters v1, v2, g^1, ..., g^4, of a
# non-PBW candidate and of a PBW closed form with a coboundary at p = 5.
TRACE_SHA256 = "6aa3066b48b7ddc42373295ef9b2a639f22eac146563b5aa60c8d6131eacead5"


def test_trace_reduction_lines_are_pinned():
    p = 5
    f = CoboundaryData(GA.g(p, 2), GA.one(p))
    pbw = add_coboundary(closed_form(gminus1_power(p, 1), [1], GA.g(p)), f)
    letters = [V1, V2, *range(1, p)]
    digest, words = hashlib.sha256(), 0
    for params in (build_candidate(GA.one(p), gminus1_power(p, 1)), pbw):
        rules = rules_from_params(params)
        for x, y, z in itertools.product(letters, repeat=3):
            if rewriting.is_lhs(x, y) and rewriting.is_lhs(y, z):
                words += 1
                digest.update("".join(f"{line}\n" for line in trace_reduction((x, y, z), rules)).encode())
    assert words == 2 * ((p - 1) ** 3 + 2 * (p - 1) ** 2 + (p - 1))
    assert digest.hexdigest() == TRACE_SHA256


def test_word_rendering():
    assert word_to_text(()) == "1"
    assert word_to_text((V1, V2, 2)) == "v1*v2*g^2"


def reference_poly_text(p, terms):
    """The text of a term dict as the NCPolynomial class rendered it before
    plain {word: coeff} dicts replaced it: the reference for poly_to_text."""
    terms = {w: c % p for w, c in terms.items() if c % p}
    if not terms:
        return "0"
    return " + ".join(
        (f"{c}*" if c != 1 else "") + word_to_text(w)
        for w, c in sorted(terms.items(), key=lambda wc: (word_degree(wc[0]), len(wc[0]), wc[0]))
    )


def test_poly_text_literal():
    terms = {(V2, 1): 1, (): 4, (V1,): -1, (1,): 3}
    assert poly_to_text(3, terms) == "1 + 2*v1 + v2*g^1"
    assert poly_to_text(3, {}) == poly_to_text(3, {(V1,): 3}) == "0"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_poly_text_equals_the_reference(p):
    # Random term dicts in random (unsorted) word order, with coefficients
    # 0, 1 and p - 1, negative ones and ones past p; the empty dict included.
    rng = random.Random(p)
    coeffs = [0, 1, p - 1, -1, -(p - 1), -p, p + 1]
    for n in range(300):
        words = [random_word(rng, p, 5) for _ in range(n % 7)]
        terms = {w: rng.choice(coeffs + [rng.randrange(-3 * p, 3 * p)]) for w in words}
        assert poly_to_text(p, terms) == reference_poly_text(p, terms)
