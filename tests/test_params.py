"""Construction of deformation parameter tables and their invariants."""

import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbifold.chains import distinguished_cocycle, rep_to_params, transfer_cochain
from orbifold.group_algebra import GroupAlgebraElement as GA, binom_mod, gminus1_power, scalar_inv
from orbifold.params import (
    CoboundaryData,
    DeformationParams,
    add_coboundary,
    build_candidate,
    closed_form,
    coboundary,
    implied_a,
    params_to_ab,
)
from orbifold.solver import a_from_c, c_from_ab, span, system_residual
from test_chains import reference_coboundary
from test_pbw import elements, from_elements


def ga(p, text):
    return GA.from_text(p, text)


def mu(p, d, j):
    """The alternating binomial functional of the free coordinates d at index j,
    as the paper writes it:

    mu(d, j) = (-1)^(p-j) * sum_{m=1..k} (-1)^(m+1) C(p-m, p-j) d_m.
    """
    total = sum(
        (-1) ** (m + 1) * binom_mod(p - m, p - j, p) * dm
        for m, dm in enumerate(d, start=1)
    )
    return ((-1) ** (p - j) * total) % p


def reference_implied_a(b, d):
    """The a paired with (b, d) as the paper writes it: a_0 is the alternating
    d-sum and a_j = j^(p-2) * (mu(d, j) + C(j+1, 2) b_j) for j >= 1."""
    p = b.p
    coeffs = [sum((-1) ** (m + 1) * dm for m, dm in enumerate(d, start=1))]
    coeffs += [scalar_inv(j, p) * (mu(p, d, j) + binom_mod(j + 1, 2, p) * b.coeffs[j])
               for j in range(1, p)]
    return GA.from_coeffs(p, coeffs)


def reference_closed_form(b, d, kappaC):
    """The closed form written out term by term, as closed_form's docstring states it:

    lambda(g^i, v1) = i b g^i
    lambda(g^i, v2) = sum_j (C(i,2) + i j^(p-2) C(j+1,2)) b_j g^(i+j)
                      + i sum_j j^(p-2) mu(d, j) g^(i+j)
    kappa(v1, v2)   = (d_1 - d_2 + ... +- d_k) v1 + sum_j j b_j v2 g^j + kappa^C
    """
    p = b.p
    d = [x % p for x in d]
    mu_part = GA.from_coeffs(p, tuple(scalar_inv(j, p) * mu(p, d, j) for j in range(p)))
    lam = []
    for i in range(p):
        row_v2 = GA.from_coeffs(
            p,
            tuple(
                (binom_mod(i, 2, p) + i * scalar_inv(j, p) * binom_mod(j + 1, 2, p)) * bj
                for j, bj in enumerate(b.coeffs)
            ),
        ).shift(i) + mu_part.scale(i).shift(i)
        lam.append((b.scale(i).shift(i), row_v2))
    alt = sum((-1) ** (m + 1) * dm for m, dm in enumerate(d, start=1)) % p
    kappaL = (
        GA.monomial(p, 0, alt),
        GA.from_coeffs(p, tuple(j * bj for j, bj in enumerate(b.coeffs))),
    )
    return from_elements(p, lam, kappaC, kappaL)


# The families as loops over F_pG elements with scale and shift, written from
# the formulas in the docstrings of build_candidate, distinguished_cocycle and
# transfer_cochain; the code builds them as array formulas.


def reference_candidate(a, b):
    """lambda(g^i, v1) = i * b * g^i
    lambda(g^i, v2) = C(i,2) * b * g^i + i * (sum_{j>=1} a_j g^j) * g^i
    kappa^L(v1,v2)  = a_0 v1 + sum_j j * b_j * v2 g^j
    """
    p = a.p
    a_tail = GA.from_coeffs(p, (0,) + a.coeffs[1:])
    lam = [
        (b.scale(i).shift(i), b.scale(binom_mod(i, 2, p)).shift(i) + a_tail.scale(i).shift(i))
        for i in range(p)
    ]
    kappaL = (
        GA.monomial(p, 0, a.coeffs[0]),
        GA.from_coeffs(p, tuple(j * bj for j, bj in enumerate(b.coeffs))),
    )
    return from_elements(p, lam, GA.zero(p), kappaL)


def reference_rep(a, b):
    """The distinguished cocycle of (a, b), lambda'(v1) = sum_l b_l g^(l+1),
    lambda'(v2) = sum_(l>=1) a_l g^(l+1) and a_0 v1 + sum_l l b_l v2 g^l on
    the wedge, pulled back: lambda(g^i, v) = sum_(l=0)^(i-1) lambda'(g^l . v) g^(i-1)."""
    p = a.p
    lp1 = b.shift(1)
    lp2 = GA.from_coeffs(p, (0,) + a.coeffs[1:]).shift(1)
    lam = []
    for i in range(p):
        val1 = val2 = GA.zero(p)
        for l in range(i):
            # g^l fixes v1 and sends v2 to l*v1 + v2.
            val1 = val1 + lp1
            val2 = val2 + lp1.scale(l) + lp2
        lam.append((val1.shift(i - 1), val2.shift(i - 1)))
    kappaL = (
        GA.monomial(p, 0, a.coeffs[0]),
        GA.from_coeffs(p, tuple(l * bl for l, bl in enumerate(b.coeffs))),
    )
    return from_elements(p, lam, GA.zero(p), kappaL)


@st.composite
def family_inputs(draw):
    """(a, b, f) at p = 3, 5 or 7: two elements and a linear map V -> F_pG."""
    p = draw(st.sampled_from([3, 5, 7]))
    element = st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(
        lambda c: GA.from_coeffs(p, c))
    return draw(element), draw(element), CoboundaryData(draw(element), draw(element))


@settings(max_examples=100, deadline=None)
@given(family_inputs())
def test_families_equal_their_element_loops(inputs):
    a, b, f = inputs
    p = a.p
    assert build_candidate(a, b) == reference_candidate(a, b)
    table, wedge = reference_coboundary(f)
    assert coboundary(f) == from_elements(p, table, GA.zero(p), wedge)
    assert rep_to_params(a, b) == reference_rep(a, b)


def running_example():
    """p = 3, b = 1 - g, a = -1 + g + g^2: the worked solution."""
    return ga(3, "-1+g+g^2"), ga(3, "1-g")


@pytest.mark.parametrize("call", [
    lambda x, y: x + y,
    system_residual,
    c_from_ab,
    a_from_c,
    build_candidate,
    CoboundaryData,
    lambda x, y: transfer_cochain((x, x), np.zeros((2, y.p))),
    distinguished_cocycle,
    rep_to_params,
    lambda x, y: DeformationParams.zero(x.p) + DeformationParams.zero(y.p),
    lambda x, y: DeformationParams.zero(x.p).with_kappaC(y),
    lambda x, y: closed_form(x, [], kappaC=y),
    lambda x, y: span(x.p, [x, y]),
], ids=["ring", "system_residual", "c_from_ab", "a_from_c", "build_candidate",
        "CoboundaryData", "transfer_cochain", "distinguished_cocycle", "rep_to_params", "params_add", "with_kappaC",
        "closed_form", "span"])
def test_every_prime_check_names_the_primes(call):
    # One helper, group_algebra.same_prime, makes every one of these checks.
    with pytest.raises(ValueError, match=r"^mismatched primes: \[3, 5\]$"):
        call(GA.one(3), GA.one(5))


class TestBuildCandidate:
    def test_running_example_tables(self):
        a, b = running_example()
        lam, kappaC, kappaL = elements(build_candidate(a, b))
        assert lam[1][0] == ga(3, "g-g^2")
        assert lam[1][1] == ga(3, "g^2+1")
        assert kappaL == [ga(3, "-1"), ga(3, "-g")]
        assert kappaC.is_zero()

    def test_zero_pair_gives_zero_tables(self):
        z = GA.zero(3)
        assert build_candidate(z, z) == DeformationParams.zero(3)

    def test_identity_row_always_vanishes(self):
        rng = random.Random(3)
        for p in (3, 5):
            for _ in range(20):
                params = build_candidate(GA.random(rng, p), GA.random(rng, p))
                assert not params.lam[0].any()

    def test_a0_enters_only_kappa(self):
        p = 3
        a_with, a_without = ga(p, "1+g"), ga(p, "g")
        b = ga(p, "1-g")
        with_a0 = build_candidate(a_with, b)
        without_a0 = build_candidate(a_without, b)
        assert np.array_equal(with_a0.lam, without_a0.lam)
        assert elements(with_a0)[2][0] == GA.one(p)
        assert elements(without_a0)[2][0] == GA.zero(p)

    def test_injective_on_pairs_p3(self):
        # The candidate family has exactly p^(2p) distinct points.  The
        # tables are arrays, so the key is their JSON text.
        seen = set()
        for a in GA.all_elements(3):
            for b in GA.all_elements(3):
                params = build_candidate(a, b)
                key = json.dumps(params.to_json())
                assert key not in seen
                seen.add(key)
        assert len(seen) == 3**6


class TestAddCoboundary:
    def test_zero_map_is_identity(self):
        a, b = running_example()
        params = build_candidate(a, b)
        assert add_coboundary(params, CoboundaryData(GA.zero(3), GA.zero(3))) == params

    def test_displayed_increments(self):
        # f(v1) = g shifts lambda(g, v2) by -g^2 and kappa^L by v1 g.
        p = 3
        base = DeformationParams.zero(p)
        shifted = add_coboundary(base, CoboundaryData(ga(p, "g"), GA.zero(p)))
        lam, _, kappaL = elements(shifted)
        assert lam[1][0].is_zero()
        assert lam[1][1] == ga(p, "-g^2")
        assert kappaL == [ga(p, "g"), GA.zero(p)]

    def test_f_v2_is_irrelevant(self):
        a, b = running_example()
        params = build_candidate(a, b)
        rng = random.Random(5)
        for _ in range(20):
            f2 = GA.random(rng, 3)
            assert add_coboundary(params, CoboundaryData(GA.zero(3), f2)) == params

    def test_mismatched_primes_raise_value_error(self):
        with pytest.raises(ValueError, match="mismatched primes"):
            CoboundaryData(GA.zero(3), GA.zero(5))

    def test_kappa_c_unchanged(self):
        p = 3
        params = DeformationParams.zero(p).with_kappaC(ga(p, "1+g"))
        shifted = add_coboundary(params, CoboundaryData(ga(p, "1+g^2"), GA.zero(p)))
        assert elements(shifted)[1] == ga(p, "1+g")


class TestMu:
    """The reference mu that reference_closed_form and reference_implied_a read."""

    def test_empty_d_vanishes(self):
        for j in range(5):
            assert mu(5, [], j) == 0

    def test_p3_single_d_at_j1(self):
        assert mu(3, [2], 1) == 2

    def test_p3_single_d_at_j0(self):
        assert mu(3, [2], 0) == 0

    def test_matches_direct_formula_p5(self):
        # Independent evaluation of the alternating binomial sum, and the
        # coefficient closed_form's docstring names: mu(d, j) is that of
        # g^(p-j) in the kernel element with coordinates d.
        from math import comb

        p = 5
        rng = random.Random(7)
        for _ in range(50):
            k = rng.randrange(p + 1)
            d = [rng.randrange(p) for _ in range(k)]
            c = sum((gminus1_power(p, p - m).scale(dm) for m, dm in enumerate(d, 1)), GA.zero(p))
            for j in range(p):
                direct = (-1) ** (p - j) * sum(
                    (-1) ** (m + 1) * comb(p - m, p - j) * d[m - 1]
                    for m in range(1, k + 1)
                    if p - j <= p - m
                )
                assert mu(p, d, j) == direct % p
                assert j == 0 or mu(p, d, j) == c.coeffs[p - j]


class TestClosedForm:
    def test_unit_b_implies_a_is_b1_g(self):
        p = 3
        for b in GA.all_elements(p):
            if b.augmentation() == 0:
                continue
            assert implied_a(b, []) == GA.monomial(p, 1, b.coeffs[1])
            params = closed_form(b, [])
            assert params_to_ab(params) == (GA.monomial(p, 1, b.coeffs[1]), b)

    def test_running_example_from_d(self):
        a, b = running_example()
        assert implied_a(b, [-1]) == a
        assert closed_form(b, [-1]) == build_candidate(a, b)

    def test_b_zero_all_d(self):
        p = 3
        z = GA.zero(p)
        for d in itertools.product(range(p), repeat=p):
            params = closed_form(z, list(d))
            assert not params.kappaL[1].any()
            assert not params.lam[:, 0].any()

    def test_equals_candidate_plus_kappa_c(self):
        rng = random.Random(11)
        for p in (3, 5):
            for _ in range(30):
                b = GA.random(rng, p)
                k = b.gminus1_factor().k
                d = [rng.randrange(p) for _ in range(k)]
                kappaC = GA.random(rng, p)
                direct = closed_form(b, d, kappaC)
                via_candidate = build_candidate(implied_a(b, d), b).with_kappaC(kappaC)
                assert direct == via_candidate

    def test_equals_reference_every_b_p3(self):
        p = 3
        rng = random.Random(17)
        for b in GA.all_elements(p):
            k = b.gminus1_factor().k
            for d in itertools.product(range(-1, p - 1), repeat=k):
                kappaC = GA.random(rng, p)
                assert closed_form(b, list(d), kappaC) == reference_closed_form(b, d, kappaC)
            assert closed_form(b, [0] * k) == reference_closed_form(b, [0] * k, GA.zero(p))

    @pytest.mark.parametrize("p", [5, 7])
    def test_equals_reference_random(self, p):
        rng = random.Random(p)
        for _ in range(60):
            b = gminus1_power(p, rng.randrange(p + 1)) * GA.random(rng, p)
            k = b.gminus1_factor().k
            d = [rng.randrange(-p, 2 * p) for _ in range(k)]
            kappaC = GA.random(rng, p)
            assert closed_form(b, d, kappaC) == reference_closed_form(b, d, kappaC)

    def test_d_length_must_match_class(self):
        b = ga(3, "1-g")  # k = 1
        with pytest.raises(ValueError, match="k=1"):
            closed_form(b, [1, 2])
        with pytest.raises(ValueError, match="class k=1; expected 1 d-values, got 4"):
            implied_a(b, [1, 2, 0, 1])


class TestParamsToAb:
    def test_round_trip_all_pairs_p3(self):
        for a in GA.all_elements(3):
            for b in GA.all_elements(3):
                assert params_to_ab(build_candidate(a, b)) == (a, b)

    def test_corrupted_table_is_rejected(self):
        a, b = running_example()
        params = build_candidate(a, b)
        lam = params.lam.copy()
        lam[2, 0, 0] += 1  # lambda(g^2, v1) + 1
        corrupted = DeformationParams(3, lam, params.kappaC, params.kappaL)
        assert params_to_ab(corrupted) is None

    def test_kappa_c_is_ignored(self):
        a, b = running_example()
        params = build_candidate(a, b).with_kappaC(ga(3, "1+g"))
        assert params_to_ab(params) == (a, b)


class TestTables:
    @pytest.mark.parametrize("name", ["lam", "kappaC", "kappaL"])
    def test_tables_are_read_only(self, name):
        table = getattr(build_candidate(*running_example()), name)
        with pytest.raises(ValueError):
            table[...] = 0
        with pytest.raises(ValueError):
            table.flags.writeable = True

    def test_derived_sets_share_no_writable_buffer(self):
        params = build_candidate(*running_example())
        lam = np.zeros((3, 2, 3), dtype=np.int64)
        lam[1, 1, 0] = 2
        other = DeformationParams(3, lam, np.ones(3), np.ones((2, 3)))
        lam[1, 1, 0] = 0  # the constructor copied its input
        assert other.lam[1, 1, 0] == 2
        for derived in (params + other, other + params, params.with_kappaC(ga(3, "1+g"))):
            for name in ("lam", "kappaC", "kappaL"):
                table = getattr(derived, name)
                assert not table.flags.writeable
                for source in (params, other):
                    assert not np.shares_memory(table, getattr(source, name))

    def test_equality(self):
        params = build_candidate(*running_example())
        assert params == DeformationParams.from_json(params.to_json())
        assert params != params.with_kappaC(ga(3, "1"))
        assert params != DeformationParams.zero(3)
        assert (params == object()) is False
        assert params != object()
        with pytest.raises(TypeError):
            hash(params)

    def test_constructor_refuses_a_fraction(self):
        with pytest.raises(ValueError, match="expected an integer coefficient, got 0.5"):
            DeformationParams(3, np.full((3, 2, 3), 0.5), np.zeros(3), np.zeros((2, 3)))

    def test_integral_floats_and_large_ints_are_reduced_exactly(self):
        params = DeformationParams(3, np.zeros((3, 2, 3)), [2**70, -1.0, 4], np.zeros((2, 3)))
        assert params.kappaC.tolist() == [2**70 % 3, 2, 1] and params.kappaC.dtype == np.int64

    def test_sum_with_a_foreign_operand_raises_type_error(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            DeformationParams.zero(3) + 1

    def test_coboundary_data_refuses_non_elements(self):
        with pytest.raises(TypeError, match="f1, f2 must be group-algebra elements, got 1, 2"):
            CoboundaryData(1, 2)

    def test_implied_a_refuses_a_fractional_d(self):
        with pytest.raises(ValueError, match="expected an integer coefficient, got 1.5"):
            implied_a(GA.zero(3), [1.5, 0, 0])

    @pytest.mark.parametrize("p, message", [
        (4, "p must be an odd prime >= 3, got 4"),
        (9, "p=9 is not prime"),
        (101, "p=101 exceeds the ceiling 97"),
    ])
    def test_constructor_refuses_p_that_check_prime_refuses(self, p, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DeformationParams(p, np.zeros((p, 2, p)), np.zeros(p), np.zeros((2, p)))


class TestSerialization:
    def test_json_round_trip(self):
        rng = random.Random(13)
        for p in (3, 5):
            for _ in range(20):
                params = build_candidate(GA.random(rng, p), GA.random(rng, p))
                blob = json.dumps(params.to_json())
                assert DeformationParams.from_json(json.loads(blob)) == params

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            DeformationParams.from_json({"p": 3})
        with pytest.raises(ValueError):
            DeformationParams.from_json("nope")

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["lambda"][1].append([2, 2, 2]),
         "lambda row at g^1 must be two coefficient lists"),
        (lambda obj: obj["lambda"][2].pop(), "lambda row at g^2 must be two coefficient lists"),
        (lambda obj: obj["lambda"][1].__setitem__(1, 0),
         "lambda row at g^1 must be two coefficient lists"),
        (lambda obj: obj["kappaL"].update(v3=[1, 1, 1]),
         "unexpected key 'v3' in the kappaL object; expected v1, v2"),
        (lambda obj: obj.update(kappaL=[[0, 0, 0], [0, 0, 0]]),
         "expected a kappaL object, got list"),
        (lambda obj: obj.update(comment="x"),
         "unexpected key 'comment' in the parameter object; expected p, lambda, kappaC, kappaL"),
        (lambda obj: obj.update(kappaC=[1, 2]), "kappaC needs 3 coefficients, got 2"),
        (lambda obj: obj["kappaL"].update(v2=[1, 2, 3, 4]), "kappaL v2 needs 3 coefficients, got 4"),
        (lambda obj: obj["lambda"][1].__setitem__(0, [1, 2]),
         "lambda(g^1, v1) needs 3 coefficients, got 2"),
        (lambda obj: obj["lambda"][2].__setitem__(1, [1, 2, 3, 4]),
         "lambda(g^2, v2) needs 3 coefficients, got 4"),
        (lambda obj: obj["lambda"].pop(), "lambda table needs 3 rows, got 2"),
        (lambda obj: obj["lambda"].append([[0, 0, 0], [0, 0, 0]]), "lambda table needs 3 rows, got 4"),
        (lambda obj: obj.pop("p"), "missing key 'p' in the parameter object"),
        (lambda obj: obj.pop("lambda"), "missing key 'lambda' in the parameter object"),
        (lambda obj: obj.pop("kappaC"), "missing key 'kappaC' in the parameter object"),
        (lambda obj: obj.pop("kappaL"), "missing key 'kappaL' in the parameter object"),
        (lambda obj: obj["kappaL"].pop("v1"), "missing key 'v1' in the kappaL object"),
        (lambda obj: obj["kappaL"].pop("v2"), "missing key 'v2' in the kappaL object"),
    ], ids=["third_lambda_list", "one_lambda_list", "lambda_scalar", "kappaL_v3",
            "kappaL_list", "top_level_key", "kappaC_short", "kappaL_long", "lambda_row_short",
            "lambda_row_long", "lambda_rows_short", "lambda_rows_long", "no_p", "no_lambda",
            "no_kappaC", "no_kappaL", "no_kappaL_v1", "no_kappaL_v2"])
    def test_from_json_rejects_entries_it_would_ignore(self, edit, message):
        obj = closed_form(ga(3, "1-g"), [-1]).to_json()
        DeformationParams.from_json(obj)
        edit(obj)
        with pytest.raises(ValueError, match=re.escape(message)):
            DeformationParams.from_json(obj)

    def test_from_json_reduces_huge_coefficients(self):
        obj = closed_form(ga(3, "1-g"), [-1]).to_json()
        expected = DeformationParams.from_json(obj)
        obj["lambda"][1][0][0] += 3 * 10**30
        obj["kappaC"][2] -= 3 * 10**40
        obj["kappaL"]["v1"][1] += 3 * 10**30
        assert DeformationParams.from_json(obj) == expected

    def test_identity_row_enforced(self):
        p = 3
        bad = DeformationParams.zero(p).to_json()
        bad["lambda"][0][0] = [1, 0, 0]
        with pytest.raises(ValueError):
            DeformationParams.from_json(bad)

    def test_pretty_print_running_example(self):
        a, b = running_example()
        text = build_candidate(a, b).to_text()
        assert "lambda(g^1, v1) = g - g^2" in text
        assert "kappa^L = v1*(-1) + v2*(-g)" in text
