"""Ring arithmetic, structural maps, and serialization of F_p[G]."""

import itertools
import json
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbifold import (DeformationParams, census, closed_form, enumerate_solutions,
                      rules_from_params, verify_chain_maps)
from orbifold.group_algebra import (
    DEFAULT_PRIME_CEILING,
    GroupAlgebraElement as GA,
    NotAUnit,
    binom_mod,
    check_prime,
    digit_rows,
    gminus1_basis,
    gminus1_factor_rows,
    gminus1_power,
    same_prime,
    scalar_inv,
    shift_index,
    sum_index,
)
from orbifold.group_algebra import _PRIMES, _leading, _term_texts
from orbifold.rewriting import irreducible_words


def ga(p, text):
    return GA.from_text(p, text)


def test_check_prime_accepts_odd_primes():
    assert check_prime(3) == 3
    assert check_prime(97) == 97


@pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, 0, -3, 101])
def test_check_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_prime(bad)


@pytest.mark.parametrize("p, message", [
    (4, "p must be an odd prime >= 3, got 4"),
    (9, "p=9 is not prime"),
    (101, "p=101 exceeds the ceiling 97"),
])
def test_elements_refuse_what_check_prime_refuses(p, message):
    # Every element-level map ran mod a composite before the constructor
    # checked p: GA.one(4).gminus1_factor() gave k = 0.
    with pytest.raises(ValueError, match=message):
        check_prime(p)
    for make in (GA.one, GA.zero, lambda p: GA.from_coeffs(p, [1] * p), lambda p: GA(p, (0,) * p)):
        with pytest.raises(ValueError, match=message):
            make(p)


def test_check_prime_type_check_is_not_cached():
    # 3.0 == 3 and hash(3.0) == hash(3), so a cache in front of the type
    # check would pass 3.0 once 3 had been checked.
    assert check_prime(3) == 3
    for p in (3.0, True, "3"):
        with pytest.raises(ValueError):
            check_prime(p)
    with pytest.raises(ValueError, match="p must be an integer, got 3.0"):
        GA(3.0, (0, 0, 0))


def test_primes_are_the_odd_primes_up_to_the_ceiling():
    by_trial_division = {n for n in range(3, DEFAULT_PRIME_CEILING + 1)
                         if all(n % d for d in range(2, n))}
    assert _PRIMES == by_trial_division and len(_PRIMES) == 24


@pytest.mark.parametrize("p", [np.int64(5), np.int32(97), np.uint8(3)],
                         ids=["int64", "int32", "uint8"])
def test_check_prime_reads_an_integer_type_as_its_int(p):
    assert check_prime(p) == p and type(check_prime(p)) is int
    with pytest.raises(ValueError, match="^p=9 is not prime$"):
        check_prime(type(p)(9))


@pytest.mark.parametrize("call", [
    lambda p: GA.one(p).p,
    census,
    lambda p: DeformationParams.zero(p).to_json(),
    lambda p: verify_chain_maps(p, 2),
    lambda p: [(r.b.coeffs, r.k) for r in enumerate_solutions(p)],
], ids=["element", "census", "params_zero", "verify_chain_maps", "enumerate_solutions"])
def test_a_numpy_integer_p_gives_what_its_int_gives(call):
    # json.dumps refuses numpy integers, so the results hold Python ints.
    assert json.dumps(call(np.int64(3))) == json.dumps(call(3))


NOT_AN_INDEX = "'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize("call, error, message", [
    (lambda: GA.one(3).shift(1.5), TypeError, NOT_AN_INDEX),
    (lambda: GA.monomial(3, 1.5, 1), TypeError, NOT_AN_INDEX),
    (lambda: GA.g(3, 1.0), TypeError, NOT_AN_INDEX),
    (lambda: GA.monomial(3, 0, "x"), ValueError, "expected an integer coefficient, got 'x'"),
    (lambda: GA.one(3).scale("x"), ValueError, "expected an integer coefficient, got 'x'"),
    (lambda: closed_form(GA.from_text(3, "1-g"), ["x"]), ValueError,
     "expected an integer coefficient, got 'x'"),
    (lambda: irreducible_words(rules_from_params(DeformationParams.zero(3)), 1.5), TypeError,
     NOT_AN_INDEX),
], ids=["shift", "monomial_exponent", "g_exponent", "monomial_coefficient", "scale",
        "closed_form_d", "irreducible_words_bound"])
def test_integer_arguments_are_refused_by_their_reader(call, error, message):
    # Exponents and bounds are read with operator.index, scalars with exact_int.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_same_prime_names_the_primes():
    assert same_prime(5) == same_prime(5, 5, 5) == 5
    with pytest.raises(ValueError, match=r"^mismatched primes: \[3, 5\]$"):
        same_prime(3, 5, 3)


@pytest.mark.parametrize("coeffs, reduced", [
    ((4, -1, 7), (1, 2, 1)),
    ((3, 0, -3), (0, 0, 0)),
    ((-7, 2, 0), (2, 2, 0)),
    ((0, 1, 2), (0, 1, 2)),
])
def test_construction_reduces_coefficients_mod_p(coeffs, reduced):
    assert GA(3, coeffs).coeffs == reduced


def test_add_componentwise():
    assert ga(3, "1+g") + ga(3, "g+g^2") == ga(3, "1+2*g+g^2")


def test_add_zero_identity():
    x = ga(5, "1+2*g+3*g^4")
    assert x + GA.zero(5) == x


def test_add_characteristic_three():
    x = ga(3, "1+g+g^2")
    assert x + x.scale(2) == GA.zero(3)


def test_add_mismatched_p():
    with pytest.raises(ValueError):
        ga(3, "1") + ga(5, "1")


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("foreign", [3, 1.5, "g", None])
def test_foreign_operand_raises_type_error(op, foreign):
    with pytest.raises(TypeError):
        op(ga(3, "1+g"), foreign)
    with pytest.raises(TypeError):
        op(foreign, ga(3, "1+g"))


def test_mul_group_law():
    p = 5
    assert GA.g(p) * GA.g(p, p - 1) == GA.one(p)


def test_mul_gminus1_cubed_vanishes():
    assert gminus1_power(3, 1) ** 3 == GA.zero(3)


def test_mul_telescoping():
    assert ga(3, "1-g") * ga(3, "1+g+g^2") == GA.zero(3)


def test_mul_mismatched_p():
    with pytest.raises(ValueError):
        ga(3, "g") * ga(5, "g")


def reference_mul(x, y):
    """The cyclic convolution (xy)_l = sum over i + j = l (mod p) of x_i y_j,
    term by term: the loop GroupAlgebraElement.__mul__ was first written as."""
    p = x.p
    out = [0] * p
    for i, a in enumerate(x.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(y.coeffs):
            if b:
                k = i + j
                if k >= p:
                    k -= p
                out[k] = (out[k] + a * b) % p
    return GA(p, tuple(out))


@pytest.mark.parametrize("p", [3, 5, 7, 97])
def test_mul_and_shift_equal_the_convolution(p):
    # The product is x times the circulant of y, and shift(m) is its row m.
    rng = random.Random(p)
    for _ in range(100 if p < 97 else 30):
        x = gminus1_power(p, rng.randrange(p + 1)) * GA.random(rng, p)
        y, m = GA.random(rng, p), rng.randrange(-2 * p, 2 * p)
        assert x * y == reference_mul(x, y) == reference_mul(y, x)
        assert x.shift(m) == reference_mul(x, GA.g(p, m)) == x * GA.g(p, m)
        assert x * GA.zero(p) == reference_mul(x, GA.zero(p)) == GA.zero(p)


def test_sigma_on_g():
    for p in (3, 5):
        assert GA.g(p).sigma() == GA.g(p, p - 1)


def test_sigma_fixes_symmetric_element():
    x = ga(3, "1+g+g^2")
    assert x.sigma() == x


def test_sigma_involution_and_automorphism():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(50):
            x, y = GA.random(rng, p), GA.random(rng, p)
            assert x.sigma().sigma() == x
            assert (x * y).sigma() == x.sigma() * y.sigma()
            assert x.sigma().augmentation() == x.augmentation()


def test_augmentation_examples():
    assert GA.g(7, 4).augmentation() == 1
    assert ga(3, "1+g+g^2").augmentation() == 0


def test_augmentation_multiplicative():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(50):
            x, y = GA.random(rng, p), GA.random(rng, p)
            assert (x * y).augmentation() == x.augmentation() * y.augmentation() % p


def test_mul_commutative_associative():
    rng = random.Random(13)
    for p in (3, 7):
        for _ in range(30):
            x, y, z = (GA.random(rng, p) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


def test_gminus1_factor_of_one_minus_g():
    fact = ga(3, "1-g").gminus1_factor()
    assert fact.k == 1
    assert fact.btilde == ga(3, "-1")


def test_gminus1_factor_of_norm_element():
    fact = ga(3, "1+g+g^2").gminus1_factor()
    assert fact.k == 2
    assert fact.btilde == GA.one(3)


def test_gminus1_factor_of_zero():
    fact = GA.zero(5).gminus1_factor()
    assert fact.k == 5
    assert fact.btilde == GA.one(5)


def test_gminus1_factor_reconstructs():
    rng = random.Random(17)
    for p in (3, 5, 7):
        for _ in range(100):
            x = GA.random(rng, p)
            fact = x.gminus1_factor()
            assert gminus1_power(p, fact.k) * fact.btilde == x
            if fact.k < p:
                assert fact.btilde.augmentation() != 0


def test_augmentation_kernel_is_gminus1_ideal():
    for x in GA.all_elements(3):
        if x.augmentation() == 0:
            assert x.gminus1_factor().k >= 1


def test_invert_one_and_powers_of_g():
    p = 5
    assert GA.one(p).invert() == GA.one(p)
    for i in range(p):
        assert GA.g(p, i).invert() == GA.g(p, (p - i) % p)


def test_invert_against_exhaustive_oracle_p3():
    # Independent oracle: search the multiplication table of all 27 elements.
    everything = list(GA.all_elements(3))
    for x in everything:
        if x.augmentation() == 0:
            with pytest.raises(NotAUnit):
                x.invert()
            continue
        y = x.invert()
        assert x * y == GA.one(3)
        matches = [z for z in everything if x * z == GA.one(3)]
        assert matches == [y]


def test_invert_randomized_p5_p7():
    rng = random.Random(19)
    for p in (5, 7):
        found = 0
        while found < 40:
            x = GA.random(rng, p)
            if x.augmentation() == 0:
                continue
            assert x * x.invert() == GA.one(p)
            found += 1


@st.composite
def element_of_small_p(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    return GA.from_coeffs(p, draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p)))


@settings(max_examples=100, deadline=None)
@given(element_of_small_p())
def test_frobenius_power_is_the_augmentation(x):
    # In F_pG, x^p = aug(x) * 1: the identity invert rests on.
    assert x ** x.p == GA.monomial(x.p, 0, x.augmentation())


@settings(max_examples=50, deadline=None)
@given(element_of_small_p())
def test_shift_index_rows_are_the_shifts(x):
    """Row a of a coefficient row gathered through shift_index is x g^a."""
    circulant = np.array(x.coeffs)[shift_index(x.p)]
    expected = [reference_mul(x, GA.g(x.p, a)).coeffs for a in range(x.p)]
    assert [tuple(row) for row in circulant.tolist()] == expected


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sum_index_is_the_exponent_of_the_product(p):
    table = sum_index(p)
    for i, j in itertools.product(range(p), repeat=2):
        assert GA.g(p, i) * GA.g(p, j) == GA.g(p, int(table[i, j]))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_digit_rows_list_itertools_product(p, width):
    for base in (p, p - 1):
        expected = [list(t) for t in itertools.product(range(base), repeat=width)]
        assert digit_rows(base, width, np.arange(base**width)).tolist() == expected
        # Any run of indices, as chain generators are numbered in chunks.
        assert digit_rows(base, width, np.arange(1, base**width)).tolist() == expected[1:]


def test_gminus1_coords_examples():
    assert ga(3, "1+g+g^2").gminus1_coords() == (0, 0, 1)
    for p in (3, 7):
        expected = (1, 1) + (0,) * (p - 2)
        assert GA.g(p).gminus1_coords() == expected


def test_gminus1_coords_round_trip():
    rng = random.Random(23)
    for p in (3, 5, 7):
        for _ in range(60):
            x = GA.random(rng, p)
            z = x.gminus1_coords()
            assert GA.from_gminus1_coords(p, z) == x
            # Independent expansion: sum z_i (g-1)^i term by term.
            acc = GA.zero(p)
            for i, zi in enumerate(z):
                acc = acc + gminus1_power(p, i).scale(zi)
            assert acc == x


@pytest.mark.parametrize("z", [[1, 2], [1, 2, 0, 1]])
def test_from_gminus1_coords_takes_exactly_p_coordinates(z):
    with pytest.raises(ValueError, match=f"expected 3 coordinates, got {len(z)}"):
        GA.from_gminus1_coords(3, z)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_gminus1_basis_is_the_binomial_change(p):
    # Row i of the inverse is (g-1)^i multiplied out in the ring, and the
    # two matrices are inverse to each other.
    basis, inverse = gminus1_basis(p)
    t, power = GA.g(p) - GA.one(p), GA.one(p)
    for row in inverse.tolist():
        assert tuple(row) == power.coeffs
        power = power * t
    assert np.array_equal(basis @ inverse % p, np.eye(p, dtype=np.int64))


def reference_factor_rows(p, rows):
    """gminus1_factor_rows with the shift written as one masked copy per class."""
    basis, inverse = gminus1_basis(p)
    z = rows @ basis % p
    nonzero = z != 0
    k = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), p)
    shifted = np.zeros_like(z)
    for kk in range(p):
        shifted[k == kk, : p - kk] = z[k == kk, kk:]
    shifted[k == p, 0] = 1
    return k, shifted @ inverse % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_rows_equal_the_per_class_copy(p):
    rows = digit_rows(p, p, np.arange(p**p))
    for got, expected in zip(gminus1_factor_rows(p, rows), reference_factor_rows(p, rows)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [-1, -4])
def test_gminus1_power_refuses_a_negative_exponent(k):
    with pytest.raises(ValueError, match=f"needs k >= 0, got {k}"):
        gminus1_power(5, k)


def test_gminus1_power_refuses_a_float_exponent():
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        gminus1_power(3, 1.0)


@pytest.mark.parametrize("k", [True, np.int64(1)])
def test_gminus1_power_reads_the_exponent_as_an_int(k):
    # Read with operator.index: True is 1, not a numpy boolean index.
    assert gminus1_power(3, k) == gminus1_power(3, 1) == GA.from_text(3, "-1 + g")


class TestExactCoefficients:
    """The constructor stores a tuple of Python ints in [0, p), from any
    integers (integral floats too), and refuses any other value by name."""

    def test_from_coeffs_refuses_a_fraction(self):
        with pytest.raises(ValueError, match="expected an integer coefficient, got 1.5"):
            GA.from_coeffs(3, [1.5, 2, 0])

    def test_integral_floats_become_ints(self):
        x = GA(3, (1.0, 0, -1.0))
        assert x.coeffs == (1, 0, 2) and all(type(c) is int for c in x.coeffs)
        assert x.to_text() == "1 - g^2"

    def test_a_list_is_stored_as_a_tuple(self):
        x = GA(3, [1, 0, 0])
        assert x.coeffs == (1, 0, 0) and type(x.coeffs) is tuple
        assert hash(x) == hash(GA.one(3))

    def test_numpy_ints_become_python_ints(self):
        x = GA(3, tuple(np.array([1, 0, 2])))
        assert all(type(c) is int for c in x.coeffs)
        assert json.dumps(x.coeffs) == "[1, 0, 2]"

    @pytest.mark.parametrize("value", ["1", None, float("nan"), float("inf"), 0.5])
    def test_non_integers_are_refused_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            GA(3, (value, 0, 0))


def test_binom_mod_vanishes_out_of_range():
    assert binom_mod(2, 3, 5) == 0
    assert binom_mod(4, 2, 5) == 6 % 5


def test_scalar_inv_zero_convention():
    assert scalar_inv(0, 7) == 0
    for j in range(1, 7):
        assert scalar_inv(j, 7) * j % 7 == 1


def test_text_round_trip_everything_p3():
    for x in GA.all_elements(3):
        assert GA.from_text(3, x.to_text()) == x


def test_text_round_trip_random_p7():
    rng = random.Random(29)
    for _ in range(200):
        x = GA.random(rng, 7)
        assert GA.from_text(7, x.to_text()) == x


@pytest.mark.parametrize("p", [3, 5])
def test_all_texts_equals_to_text(p):
    assert GA.all_texts(p).tolist() == [x.to_text() for x in GA.all_elements(p)]


def reference_all_texts(p):
    """to_text of every element as the product of all term tables, one
    _leading call per element: the way all_texts was first written."""
    return [_leading(text) for text in map("".join, itertools.product(*_term_texts(p)))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_all_texts_equals_the_per_element_reference(p):
    texts = GA.all_texts(p)
    assert texts.dtype == object and texts.shape == (p**p,)
    assert texts.tolist() == reference_all_texts(p)


def test_all_texts_by_row_index_p7():
    # Row i of the table is the element whose base-7 value is i.
    texts = GA.all_texts(7)
    assert len(texts) == 7**7

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7**7 - 1))
    def check(i):
        x = GA(7, tuple(i // 7**e % 7 for e in range(6, -1, -1)))
        assert texts[i] == x.to_text()

    check()


def test_text_parse_examples():
    assert ga(3, "-1+g+g^2") == GA.from_coeffs(3, [2, 1, 1])
    assert ga(3, "1-g") == GA.from_coeffs(3, [1, 2, 0])
    assert ga(5, "2*g^3") == GA.monomial(5, 3, 2)
    assert ga(5, "2g^3") == GA.monomial(5, 3, 2)
    assert ga(3, "0") == GA.zero(3)


def test_text_parse_errors():
    with pytest.raises(ValueError):
        GA.from_text(3, "1 + q")
    with pytest.raises(ValueError):
        GA.from_text(3, "g^5")
    with pytest.raises(ValueError):
        GA.from_text(3, "")
    with pytest.raises(ValueError):
        GA.from_text(3, "1 1")
    # Digits are ASCII: int() reads other Unicode decimal digits, the grammar does not.
    for text in ("\u0661", "\u0661-g^\u0662", "g^\u0662", "2*g^\uff11", "\u09e7g"):
        with pytest.raises(ValueError, match="parse error at position"):
            GA.from_text(5, text)


@pytest.mark.parametrize("text, outcome", [
    ("2 g", (0, 2, 0)),
    ("2 * g", (0, 2, 0)),
    ("2\t*  g^2", (0, 0, 2)),
    ("12g^1", (0, 0, 0)),
    (" g^0 ", (1, 0, 0)),
    ("+1", (1, 0, 0)),
    ("- 4", (2, 0, 0)),
    ("+ g - 3", (0, 1, 0)),
    ("1 ", (1, 0, 0)),
    ("\t-g + 2\n", (2, 2, 0)),
    ("1 + \u00a0g", (1, 1, 0)),
    ("1 +", "parse error at position 1: ' +'"),
    ("1 +  ", "parse error at position 1: ' +  '"),
    ("--g", "parse error at position 0: '--g'"),
    ("1+-g", "parse error at position 1: '+-g'"),
    ("-", "parse error at position 0: '-'"),
    ("g^", "parse error at position 1: '^'"),
    ("2^2", "parse error at position 1: '^2'"),
    ("2*", "parse error at position 1: '*'"),
    ("g^\u0662", "parse error at position 1: '^\u0662'"),
    ("\u0661", "parse error at position 0: '\u0661'"),
    ("1 1", "missing +/- before position 1: '1 1'"),
    ("g g ", "missing +/- before position 1: 'g g '"),
    ("1 - g^3", "exponent 3 out of range for p=3 in '1 - g^3'"),
    (" \t", "empty element text"),
])
def test_text_grammar_table(text, outcome):
    # Each outcome is what the grammar gave before it was read through one pattern.
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
            GA.from_text(3, text)
    else:
        assert GA.from_text(3, text).coeffs == outcome


@pytest.mark.parametrize("text", ["2*", "2*+g", "2 *", "g*", "*g"])
def test_text_parse_refuses_a_star_without_g(text):
    with pytest.raises(ValueError, match="parse error at position"):
        GA.from_text(3, text)

