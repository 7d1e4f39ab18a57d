"""Resolutions, comparison maps, and the cochain-transfer bridge."""

import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbifold.chains import (
    CHAIN_IDENTITIES,
    BarGroupChain,
    PeriodicChain,
    bar_basis,
    bar_differential,
    bar_grade,
    distinguished_cocycle,
    iota_chain,
    periodic_differential,
    periodic_grade,
    pi_group,
    rep_to_params,
    transfer_cochain,
    verify_chain_maps,
)
import orbifold.chains as chains
from orbifold.group_algebra import MAX_WORK, GroupAlgebraElement as GA, TooLarge
from orbifold.params import (
    CoboundaryData,
    DeformationParams,
    add_coboundary,
    build_candidate,
    coboundary,
)
from test_pbw import elements, from_elements


def ga(p, text):
    return GA.from_text(p, text)


class TestBarDifferential:
    def test_degree_one(self):
        x = BarGroupChain.make(3, 1, {(0, 1, 0): 1})
        assert bar_differential(x) == BarGroupChain.make(3, 0, {(1, 0): 1, (0, 1): -1})

    def test_reduced_quotient_kills_inner_identity(self):
        p = 5
        x = BarGroupChain.make(p, 2, {(0, 1, p - 1, 0): 1})
        out = bar_differential(x)
        assert out == BarGroupChain.make(
            p, 2 - 1, {(1, p - 1, 0): 1, (0, 1, p - 1): 1}
        )

    def test_squares_to_zero_randomized(self):
        rng = random.Random(3)
        for p in (3, 5):
            for n in (2, 3, 4):
                basis = list(bar_basis(p, n))
                for _ in range(30):
                    terms = {rng.choice(basis): rng.randrange(1, p) for _ in range(4)}
                    x = BarGroupChain.make(p, n, terms)
                    assert bar_differential(bar_differential(x)).is_zero()

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            bar_differential(BarGroupChain.make(3, 0, {(0, 0): 1}))

    def test_make_sums_labels_equal_mod_p(self):
        x = BarGroupChain.make(3, 0, {(4, 0): 1, (1, 0): 1})
        assert x == BarGroupChain.make(3, 0, {(1, 0): 2})
        assert BarGroupChain.make(3, 0, {(4, 0): 1, (1, 0): 2}).is_zero()

    def test_rejects_identity_inner_slot(self):
        with pytest.raises(ValueError):
            BarGroupChain.make(3, 1, {(0, 0, 0): 1})

    @pytest.mark.parametrize("terms", [{}, {(0,): 1}])
    def test_rejects_a_negative_degree(self, terms):
        with pytest.raises(ValueError, match="chain degree must be >= 0, got -1"):
            BarGroupChain.make(3, -1, terms)


@pytest.mark.parametrize("cls, degree, terms, message", [
    (BarGroupChain, 1, {(0, 1.5, 0): 1}, "expected an integer coefficient, got 1.5"),
    (BarGroupChain, 1, {(0, 1, 0): 0.5}, "expected an integer coefficient, got 0.5"),
    (PeriodicChain, 0, {(0, 0): 1.5}, "expected an integer coefficient, got 1.5"),
    (PeriodicChain, 0, {(0, 0.5): 1}, "expected an integer coefficient, got 0.5"),
    (PeriodicChain, 0, {(0,): 1}, re.escape("periodic labels (i, j) need 2 slots, got (0,)")),
    (PeriodicChain, 1, {(0, 0, 0): 1}, re.escape("need 2 slots, got (0, 0, 0)")),
])
def test_make_reads_labels_and_coefficients_exactly(cls, degree, terms, message):
    # Labels and coefficients go through exact_int, as the ring elements' do:
    # a non-integer is refused, never truncated, and a periodic label must be a pair.
    with pytest.raises(ValueError, match=message):
        cls.make(3, degree, terms)


class TestPeriodicDifferential:
    @pytest.mark.parametrize("degree", [-1, -2])
    def test_rejects_a_negative_degree(self, degree):
        with pytest.raises(ValueError, match=f"chain degree must be >= 0, got {degree}"):
            PeriodicChain.make(3, degree, {(0, 0): 1})

    def test_gamma_on_generator(self):
        out = periodic_differential(PeriodicChain.make(3, 1, {(0, 0): 1}))
        assert out == PeriodicChain.make(3, 0, {(1, 0): 1, (0, 1): -1})

    def test_multiplication_at_degree_zero(self):
        out = periodic_differential(PeriodicChain.make(3, 0, {(1, 2): 1}))
        assert out == GA.one(3)

    def test_eta_then_gamma_vanishes(self):
        for p in (3, 5):
            for i in range(p):
                for j in range(p):
                    x = PeriodicChain.make(p, 2, {(i, j): 1})
                    assert periodic_differential(periodic_differential(x)).is_zero()

    def test_gamma_then_eta_vanishes(self):
        for p in (3, 5):
            for i in range(p):
                for j in range(p):
                    x = PeriodicChain.make(p, 3, {(i, j): 1})
                    assert periodic_differential(periodic_differential(x)).is_zero()


class TestComparisonMaps:
    def test_pi2_pair_cutoff(self):
        p = 3
        assert pi_group(2, BarGroupChain.make(p, 2, {(0, 1, 1, 0): 1})).is_zero()
        out = pi_group(2, BarGroupChain.make(p, 2, {(0, 2, 2, 0): 1}))
        assert out == PeriodicChain.make(p, 2, {(0, 1): 1})

    def test_pi1_fan_out(self):
        p = 5
        out = pi_group(1, BarGroupChain.make(p, 1, {(0, 3, 0): 1}))
        assert out == PeriodicChain.make(p, 1, {(0, 2): 1, (1, 1): 1, (2, 0): 1})

    def test_pi0_is_identity(self):
        p = 3
        x = BarGroupChain.make(p, 0, {(1, 2): 2})
        assert pi_group(0, x) == PeriodicChain.make(p, 0, {(1, 2): 2})

    def test_iota1(self):
        out = iota_chain(PeriodicChain.make(3, 1, {(0, 0): 1}))
        assert out == BarGroupChain.make(3, 1, {(0, 1, 0): 1})

    def test_iota2_carries_trailing_factor(self):
        p = 3
        expected = BarGroupChain.make(p, 2, {(0, 1, 1, 1): 1, (0, 2, 1, 0): 1})
        assert iota_chain(PeriodicChain.make(p, 2, {(0, 0): 1})) == expected

    def test_iota0_is_identity(self):
        p = 3
        x = PeriodicChain.make(p, 0, {(2, 1): 2})
        assert iota_chain(x) == BarGroupChain.make(p, 0, {(2, 1): 2})

    def test_pi_iota_identity_n2(self):
        p = 5
        out = pi_group(2, iota_chain(PeriodicChain.make(p, 2, {(0, 0): 1})))
        assert out == PeriodicChain.make(p, 2, {(0, 0): 1})

    @pytest.mark.parametrize("n", [True, np.int64(1)])
    def test_pi_reads_the_degree_as_an_int(self, n):
        # Chains store their degree as an int too, so both n's are read.
        x = BarGroupChain.make(3, n, {(0, 2, 0): 1})
        out = pi_group(n, x)
        assert type(x.degree) is int and type(out.degree) is int
        assert out == PeriodicChain.make(3, 1, {(0, 1): 1, (1, 0): 1})

    def test_pi_refuses_a_float_degree(self):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            pi_group(1.0, BarGroupChain.make(3, 1, {(0, 1, 0): 1}))

    def test_pi1_grading_shift(self):
        # The image of the grade-s slot lands in the grade-(s-1) matrix entries.
        p = 5
        for s in range(1, p):
            out = pi_group(1, BarGroupChain.make(p, 1, {(0, s, 0): 1}))
            for (i, j), _c in out.terms:
                assert (i + j) % p == (s - 1) % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_chain_maps_degree4(p):
    report = verify_chain_maps(p, 4)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_verify_chain_maps_degree6_p3():
    report = verify_chain_maps(3, 6)
    assert report["passed"]


# -- the reference: dict label maps, one element at a time -------------------------
#
# A chain here is a dict {label: coeff} mod p.  Each map is written on the inner
# slots of a free generator as (label, coeff) pairs, ``_bimodule`` extends it to
# every label by the shift g^a . label . g^b, and ``_linear`` extends a label map
# linearly mod p.  The array engine in orbifold.chains shares none of this code.


def _linear(p, image, terms):
    """Extend the label map image linearly over terms, reduce mod p, drop zeros."""
    out = {}
    for label, c in terms:
        for key, c2 in image(label):
            out[key] = out.get(key, 0) + c * c2
    return {key: c % p for key, c in out.items() if c % p}


def _shift(p, label, a, b):
    """g^a . label . g^b: a joins the first slot and b the last; g^k becomes g^(a+k+b)."""
    if isinstance(label, int):
        return (a + label + b) % p
    return ((label[0] + a) % p,) + label[1:-1] + ((label[-1] + b) % p,)


def _bimodule(p, generator, *args):
    """The label map of the bimodule map with 1 (x) inner (x) 1 |-> generator(p, *args, inner)."""

    def image(label):
        a, b = label[0], label[-1]
        return [(_shift(p, key, a, b), c) for key, c in generator(p, *args, label[1:-1])]

    return image


def _bar_d(p, inner):
    """Bar d on 1 (x) inner (x) 1: the alternating face sum, reduced-bar faces dropped."""
    t, n = (0, *inner, 0), len(inner)
    out = []
    for m in range(n + 1):
        s = (t[m] + t[m + 1]) % p
        if s or m == 0 or m == n:
            out.append((t[:m] + (s,) + t[m + 2:], -1 if m % 2 else 1))
    return out


def _periodic_d(p, n, inner):
    """Periodic d on 1 (x) 1 in degree n: m, gamma or eta."""
    if n == 0:
        return [(0, 1)]
    if n % 2 == 1:
        return [((1, 0), 1), ((0, 1), -1)]
    return [((l, p - 1 - l), 1) for l in range(p)]


def _pi(p, inner):
    """pi on 1 (x) inner (x) 1."""
    first, rest = inner[:len(inner) % 2], inner[len(inner) % 2:]
    e = 0
    for s, r in zip(rest[::2], rest[1::2]):
        if s + r < p:
            return []
        e += s + r - p
    if not first:
        return [((0, e % p), 1)]
    return [((l, (e + first[0] - l - 1) % p), 1) for l in range(first[0])]


def _iota(p, n, inner):
    """iota on 1 (x) 1 in degree n."""
    k = n // 2
    out = []
    for choice in itertools.product(range(1, p), repeat=k):
        inner = (1,) * (n % 2) + sum(((i, 1) for i in reversed(choice)), ())
        out.append(((0,) + inner + ((k * p - sum(choice) - k) % p,), 1))
    return out


REFERENCE = {"bar_d": _bar_d, "periodic_d": _periodic_d, "pi": _pi, "iota": _iota}


def reference_sweep(p, max_degree, every_element, **broken):
    """verify_chain_maps' report from the reference maps (``broken`` replaces
    some of them by name), on the free generators only or, with
    every_element, on every periodic g^i (x) g^j and every bar tensor, outer
    slots included."""
    maps = {**REFERENCE, **broken}
    bar_d, pi = _bimodule(p, maps["bar_d"]), _bimodule(p, maps["pi"])
    checks = []
    for n in range(max_degree + 1):
        first = {}

        def check(identity, passed, witness):
            if first.setdefault(identity, None) is None and not passed:
                first[identity] = witness

        iota, dp = _bimodule(p, maps["iota"], n), _bimodule(p, maps["periodic_d"], n)
        for i, j in itertools.product(range(p), repeat=2) if every_element else [(0, 0)]:
            e = (((i, j), 1),)
            up, down, witness = _linear(p, iota, e), _linear(p, dp, e), (n, i, j)
            check("pi_iota_identity", _linear(p, pi, up.items()) == {(i, j): 1}, witness)
            check("iota_graded",
                  all(bar_grade(t, p) == periodic_grade(n, i, j, p) for t in up), witness)
            if n >= 1:
                check("periodic_differential_squares_to_zero",
                      not _linear(p, dp_below, down.items()), witness)
                check("iota_commutes_with_differentials",
                      _linear(p, bar_d, up.items()) == _linear(p, iota_below, down.items()),
                      witness)
        outer = range(p) if every_element else [0]
        for t in itertools.product(outer, *[range(1, p)] * n, outer):
            e = ((t, 1),)
            image = _linear(p, pi, e)
            check("pi_graded",
                  all(periodic_grade(n, i, j, p) == bar_grade(t, p) for i, j in image), (n, t))
            if n >= 1:
                dx = _linear(p, bar_d, e)
                if n >= 2:
                    check("bar_differential_squares_to_zero",
                          not _linear(p, bar_d, dx.items()), (n, t))
                check("pi_commutes_with_differentials",
                      _linear(p, dp, image.items()) == _linear(p, pi, dx.items()), (n, t))
        for identity in CHAIN_IDENTITIES:
            if identity in first:
                entry = {"identity": identity, "degree": n, "passed": first[identity] is None}
                if first[identity] is not None:
                    entry["witness"] = first[identity]
                checks.append(entry)
        iota_below, dp_below = iota, dp
    passed = all(c["passed"] for c in checks)
    return {"p": p, "max_degree": max_degree, "passed": passed, "checks": checks}


def full_sweep(p, max_degree, **broken):
    return reference_sweep(p, max_degree, True, **broken)


@pytest.mark.parametrize("p, max_degree", [(3, 4), (5, 4), (7, 4), (3, 6)])
def test_generator_sweep_equals_the_full_sweep(p, max_degree):
    assert verify_chain_maps(p, max_degree) == full_sweep(p, max_degree)


@pytest.mark.parametrize("p, max_degree", [(3, 9), (5, 5), (11, 3), (13, 3)])
def test_verify_equals_the_reference_generator_sweep(p, max_degree):
    assert verify_chain_maps(p, max_degree) == reference_sweep(p, max_degree, False)


def shifted(x, a, b):
    """g^a . x . g^b, for a chain or for an element of F_pG."""
    if isinstance(x, GA):
        return x.shift(a + b)
    terms = {(t[0] + a,) + t[1:-1] + (t[-1] + b,): c for t, c in x.terms}
    return type(x).make(x.p, x.degree, terms)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_public_maps_commute_with_the_outer_shift(p):
    slot, inner_slot, coeff = st.integers(0, p - 1), st.integers(1, p - 1), st.integers(1, p - 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 4), slot, slot)
    def check(data, n, a, b):
        bar_labels = st.tuples(slot, *[inner_slot] * n, slot)
        x = BarGroupChain.make(p, n, data.draw(st.dictionaries(bar_labels, coeff, max_size=6)))
        y = PeriodicChain.make(p, n, data.draw(st.dictionaries(st.tuples(slot, slot), coeff,
                                                                max_size=6)))
        assert pi_group(n, shifted(x, a, b)) == shifted(pi_group(n, x), a, b)
        assert iota_chain(shifted(y, a, b)) == shifted(iota_chain(y), a, b)
        assert periodic_differential(shifted(y, a, b)) == shifted(periodic_differential(y), a, b)
        if n >= 1:
            assert bar_differential(shifted(x, a, b)) == shifted(bar_differential(x), a, b)

    check()


def reference_chain(cls, p, degree, terms):
    """The chain with the reduced dict terms, built without the array engine."""
    return cls(p, degree, tuple(sorted(terms.items())))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_public_maps_equal_the_reference(p):
    # Outer slots range past [0, p) and every term may come with a partner
    # that cancels it mod p, so that make and the maps both have sums to drop.
    outer, inner_slot = st.integers(-p, 2 * p), st.integers(1, p - 1)

    def chain(data, slots):
        terms = data.draw(st.lists(st.tuples(st.tuples(*slots), st.integers(-2 * p, 2 * p),
                                             st.booleans()), max_size=6))
        out = {}
        for t, c, cancel in terms:
            out[t] = out.get(t, 0) + c
            if cancel:
                partner = (t[0] + p,) + t[1:]
                out[partner] = out.get(partner, 0) - c
        return out

    def mod_p(t):
        return [(tuple(e % p for e in t), 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 4))
    def check(data, n):
        bar_terms = chain(data, [outer, *[inner_slot] * n, outer])
        periodic_terms = chain(data, [outer, outer])
        x = BarGroupChain.make(p, n, bar_terms)
        y = PeriodicChain.make(p, n, periodic_terms)
        assert x == reference_chain(BarGroupChain, p, n, _linear(p, mod_p, bar_terms.items()))
        assert y == reference_chain(PeriodicChain, p, n,
                                    _linear(p, mod_p, periodic_terms.items()))
        assert pi_group(n, x) == reference_chain(
            PeriodicChain, p, n, _linear(p, _bimodule(p, _pi), x.terms))
        assert iota_chain(y) == reference_chain(
            BarGroupChain, p, n, _linear(p, _bimodule(p, _iota, n), y.terms))
        assert iota_chain(PeriodicChain.make(p, n, {(0, 0): 1})) == reference_chain(
            BarGroupChain, p, n, _linear(p, _bimodule(p, _iota, n), (((0, 0), 1),)))
        down = _linear(p, _bimodule(p, _periodic_d, n), y.terms)
        if n == 0:
            assert periodic_differential(y) == GA.from_coeffs(p, [down.get(k, 0) for k in range(p)])
        else:
            assert periodic_differential(y) == reference_chain(PeriodicChain, p, n - 1, down)
            assert bar_differential(x) == reference_chain(
                BarGroupChain, p, n - 1, _linear(p, _bimodule(p, _bar_d), x.terms))

    check()


def test_labels_past_one_sort_word():
    # At p = 97 a degree-10 label, its row and its coefficient need two int64
    # words to sort by; at degree 7 the label fills the first word and the
    # coefficient takes the second alone.  Labels that differ only in the last
    # slot stay apart; labels equal mod p merge.
    p = 97
    for n in (7, 10):
        t = (0, *range(1, n + 1), 0)
        u = t[:-1] + (1,)
        x = BarGroupChain.make(p, n, {t: 1, u: 2, t[:-1] + (p,): 3})
        assert x.terms == ((t, 4), (u, 2))
        assert bar_differential(x) == reference_chain(
            BarGroupChain, p, n - 1, _linear(p, _bimodule(p, _bar_d), x.terms))


def test_verify_guard():
    with pytest.raises(ValueError, match=">= 0"):
        verify_chain_maps(3, -1)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        verify_chain_maps(3, 2.0)
    # At p = 3 the batches of degrees <= d hold sum_n 2^n (n + 3) max(n, 3)
    # terms: 6,881,325 to degree 14, and 15,728,685 to degree 15.
    with pytest.raises(TooLarge, match=r"^chain check to degree 15: degrees 0\.\.15 = 15728685 "
                                       f"batch terms is past the limit of {MAX_WORK}$"):
        verify_chain_maps(3, 15)


@pytest.mark.parametrize("degree", [np.int64(2), True])
def test_verify_reads_the_degree_as_an_int(degree):
    # The report is JSON: a numpy integer or a bool degree is read as its int.
    report = verify_chain_maps(3, degree)
    assert type(report["max_degree"]) is int and report["max_degree"] == int(degree)
    assert json.loads(json.dumps(report)) == verify_chain_maps(3, int(degree))


def test_verify_refuses_a_sweep_past_the_tensor_limit():
    with pytest.raises(TooLarge, match=f"batch terms is past the limit of {MAX_WORK}$"):
        verify_chain_maps(17, 5)


# The largest degree verify_chain_maps accepts at each odd prime <= 97.
LARGEST_ACCEPTED_DEGREE = {
    3: 14, 5: 8, 7: 6, 11: 5, 13: 4, 17: 4, **dict.fromkeys([19, 23, 29, 31], 3),
    **dict.fromkeys([37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97], 2),
}


class _SweepStarted(Exception):
    pass


def test_largest_accepted_degree_is_pinned(monkeypatch):
    # The guard passes at each pinned degree, where the sweep is stopped as
    # it builds its residual batch, and refuses one degree more.  Each of
    # these batches is built for real, so the word-bound assert of
    # _Residuals is checked at every accepted size.
    primes = {p for p in range(3, 98, 2) if all(p % d for d in range(3, p, 2))}
    assert set(LARGEST_ACCEPTED_DEGREE) == primes
    residuals = chains._Residuals

    def started(p, max_degree):
        residuals(p, max_degree)
        raise _SweepStarted

    monkeypatch.setattr(chains, "_Residuals", started)
    for p, degree in LARGEST_ACCEPTED_DEGREE.items():
        with pytest.raises(_SweepStarted):
            verify_chain_maps(p, degree)
        with pytest.raises(TooLarge, match=f"past the limit of {MAX_WORK}$"):
            verify_chain_maps(p, degree + 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_largest_accepted_sweeps_pass(p):
    # The primes whose largest accepted degree is above 3.
    assert verify_chain_maps(p, LARGEST_ACCEPTED_DEGREE[p])["passed"]


# Each broken map gains one term on the degree-2 generators with the given
# inner slots, and so on every shift of them by the bimodule extension:
# name -> (degree, inner slots, extra term on the generator).
BREAKS = {
    "pi": (2, (1, 1), (0, 0)),
    "bar_d": (2, (1, 1), (0, 1, 0)),
    "periodic_d": (2, (), (0, 0)),
    "iota": (2, (), (0, 1, 1, 0)),
}


def break_both(monkeypatch, name):
    """Break the array map chains._<name> as BREAKS says; return the
    reference map broken the same way."""
    import orbifold.chains as chains

    degree, hit, extra = BREAKS[name]
    real_array, real_reference = getattr(chains, f"_{name}"), REFERENCE[name]

    def array(p, *args):
        x = args[-1]
        n = args[0] if len(args) == 2 else len(x.labels) - 2
        out = real_array(p, *args)
        if n != degree:
            return out
        rows = (x.labels[1:-1] == np.array(hit, dtype=np.int64)[:, None]).all(axis=0)
        labels = np.tile(np.array(extra, np.int64)[:, None], int(rows.sum()))
        labels[0] += x.labels[0, rows]
        labels[-1] += x.labels[-1, rows]
        added = chains._Batch(x.rows[rows], labels % p, x.coeffs[rows])
        return chains._Batch(*map(np.hstack, zip(out, added)))  # labels: one column per term

    def reference(p, *args):
        inner = args[-1]
        n = args[0] if len(args) == 2 else len(inner)
        out = list(real_reference(p, *args))
        return out + [(extra, 1)] if (n, inner) == (degree, hit) else out

    monkeypatch.setattr(chains, f"_{name}", array)
    return reference


def test_verify_names_first_witness_of_a_broken_pi(monkeypatch):
    # pi_2 gains a grade-0 term on the generator 1 (x) g (x) g (x) 1, and so
    # on every (a, 1, 1, b) by the bimodule extension.  Every identity that
    # reads pi_2 fails at its first element in lexicographic order, which is
    # a generator; the others still pass.  The full sweep agrees.
    broken = break_both(monkeypatch, "pi")
    report = verify_chain_maps(3, 3)
    assert report == full_sweep(3, 3, pi=broken)
    assert not report["passed"]
    failed = [
        (c["identity"], c["degree"], c["witness"]) for c in report["checks"] if not c["passed"]
    ]
    assert failed == [
        ("pi_iota_identity", 2, (2, 0, 0)),
        ("pi_graded", 2, (2, (0, 1, 1, 0))),
        ("pi_commutes_with_differentials", 2, (2, (0, 1, 1, 0))),
        ("pi_commutes_with_differentials", 3, (3, (0, 1, 1, 1, 0))),
    ]
    assert len(report["checks"]) == 3 + 6 + 7 + 7


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", ["bar_d", "periodic_d", "iota"])
def test_verify_names_first_witness_of_a_broken_map(monkeypatch, name, p):
    broken = break_both(monkeypatch, name)
    report = verify_chain_maps(p, 3)
    assert not report["passed"]
    assert report == full_sweep(p, 3, **{name: broken})


def test_chunks_keep_the_first_witness(monkeypatch):
    # Two broken maps at once fail several identities in degrees 2 and 3; at
    # p = 5 a broken periodic d first fails pi.d = d.pi past the first
    # generator.  With one generator per chunk, a few, or the default (one
    # reduction for the whole sweep), the report is the full sweep's, and a
    # passing sweep in chunks of one still passes.
    import orbifold.chains as chains

    passing = verify_chain_maps(5, 3)
    for names in (("pi", "bar_d"), ("periodic_d", "iota")):
        broken = {name: break_both(monkeypatch, name) for name in names}
        expected = full_sweep(5, 3, **broken)
        failed = {(c["identity"], c["degree"]) for c in expected["checks"] if not c["passed"]}
        assert len(failed) >= 6 and {n for _, n in failed} == {2, 3}
        for terms in (1, 64, chains.CHUNK_TERMS):
            monkeypatch.setattr(chains, "CHUNK_TERMS", terms)
            assert verify_chain_maps(5, 3) == expected
        monkeypatch.undo()
    monkeypatch.setattr(chains, "CHUNK_TERMS", 1)
    assert verify_chain_maps(5, 3) == passing


@pytest.mark.parametrize("p, max_degree, once", [(3, 6, True), (13, 4, False), (97, 2, False)])
def test_one_reduction_checks_every_identity(monkeypatch, p, max_degree, once):
    # Every identity in every degree goes into one batch of residual terms,
    # reduced once CHUNK_TERMS of them are pending and once at the end: (3, 6)
    # never reaches CHUNK_TERMS, so its batch is reduced once.
    import orbifold.chains as chains

    calls, real = [], chains._Residuals.reduce

    def counted(residuals):
        if residuals.words:  # a reduction with pending terms
            calls.append(residuals.terms)
        real(residuals)

    monkeypatch.setattr(chains._Residuals, "reduce", counted)
    assert verify_chain_maps(p, max_degree)["passed"]
    assert (len(calls) == 1) == once
    assert all(terms >= chains.CHUNK_TERMS for terms in calls[:-1])


def test_iota_is_built_once_per_degree(monkeypatch):
    # iota(d(1 (x) 1)) is the image of 1 (x) 1 one degree lower, moved by the
    # terms of d(1 (x) 1): one _iota call per degree, 7 at (3, 6).
    import orbifold.chains as chains

    degrees, real = [], chains._iota
    monkeypatch.setattr(chains, "_iota", lambda p, n, x: degrees.append(n) or real(p, n, x))
    assert verify_chain_maps(3, 6)["passed"]
    assert degrees == list(range(7))


@pytest.mark.parametrize("p, max_degree, bound_mb", [(3, 13, 4.0), (13, 4, 1.4)])
def test_large_sweeps_reduce_in_bounded_memory(p, max_degree, bound_mb):
    # The traced peaks were 1.9 and 0.7 MB when each identity was reduced on
    # its own, 1.4 and 0.55 MB with the residual batch reduced batch by batch,
    # and are 2.6 and 1.05 MB with it reduced once CHUNK_TERMS terms are
    # pending; the bounds are twice the first.  A batch reduced only at the
    # end holds every residual term of the sweep: it peaked at 60 and 55 MB.
    tracemalloc.start()
    try:
        assert verify_chain_maps(p, max_degree)["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


class TestTransfer:
    def test_wedge_only_cochain(self):
        p = 3
        alpha = np.array([ga(p, "1+g").coeffs, ga(p, "g^2").coeffs])
        zero = GA.zero(p)
        cochain = transfer_cochain((zero, zero), alpha)
        assert np.array_equal(cochain.kappaL, alpha)
        assert not cochain.lam.any()

    @pytest.mark.parametrize("lambda_prime, alpha", [
        ((GA.one(3), GA.one(5)), np.zeros((2, 3))),
        ((GA.one(5), GA.one(3)), np.zeros((2, 5))),
        ((GA.one(3), GA.one(3)), np.zeros((2, 5))),
    ], ids=["v2", "v1", "alpha"])
    def test_mismatched_primes_raise_value_error(self, lambda_prime, alpha):
        with pytest.raises(ValueError, match="mismatched primes"):
            transfer_cochain(lambda_prime, alpha)

    def test_identity_slot_is_empty_sum(self):
        p = 3
        cochain = transfer_cochain((ga(p, "1+g"), ga(p, "g")), np.zeros((2, p)))
        assert not cochain.lam[0].any()

    def test_distinguished_cocycle_transfer_formulas(self):
        p = 3
        rng = random.Random(5)
        for _ in range(20):
            a, b = GA.random(rng, p), GA.random(rng, p)
            lambda_prime, alpha = distinguished_cocycle(a, b)
            lam = elements(transfer_cochain(lambda_prime, alpha))[0]
            a_tail = GA.from_coeffs(p, (0,) + a.coeffs[1:])
            for i in range(p):
                assert lam[i][0] == b.scale(i).shift(i)
                binom = i * (i - 1) // 2
                expected = b.scale(binom).shift(i) + a_tail.scale(i).shift(i)
                assert lam[i][1] == expected


class TestBridge:
    def test_zero_pair(self):
        assert rep_to_params(GA.zero(3), GA.zero(3)) == DeformationParams.zero(3)

    def test_equals_candidate_exhaustive_p3(self):
        for a in GA.all_elements(3):
            for b in GA.all_elements(3):
                assert rep_to_params(a, b) == build_candidate(a, b)

    def test_equals_candidate_random_p5(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = GA.random(rng, 5), GA.random(rng, 5)
            assert rep_to_params(a, b) == build_candidate(a, b)

    def test_runs_through_the_verified_pi(self, monkeypatch):
        """lambda is read off chains._pi, the map verify_chain_maps certifies:
        a pi that moves each image term by g (x) 1 breaks the bridge, against
        the candidate's C(i,2) formula on the other side."""
        import orbifold.chains as chains

        real = chains._pi

        def moved(p, x):
            image = real(p, x)
            return image._replace(labels=(image.labels + [[1], [0]]) % p)

        monkeypatch.setattr(chains, "_pi", moved)
        for p in (3, 5, 7):
            a, b = ga(p, "1+g^2"), ga(p, "g")
            assert rep_to_params(a, b) != build_candidate(a, b)

    def test_wedge_value(self):
        p = 3
        a, b = ga(p, "-1+g+g^2"), ga(p, "1-g")
        params = rep_to_params(a, b)
        assert elements(params)[2] == [ga(p, "-1"), ga(p, "-g")]


def reference_coboundary(f):
    """The coboundary of f as a 2-cochain, written out: it vanishes on
    (g^i, v1), takes -i f(v1) g^i on (g^i, v2) and sum_j j f_j(v1) v1 g^j on
    the wedge."""
    p = f.p
    zero = GA.zero(p)
    table = tuple((zero, -f.f1.scale(i).shift(i)) for i in range(p))
    wedge = [GA.from_coeffs(p, tuple(j * c for j, c in enumerate(f.f1.coeffs))), zero]
    return table, wedge


class TestCoboundaryCochain:
    def test_matches_add_coboundary_on_every_slot(self):
        rng = random.Random(9)
        for p in (3, 5):
            for _ in range(30):
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                cochain = coboundary(f)
                table, wedge = reference_coboundary(f)
                assert cochain == from_elements(p, table, GA.zero(p), wedge)
                base = build_candidate(GA.random(rng, p), GA.random(rng, p))
                shifted = add_coboundary(base, f)
                (lam, kappaC, kappaL), (lam0, kappaC0, kappaL0) = elements(shifted), elements(base)
                for i in range(p):
                    assert lam[i][0] - lam0[i][0] == table[i][0]
                    assert lam[i][1] - lam0[i][1] == table[i][1]
                assert [x - y for x, y in zip(kappaL, kappaL0)] == wedge
                assert kappaC == kappaC0
