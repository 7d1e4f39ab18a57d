"""Resolutions, comparison maps, and the cochain-transfer bridge."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbifold.action import VGroupElement
from orbifold.chains import (
    CHAIN_IDENTITIES,
    MAX_BAR_TENSORS,
    BarGroupChain,
    PeriodicChain,
    bar_basis,
    bar_differential,
    bar_grade,
    distinguished_cocycle,
    iota_chain,
    iota_group,
    periodic_differential,
    periodic_grade,
    pi_group,
    rep_to_params,
    transfer_cochain,
    verify_chain_maps,
)
from orbifold.group_algebra import GroupAlgebraElement as GA, TooLarge
from orbifold.params import (
    CoboundaryData,
    DeformationParams,
    add_coboundary,
    build_candidate,
    coboundary,
)


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


class TestPeriodicDifferential:
    def test_gamma_on_generator(self):
        out = periodic_differential(PeriodicChain.basis(3, 1, 0, 0))
        assert out == PeriodicChain.make(3, 0, {(1, 0): 1, (0, 1): -1})

    def test_multiplication_at_degree_zero(self):
        out = periodic_differential(PeriodicChain.basis(3, 0, 1, 2))
        assert out == GA.one(3)

    def test_eta_then_gamma_vanishes(self):
        for p in (3, 5):
            for i in range(p):
                for j in range(p):
                    x = PeriodicChain.basis(p, 2, i, j)
                    assert periodic_differential(periodic_differential(x)).is_zero()

    def test_gamma_then_eta_vanishes(self):
        for p in (3, 5):
            for i in range(p):
                for j in range(p):
                    x = PeriodicChain.basis(p, 3, i, j)
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
        assert iota_group(3, 1) == BarGroupChain.make(3, 1, {(0, 1, 0): 1})

    def test_iota2_carries_trailing_factor(self):
        p = 3
        expected = BarGroupChain.make(p, 2, {(0, 1, 1, 1): 1, (0, 2, 1, 0): 1})
        assert iota_group(p, 2) == expected

    def test_iota0_is_identity(self):
        p = 3
        x = PeriodicChain.make(p, 0, {(2, 1): 2})
        assert iota_chain(x) == BarGroupChain.make(p, 0, {(2, 1): 2})

    def test_pi_iota_identity_n2(self):
        p = 5
        out = pi_group(2, iota_group(p, 2))
        assert out == PeriodicChain.basis(p, 2, 0, 0)

    def test_pi1_grading_shift(self):
        # The image of the grade-s slot lands in the grade-(s-1) matrix entries.
        p = 5
        for s in range(1, p):
            out = pi_group(1, BarGroupChain.make(p, 1, {(0, s, 0): 1}))
            for i, j, _c in out.entries():
                assert (i + j) % p == (s - 1) % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_chain_maps_degree4(p):
    report = verify_chain_maps(p, 4)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_verify_chain_maps_degree6_p3():
    report = verify_chain_maps(3, 6)
    assert report["passed"]


def full_sweep(p, max_degree):
    """verify_chain_maps' report, from the public maps on every basis element.

    Every periodic g^i (x) g^j and every bar tensor, outer slots included,
    is checked, not only the free generators.
    """
    checks = []
    for n in range(max_degree + 1):
        first = {}

        def check(identity, passed, witness):
            if first.setdefault(identity, None) is None and not passed:
                first[identity] = witness

        for i, j in itertools.product(range(p), repeat=2):
            x = PeriodicChain.basis(p, n, i, j)
            up, witness = iota_chain(x), (n, i, j)
            check("pi_iota_identity", pi_group(n, up) == x, witness)
            check("iota_graded",
                  all(bar_grade(t, p) == periodic_grade(n, i, j, p) for t, _ in up.terms),
                  witness)
            if n >= 1:
                down = periodic_differential(x)
                check("periodic_differential_squares_to_zero",
                      periodic_differential(down).is_zero(), witness)
                check("iota_commutes_with_differentials",
                      bar_differential(up) == iota_chain(down), witness)
        for t in bar_basis(p, n):
            x = BarGroupChain.make(p, n, {t: 1})
            image = pi_group(n, x)
            check("pi_graded",
                  all(periodic_grade(n, i, j, p) == bar_grade(t, p) for i, j, _ in image.entries()),
                  (n, t))
            if n >= 1:
                dx = bar_differential(x)
                if n >= 2:
                    check("bar_differential_squares_to_zero",
                          bar_differential(dx).is_zero(), (n, t))
                check("pi_commutes_with_differentials",
                      periodic_differential(image) == pi_group(n - 1, dx), (n, t))
        for identity in CHAIN_IDENTITIES:
            if identity in first:
                entry = {"identity": identity, "degree": n, "passed": first[identity] is None}
                if first[identity] is not None:
                    entry["witness"] = first[identity]
                checks.append(entry)
    passed = all(c["passed"] for c in checks)
    return {"p": p, "max_degree": max_degree, "passed": passed, "checks": checks}


@pytest.mark.parametrize("p, max_degree", [(3, 4), (5, 4), (7, 4), (3, 6)])
def test_generator_sweep_equals_the_full_sweep(p, max_degree):
    assert verify_chain_maps(p, max_degree) == full_sweep(p, max_degree)


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


def test_verify_guard():
    with pytest.raises(ValueError, match=">= 0"):
        verify_chain_maps(3, -1)
    # At p = 3 degrees <= d hold 2^(d+1) - 1 generators.
    past = next(d for d in itertools.count() if 2 ** (d + 1) - 1 > MAX_BAR_TENSORS)
    with pytest.raises(TooLarge, match="bar tensors"):
        verify_chain_maps(3, past)


def test_verify_refuses_a_sweep_past_the_tensor_limit():
    with pytest.raises(TooLarge, match=f"past the limit of {MAX_BAR_TENSORS}"):
        verify_chain_maps(17, 4)


def test_verify_names_first_witness_of_a_broken_pi(monkeypatch):
    # pi_2 gains a grade-0 term on the generator 1 (x) g (x) g (x) 1, and so
    # on every (a, 1, 1, b) by the bimodule extension.  Every identity that
    # reads pi_2 fails at its first element in lexicographic order, which is
    # a generator; the others still pass.  The full sweep agrees.
    import orbifold.chains as chains

    real = chains._pi

    def broken(p, inner):
        return real(p, inner) + ([((0, 0), 1)] if inner == (1, 1) else [])

    monkeypatch.setattr(chains, "_pi", broken)
    report = verify_chain_maps(3, 3)
    assert report == full_sweep(3, 3)
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


class TestTransfer:
    def test_wedge_only_cochain(self):
        p = 3
        alpha = VGroupElement(ga(p, "1+g"), ga(p, "g^2"))
        zero = GA.zero(p)
        cochain = transfer_cochain((zero, zero), alpha)
        assert cochain.kappaL == alpha
        assert all(
            cochain.lam[i][m - 1].is_zero() for i in range(p) for m in (1, 2)
        )

    def test_identity_slot_is_empty_sum(self):
        p = 3
        cochain = transfer_cochain((ga(p, "1+g"), ga(p, "g")), VGroupElement.zero(p))
        assert cochain.lam[0][0].is_zero()
        assert cochain.lam[0][1].is_zero()

    def test_distinguished_cocycle_transfer_formulas(self):
        p = 3
        rng = random.Random(5)
        for _ in range(20):
            a, b = GA.random(rng, p), GA.random(rng, p)
            lambda_prime, alpha = distinguished_cocycle(a, b)
            cochain = transfer_cochain(lambda_prime, alpha)
            a_tail = GA.from_coeffs(p, (0,) + a.coeffs[1:])
            for i in range(p):
                assert cochain.lam[i][0] == b.scale(i).shift(i)
                binom = i * (i - 1) // 2
                expected = b.scale(binom).shift(i) + a_tail.scale(i).shift(i)
                assert cochain.lam[i][1] == expected


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

    def test_wedge_value(self):
        p = 3
        a, b = ga(p, "-1+g+g^2"), ga(p, "1-g")
        params = rep_to_params(a, b)
        assert params.kappaL == VGroupElement(ga(p, "-1"), ga(p, "-g"))


def reference_coboundary(f):
    """The coboundary of f as a 2-cochain, written out: it vanishes on
    (g^i, v1), takes -i f(v1) g^i on (g^i, v2) and sum_j j f_j(v1) v1 g^j on
    the wedge."""
    p = f.p
    zero = GA.zero(p)
    table = tuple((zero, -f.f1.scale(i).shift(i)) for i in range(p))
    wedge = VGroupElement(
        GA.from_coeffs(p, tuple(j * c for j, c in enumerate(f.f1.coeffs))), zero
    )
    return table, wedge


class TestCoboundaryCochain:
    def test_matches_add_coboundary_on_every_slot(self):
        rng = random.Random(9)
        for p in (3, 5):
            for _ in range(30):
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                cochain = coboundary(f)
                table, wedge = reference_coboundary(f)
                assert cochain == DeformationParams(p, table, GA.zero(p), wedge)
                base = build_candidate(GA.random(rng, p), GA.random(rng, p))
                shifted = add_coboundary(base, f)
                for i in range(p):
                    assert shifted.lam[i][0] - base.lam[i][0] == table[i][0]
                    assert shifted.lam[i][1] - base.lam[i][1] == table[i][1]
                assert shifted.kappaL - base.kappaL == wedge
                assert shifted.kappaC == base.kappaC
