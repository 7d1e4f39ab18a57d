"""Resolutions, comparison maps, and the cochain-transfer bridge."""

import random

import pytest

from orbifold.action import VGroupElement
from orbifold.chains import (
    BarGroupChain,
    PeriodicChain,
    bar_basis,
    bar_differential,
    coboundary_cochain,
    distinguished_cocycle,
    iota_chain,
    iota_group,
    periodic_differential,
    pi_group,
    rep_to_params,
    transfer_cochain,
    verify_chain_maps,
)
from orbifold.group_algebra import GroupAlgebraElement as GA
from orbifold.params import CoboundaryData, DeformationParams, add_coboundary, build_candidate


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


def test_verify_guard():
    with pytest.raises(ValueError):
        verify_chain_maps(3, 7)


def test_verify_names_first_witness_of_a_broken_pi(monkeypatch):
    # pi_2 gains a grade-0 term on the one tuple (0, 1, 1, 0), extended
    # linearly; every identity that reads pi_2 fails at its first element
    # in lexicographic order, the others still pass.
    import orbifold.chains as chains

    real, bad = chains.pi_group, (0, 1, 1, 0)

    def broken(n, x):
        out = real(n, x)
        c = x.term_dict().get(bad, 0) if n == 2 else 0
        entries = {(i, j): v for i, j, v in out.entries()}
        entries[0, 0] = entries.get((0, 0), 0) + c
        return PeriodicChain.make(x.p, n, entries)

    monkeypatch.setattr(chains, "pi_group", broken)
    report = verify_chain_maps(3, 3)
    assert not report["passed"]
    failed = [
        (c["identity"], c["degree"], c["witness"]) for c in report["checks"] if not c["passed"]
    ]
    assert failed == [
        ("pi_iota_identity", 2, (2, 0, 2)),
        ("pi_graded", 2, (2, (0, 1, 1, 0))),
        ("pi_commutes_with_differentials", 2, (2, (0, 1, 1, 0))),
        ("pi_commutes_with_differentials", 3, (3, (0, 1, 1, 1, 2))),
    ]
    assert len(report["checks"]) == 3 + 6 + 7 + 7


class TestTransfer:
    def test_wedge_only_cochain(self):
        p = 3
        alpha = VGroupElement(ga(p, "1+g"), ga(p, "g^2"))
        zero = GA.zero(p)
        cochain = transfer_cochain((zero, zero), alpha)
        assert cochain.on_wedge == alpha
        assert all(
            cochain.group_vector(i, m).is_zero() for i in range(p) for m in (1, 2)
        )

    def test_identity_slot_is_empty_sum(self):
        p = 3
        cochain = transfer_cochain((ga(p, "1+g"), ga(p, "g")), VGroupElement.zero(p))
        assert cochain.group_vector(0, 1).is_zero()
        assert cochain.group_vector(0, 2).is_zero()

    def test_distinguished_cocycle_transfer_formulas(self):
        p = 3
        rng = random.Random(5)
        for _ in range(20):
            a, b = GA.random(rng, p), GA.random(rng, p)
            lambda_prime, alpha = distinguished_cocycle(a, b)
            cochain = transfer_cochain(lambda_prime, alpha)
            a_tail = GA.from_coeffs(p, (0,) + a.coeffs[1:])
            for i in range(p):
                assert cochain.group_vector(i, 1) == b.scale(i).shift(i)
                binom = i * (i - 1) // 2
                expected = b.scale(binom).shift(i) + a_tail.scale(i).shift(i)
                assert cochain.group_vector(i, 2) == expected


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


class TestCoboundaryCochain:
    def test_matches_add_coboundary_on_every_slot(self):
        rng = random.Random(9)
        for p in (3, 5):
            for _ in range(30):
                f = CoboundaryData(GA.random(rng, p), GA.random(rng, p))
                cochain = coboundary_cochain(f)
                base = build_candidate(GA.random(rng, p), GA.random(rng, p))
                shifted = add_coboundary(base, f)
                for i in range(p):
                    assert shifted.lam[i][0] - base.lam[i][0] == cochain.group_vector(i, 1)
                    assert shifted.lam[i][1] - base.lam[i][1] == cochain.group_vector(i, 2)
                assert shifted.kappaL - base.kappaL == cochain.on_wedge
