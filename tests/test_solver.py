"""The compatibility system, its linearization, kernels, enumeration, census."""

import dataclasses
import io
import itertools
import json
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbifold.group_algebra import (
    GroupAlgebraElement as GA,
    TooLarge,
    binom_mod,
    digit_rows,
    gminus1_factor_rows,
    gminus1_power,
    scalar_inv,
)
import orbifold.solver as solver
from orbifold.solver import (
    SWEEP_CHUNK_PAIRS,
    SolutionRecord,
    _factors,
    _gminus1_tables,
    _lex_rows,
    _packing,
    _phi_stack,
    _row_index,
    _span_index,
    _sweep_hits,
    _system_tables,
    a_from_c,
    c_from_ab,
    census,
    class_kernel_basis,
    enumerate_solutions,
    kernel_agrees,
    kernel_basis,
    phi_b,
    records_to_csv,
    records_to_json,
    records_to_text,
    span,
    system_residual,
)
from test_group_algebra import reference_mul
from test_params import reference_implied_a

ODD_PRIMES = [p for p in range(3, 98, 2) if all(p % d for d in range(3, p, 2))]


def whole_listing(p, mode="closed_form"):
    """The Listing of every b row as one chunk, as enumerate_solutions builds it."""
    return solver._listing(p, mode, np.arange(p**p))


def ga(p, text):
    return GA.from_text(p, text)


def reference_residual(a, b):
    """The p residuals of the compatibility system summed term by term:
    r_l = a_0 b_l + sum_j b_(l-j) (-C(j+1,2) b_j + j a_j)."""
    p = a.p
    out = [0] * p
    for l in range(p):
        total = a.coeffs[0] * b.coeffs[l]
        for j in range(p):
            total += b.coeffs[(l - j) % p] * (-math.comb(j + 1, 2) * b.coeffs[j] + j * a.coeffs[j])
        out[l] = total
    return GA.from_coeffs(p, out)


def reference_c_from_ab(a, b):
    """c_0 = a_0 and c_m = -C(j+1,2) b_j + j a_j for m + j = 0 mod p, term by
    term: the loop c_from_ab was first written as."""
    p = a.p
    coeffs = [a.coeffs[0]]
    for m in range(1, p):
        j = p - m
        coeffs.append((-binom_mod(j + 1, 2, p) * b.coeffs[j] + j * a.coeffs[j]) % p)
    return GA.from_coeffs(p, coeffs)


def reference_a_from_c(c, b):
    """a_0 = c_0 and a_j = j^(p-2) (c_(p-j) + C(j+1,2) b_j) for 1 <= j < p, term
    by term: the loop a_from_c was first written as."""
    p = c.p
    coeffs = [c.coeffs[0]]
    for j in range(1, p):
        coeffs.append(
            scalar_inv(j, p) * (c.coeffs[p - j] + binom_mod(j + 1, 2, p) * b.coeffs[j]) % p
        )
    return GA.from_coeffs(p, coeffs)


def reference_factor(b):
    """(k, btilde coefficients) the scalar way: the (g-1)-adic coordinates z by
    the binomial transform, k the first nonzero one, and btilde the sum of
    z_(k+i) (g-1)^i expanded back into powers of g."""
    p = b.p
    z = [sum(math.comb(j, i) * x for j, x in enumerate(b.coeffs)) % p for i in range(p)]
    k = next((i for i, zi in enumerate(z) if zi), p)
    if k == p:
        return p, GA.one(p).coeffs
    shifted = z[k:] + [0] * k
    coeffs = [
        sum(zi * (-1) ** ((i - j) % 2) * math.comb(i, j) for i, zi in enumerate(shifted))
        for j in range(p)
    ]
    return k, GA.from_coeffs(p, coeffs).coeffs


class TestSystemResidual:
    def test_running_example_is_a_solution(self):
        assert system_residual(ga(3, "-1+g+g^2"), ga(3, "1-g")).is_zero()

    def test_zero_pair(self):
        assert system_residual(GA.zero(3), GA.zero(3)).is_zero()

    def test_hand_evaluated_nonsolution(self):
        # b = 1, a = g^2: only the j = 2, k = 0 summand survives at l = 2,
        # contributing 2*a_2*b_0 = 2.
        assert system_residual(ga(3, "g^2"), GA.one(3)) == ga(3, "2*g^2")


class TestCyclicPackaging:
    def test_running_example_c(self):
        a, b = ga(3, "-1+g+g^2"), ga(3, "1-g")
        assert c_from_ab(a, b) == ga(3, "-1-g-g^2")

    def test_zero_maps_to_zero(self):
        assert c_from_ab(GA.zero(3), GA.zero(3)).is_zero()

    def test_direct_substitution(self):
        # a = 0, b = g: c_2 = -C(2,2)*1 = -1, c_1 = -C(3,2)*0 = 0.
        assert c_from_ab(GA.zero(3), ga(3, "g")) == ga(3, "-g^2")

    def test_running_example_inverse(self):
        assert a_from_c(ga(3, "-1-g-g^2"), ga(3, "1-g")) == ga(3, "-1+g+g^2")

    def test_c_zero_unit_b(self):
        for b in GA.all_elements(3):
            if b.augmentation() != 0:
                assert a_from_c(GA.zero(3), b) == GA.monomial(3, 1, b.coeffs[1])

    def test_mutually_inverse_exhaustive_p3(self):
        for b in GA.all_elements(3):
            for c in GA.all_elements(3):
                assert c_from_ab(a_from_c(c, b), b) == c
            for a in GA.all_elements(3):
                assert a_from_c(c_from_ab(a, b), b) == a

    def test_mismatched_primes_raise_value_error(self):
        with pytest.raises(ValueError, match="mismatched primes"):
            c_from_ab(GA.one(5), GA.one(3))
        with pytest.raises(ValueError, match="mismatched primes"):
            a_from_c(GA.one(3), GA.one(5))

    @pytest.mark.parametrize("p", [3, 5, 7, 97])
    def test_matrices_equal_the_loops(self, p):
        # c_from_ab and a_from_c read one row of the _packing matrices.
        rng = random.Random(p)
        for _ in range(200 if p < 97 else 50):
            a, c = GA.random(rng, p), GA.random(rng, p)
            b = gminus1_power(p, rng.randrange(p + 1)) * GA.random(rng, p)
            assert c_from_ab(a, b) == reference_c_from_ab(a, b)
            assert a_from_c(c, b) == reference_a_from_c(c, b)
            assert a_from_c(c_from_ab(a, b), b) == a
            assert c_from_ab(a_from_c(c, b), b) == c

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_unpacking_inverts_packing(self, p):
        pack, unpack, pack_b = _packing(p)
        eye = np.eye(p, dtype=np.int64)
        assert np.array_equal(pack @ unpack % p, eye)
        assert np.array_equal(unpack @ pack % p, eye)
        assert not any(m.flags.writeable for m in (pack, unpack, pack_b))


class TestPhiB:
    def test_zero(self):
        assert phi_b(ga(3, "1-g"), GA.zero(3)).is_zero()

    def test_identity_coefficient_is_dot_product(self):
        rng = random.Random(3)
        for _ in range(50):
            b, c = GA.random(rng, 3), GA.random(rng, 3)
            expected = sum(bi * ci for bi, ci in zip(b.coeffs, c.coeffs)) % 3
            assert phi_b(b, c).coeffs[0] == expected

    def test_equivalent_to_system_exhaustive_p3(self):
        for b in GA.all_elements(3):
            for c in GA.all_elements(3):
                a = a_from_c(c, b)
                assert phi_b(b, c).is_zero() == system_residual(a, b).is_zero()

    def test_equivalent_to_system_random_p5(self):
        rng = random.Random(5)
        for _ in range(2000):
            a, b = GA.random(rng, 5), GA.random(rng, 5)
            c = c_from_ab(a, b)
            assert phi_b(b, c).is_zero() == system_residual(a, b).is_zero()

    def test_residual_is_phi_b_of_c_every_pair_p3(self):
        # Not only the zero sets: the residual is phi_b(c) itself.
        for a in GA.all_elements(3):
            for b in GA.all_elements(3):
                assert system_residual(a, b) == phi_b(b, c_from_ab(a, b))

    @pytest.mark.parametrize("p", [3, 5, 7, 97])
    def test_stack_equals_the_convolution(self, p):
        # phi_b reads one matrix of _phi_stack, whose row j is b g^(-j).
        rng = random.Random(p)
        for _ in range(100 if p < 97 else 30):
            b = gminus1_power(p, rng.randrange(p + 1)) * GA.random(rng, p)
            c = GA.random(rng, p)
            assert phi_b(b, c) == b * c.sigma() == reference_mul(b, c.sigma())
            rows = [tuple(row) for row in _phi_stack(p, np.array([b.coeffs]))[0].tolist()]
            assert rows == [reference_mul(b, GA.g(p, -j)).coeffs for j in range(p)]

    @pytest.mark.parametrize("p, n", [(5, 400), (7, 200), (97, 20)])
    def test_residual_is_phi_b_of_c_sampled(self, p, n):
        rng = random.Random(p)
        for _ in range(n):
            a = GA.random(rng, p)
            b = gminus1_power(p, rng.randrange(p + 1)) * GA.random(rng, p)
            assert system_residual(a, b) == phi_b(b, c_from_ab(a, b))


def assert_system_is_phi_of_packing(p, rows):
    """_system_tables(p, rows) == (P Phi_b, (b Q) Phi_b) mod p for each row b."""
    lin, const = _system_tables(p, rows)
    pack, _, pack_b = solver._packing(p)
    phi = _phi_stack(p, rows)
    assert np.array_equal(lin, pack @ phi % p)
    assert np.array_equal(const, np.einsum("ij,ijl->il", rows @ pack_b, phi) % p)


class TestSystemIsPhiOfPacking:
    """The exact link from the system to phi_b after c_from_ab.  The residual
    is a lin(b) + const(b) and phi_b(c_from_ab(a, b)) = a P Phi_b + (b Q) Phi_b,
    so equal tables give equal residuals for every a at once."""

    @pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p <= 31])
    def test_every_b(self, p):
        # lin is linear in b, so 0 and the basis vectors e_i decide it.  const
        # is quadratic in b, and over F_p with p odd a polynomial of degree
        # <= 2 vanishes identically once it vanishes at 0, every +-e_i and
        # every e_i + e_j: this proves the identity for every (a, b) at p.
        eye = np.eye(p, dtype=np.int64)
        i, j = np.triu_indices(p, 1)
        points = np.concatenate([np.zeros((1, p), np.int64), eye, -eye % p, eye[i] + eye[j]])
        assert len(points) == 1 + 2 * p + p * (p - 1) // 2
        assert_system_is_phi_of_packing(p, points)

    def test_seeded_b_p97(self):
        rng = random.Random(97)
        bs = [gminus1_power(97, rng.randrange(98)) * GA.random(rng, 97) for _ in range(50)]
        assert_system_is_phi_of_packing(97, np.array([b.coeffs for b in bs]))

    def test_sees_a_wrong_packing(self, monkeypatch):
        pack, unpack, pack_b = _packing(5)
        monkeypatch.setattr(solver, "_packing", lambda p: (pack, unpack, pack_b * 2 % p))
        with pytest.raises(AssertionError):
            assert_system_is_phi_of_packing(5, _lex_rows(5, 2) @ np.eye(2, 5, dtype=np.int64))


class TestKernel:
    def test_running_example_kernel(self):
        b = ga(3, "1-g")
        basis = kernel_basis(b)
        assert basis == (ga(3, "1+g+g^2"),)
        assert set(span(3, basis)) == {GA.zero(3), ga(3, "1+g+g^2"), ga(3, "-1-g-g^2")}

    def test_unit_b_trivial_kernel(self):
        assert kernel_basis(GA.one(3)) == ()
        assert kernel_agrees(GA.one(3))

    def test_zero_b_full_kernel(self):
        basis = kernel_basis(GA.zero(3))
        assert len(basis) == 3
        assert len(set(span(3, basis))) == 27

    def test_basis_elements_are_gminus1_powers(self):
        b = gminus1_power(5, 2)  # k = 2
        assert kernel_basis(b) == (gminus1_power(5, 4), gminus1_power(5, 3))

    @pytest.mark.parametrize("k", [-1, 4, 5])
    def test_class_kernel_basis_refuses_k_outside_0_to_p(self, k):
        with pytest.raises(ValueError, match=re.escape(f"class k must be in [0, 3], got {k}")):
            class_kernel_basis(3, k)

    def test_bruteforce_equals_span_p3(self):
        for b in GA.all_elements(3):
            assert kernel_agrees(b)

    def test_bruteforce_guard(self):
        with pytest.raises(TooLarge):
            kernel_agrees(GA.one(11))

    def test_agrees_on_every_b(self):
        for p in (3, 5):
            assert all(kernel_agrees(b) is True for b in GA.all_elements(p))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_packed_span_is_the_row_index_of_the_span(self, p):
        # kernel_agrees reads the span's row indices off the packed sums; they
        # are those of the coefficient rows, in the same order, for every class.
        for k in range(p + 1):
            basis = class_kernel_basis(p, k)
            rows = _lex_rows(p, k) @ np.array([e.coeffs for e in basis]).reshape(k, p) % p
            assert np.array_equal(_span_index(p, basis), _row_index(p, rows))

    def test_zero_b_at_p7_memory_is_bounded(self):
        # The zero b at p = 7 has all 823,543 rows as hits, 13 MB of int64
        # (i, x) pairs, near 21 MB at the peak; the sweep returns its one
        # chunk as it is cut, and a copy of the hits on the way out passes 27 MB.
        tracemalloc.start()
        try:
            assert kernel_agrees(GA.zero(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 27 * 10**6

    def test_agrees_sees_a_wrong_basis(self, monkeypatch):
        import orbifold.solver as solver

        monkeypatch.setattr(solver, "kernel_basis", lambda b: (gminus1_power(b.p, b.p - 2),))
        assert not kernel_agrees(ga(5, "1-g"))

    @staticmethod
    def reference_span(p, basis):
        """span as one element sum per coordinate tuple, the way it was first
        written."""
        out = []
        for coords in itertools.product(range(p), repeat=len(basis)):
            acc = GA.zero(p)
            for t, e in zip(coords, basis):
                acc = acc + e.scale(t)
            out.append(acc)
        return out

    # Past p^p > 10^7 (p = 11) and past k = p (a dependent list) too.
    @pytest.mark.parametrize("p, k", [(3, 0), (3, 2), (3, 4), (5, 3), (7, 2), (11, 1)])
    def test_span_equals_reference(self, p, k):
        rng = random.Random(10 * p + k)
        basis = [GA.random(rng, p) for _ in range(k)]
        assert span(p, iter(basis)) == self.reference_span(p, basis)


class TestEnumeration:
    def test_p3_total(self):
        records = enumerate_solutions(3)
        assert sum(len(r.solutions) for r in records) == 81

    def test_p3_gminus1_squared_row(self):
        records = enumerate_solutions(3)
        target = gminus1_power(3, 2)
        rec = next(r for r in records if r.b == target)
        avals = {a for _c, a in rec.solutions}
        assert len(avals) == 9
        for text in ("1", "g", "-g^2", "1+g+g^2"):
            assert ga(3, text) in avals

    def test_every_solution_solves_the_system(self):
        for rec in enumerate_solutions(3):
            assert len(rec.solutions) == 3**rec.k
            for c, a in rec.solutions:
                assert system_residual(a, rec.b).is_zero()
                assert phi_b(rec.b, c).is_zero()

    def test_brute_force_agrees_p3(self):
        closed = enumerate_solutions(3, "closed_form")
        brute = enumerate_solutions(3, "brute_force")
        assert len(closed) == len(brute) == 27
        for rc, rb in zip(closed, brute):
            assert rc.b == rb.b
            assert set(rc.solutions) == set(rb.solutions)

    def test_brute_force_guard(self):
        with pytest.raises(TooLarge):
            enumerate_solutions(7, "brute_force")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_solutions(3, "guess")


class TestExactCoefficients:
    """(-1) ** n is a float for negative n; no float may reach an element."""

    @staticmethod
    def all_int(elements):
        return all(type(c) is int for e in elements for c in e.coeffs)

    def test_enumeration_p5(self):
        for rec in enumerate_solutions(5):
            assert self.all_int([rec.b, rec.btilde, *rec.kernel_basis])
            assert self.all_int([x for pair in rec.solutions for x in pair])

    def test_kernel_basis_p7_every_class(self):
        rng = random.Random(7)
        for k in range(8):
            unit = GA.one(7) + gminus1_power(7, 1) * GA.random(rng, 7)
            b = gminus1_power(7, k) * unit
            basis = kernel_basis(b)
            assert len(basis) == k
            assert self.all_int([*basis, b.gminus1_factor().btilde])


class TestCensus:
    def test_p3_rows(self):
        assert census(3) == [
            {"k": 0, "b_class_size": 18, "a_per_b": 1},
            {"k": 1, "b_class_size": 6, "a_per_b": 3},
            {"k": 2, "b_class_size": 2, "a_per_b": 9},
            {"k": 3, "b_class_size": 1, "a_per_b": 27},
        ]

    def test_census_matches_enumeration(self):
        records = enumerate_solutions(3)
        for row in census(3):
            group = [r for r in records if r.k == row["k"]]
            assert len(group) == row["b_class_size"]
            assert all(len(r.solutions) == row["a_per_b"] for r in group)

    def test_totals(self):
        for p in (3, 5, 7):
            assert sum(r["b_class_size"] * r["a_per_b"] for r in census(p)) == p ** (p + 1)
            assert sum(r["b_class_size"] for r in census(p)) == p**p


def reference_records_json(p, records, tail):
    """The listing as one payload dict through json.dumps, the way the JSON
    output was first written; records_to_json must write the same text."""
    payload = {"p": p, "records": [
        {
            "b": list(r.b.coeffs),
            "k": r.k,
            "btilde": list(r.btilde.coeffs),
            "kernel": [list(e.coeffs) for e in r.kernel_basis],
            "solutions": [{"c": list(c.coeffs), "a": list(a.coeffs)} for c, a in r.solutions],
        }
        for r in records
    ]}
    payload.update(tail)
    return json.dumps(payload) + "\n"


def reference_records_csv(records):
    """One "b,a" line per solution of the records, each element through
    to_text."""
    lines = [f"{r.b.to_text()},{a.to_text()}\n" for r in records for _c, a in r.solutions]
    return "b,a\n" + "".join(lines)


def reference_records_text(p, records):
    """The solution table from the records grouped by class in a dict, the
    way the text table was first written."""
    by_k = {}
    for r in records:
        by_k.setdefault(r.k, []).append(r)
    lines = [f"solution table for p = {p}: {sum(len(r.solutions) for r in records)} (b, a) pairs"]
    for k in sorted(by_k):
        group = by_k[k]
        lines.append(f"[k = {k}] {len(group)} b-value(s), {len(group[0].solutions)} solution(s) per b")
        for r in group:
            lines.append(f"b = {r.b.to_text()} :: a = {' | '.join(a.to_text() for _c, a in r.solutions)}")
    return "\n".join(lines) + "\n"


# The writers and enumerate_solutions are two consumers of one Listing; each
# writer must give the text of its reference written from the records.
@pytest.mark.parametrize("with_tail", [False, True])
@pytest.mark.parametrize("mode", ["closed_form", "brute_force"])
@pytest.mark.parametrize("p", [3, 5])
def test_json_writer_equals_json_dumps(p, mode, with_tail):
    records = enumerate_solutions(p, mode)
    tail = {"census": [{"k": r["k"], "n": r["b_class_size"]} for r in census(p)], "total": 7}
    tail = tail if with_tail else {}
    out = io.StringIO()
    assert records_to_json(p, out, mode, lambda total: tail) == p ** (p + 1)
    assert out.getvalue() == reference_records_json(p, records, tail)


@pytest.mark.parametrize("mode", ["closed_form", "brute_force"])
@pytest.mark.parametrize("p", [3, 5])
def test_csv_writer_equals_records(p, mode):
    out = io.StringIO()
    assert records_to_csv(p, out, mode) == p ** (p + 1)
    assert out.getvalue() == reference_records_csv(enumerate_solutions(p, mode))


@pytest.mark.parametrize("mode", ["closed_form", "brute_force"])
@pytest.mark.parametrize("p", [3, 5])
def test_text_writer_equals_records(p, mode):
    out = io.StringIO()
    assert records_to_text(p, out, mode) == p ** (p + 1)
    assert out.getvalue() == reference_records_text(p, enumerate_solutions(p, mode))


@pytest.mark.parametrize("writer, n_writes", [
    pytest.param(records_to_csv, 1 + 1, id="csv"),  # the header, the listing
    pytest.param(records_to_text, 1 + 4, id="text"),  # the count line, one write per class
])
def test_csv_and_text_writers_write_a_small_listing_at_once(monkeypatch, writer, n_writes):
    # The 81 pairs at p = 3 fit in one piece of the default size: one write
    # for all 27 b (one per class for the text table), not one per b.
    assert whole_listing(3).total <= solver.WRITE_PIECE_PAIRS
    writes = []
    out = io.StringIO()
    monkeypatch.setattr(out, "write", writes.append)
    writer(3, out)
    assert len(writes) == n_writes


def test_json_writer_writes_a_small_listing_at_once(monkeypatch):
    # All 27 JSON records in one write, plus the head and the tail.
    writes = []
    out = io.StringIO()
    monkeypatch.setattr(out, "write", writes.append)
    records_to_json(3, out)
    assert len(writes) == 1 + 2
    assert json.loads("".join(writes))["records"][0]["k"] == 3
    assert writes[1].count('"b": ') == 3**3


@pytest.mark.parametrize("writer, pairs_in, extra", [
    # The JSON head and tail.
    pytest.param(lambda p, out: records_to_json(p, out, tail=lambda total: {"total": total}),
                 lambda text: text.count('"a": '), 2, id="json"),
    # The header.
    pytest.param(records_to_csv, lambda text: text.count("\n"), 1, id="csv"),
    # The count line, and one walk per class.
    pytest.param(records_to_text, lambda text: text.count(":: a = ") + text.count(" | "),
                 1 + 4, id="text"),
])
def test_writers_split_large_b_into_pieces(monkeypatch, writer, pairs_in, extra):
    # With pieces of 7 pairs, no write carries more than 7 of the 81 pairs,
    # the writes are about 81 / 7, and they join to the text of one default run.
    whole, pieces = [], []
    out = io.StringIO()
    monkeypatch.setattr(out, "write", whole.append)
    writer(3, out)
    monkeypatch.setattr(solver, "WRITE_PIECE_PAIRS", 7)
    monkeypatch.setattr(out, "write", pieces.append)
    writer(3, out)
    assert "".join(pieces) == "".join(whole)
    assert max(map(pairs_in, pieces)) <= 7
    assert len(pieces) <= math.ceil(81 / 7) + extra


real_listing = solver._listing


def drop_pairs(listing, i, n=None):
    """listing without the first n pairs (all of them by default) of its b at position i."""
    n = listing.counts[i] if n is None else n
    start = listing.ends[i] - listing.counts[i]
    keep = np.r_[0:start, start + n:listing.total]
    ends = listing.ends.copy()
    ends[i:] -= n
    c = None if listing.c is None else listing.c[keep]
    return dataclasses.replace(listing, ends=ends, c=c, a=listing.a[keep])


@pytest.mark.parametrize("writer", [
    pytest.param(records_to_json, id="json"),
    pytest.param(records_to_csv, id="csv"),
    pytest.param(records_to_text, id="text"),
])
def test_writers_refuse_a_b_with_no_solutions(monkeypatch, writer):
    # Every b has a solution; a chunk that shows none for its first b is
    # broken, and the writers say so rather than leave the b out.
    monkeypatch.setattr(solver, "_listing",
                        lambda *args, **kw: drop_pairs(real_listing(*args, **kw), 0))
    for mode in ("closed_form", "brute_force"):
        with pytest.raises(ValueError, match="no solutions"):
            writer(3, io.StringIO(), mode)


def test_brute_force_counts_come_from_the_hits(monkeypatch, capsys):
    # Drop the sweep's last hit: the brute-force listing must show one
    # solution fewer for the last b, not the p^k the theorem predicts, and
    # enumerate must report the mismatch.
    import orbifold.solver as solver
    from orbifold.cli import main

    sweep = solver._sweep_hits
    monkeypatch.setattr(solver, "_sweep_hits", lambda *args: tuple(x[:-1] for x in sweep(*args)))
    brute = np.diff(whole_listing(3, "brute_force").ends, prepend=0)
    closed = np.diff(whole_listing(3).ends, prepend=0)
    assert (closed - brute).tolist() == [0] * 26 + [1]
    assert main(["enumerate", "--p", "3", "--mode", "brute_force", "--format", "csv"]) == 2
    assert capsys.readouterr().err == "count mismatch: 80 != 81\n"


@pytest.mark.parametrize("mode", ["closed_form", "brute_force"])
@pytest.mark.parametrize("p", [3, 5])
def test_take_is_the_listing_of_those_rows(p, mode):
    # A listing taken from the whole one at some positions, in any order,
    # is the listing built from those rows alone.
    positions = np.random.default_rng(p).permutation(p**p)[: p**p // 3]
    taken, built = whole_listing(p, mode).take(positions), real_listing(p, mode, positions)
    for field in ("b", "ends", "c", "a"):
        assert np.array_equal(getattr(taken, field), getattr(built, field)), field


@pytest.mark.parametrize("writer", [records_to_json, records_to_csv, records_to_text])
def test_writing_the_p5_listing_in_small_chunks_is_bounded(monkeypatch, writer):
    # Chunks of 64 rows peak near 0.5-0.7 MB traced; one chunk of all 3125
    # rows peaks near 1.2 MB for the CSV and 2 MB for the JSON.
    class Discard:
        def write(self, text):
            pass

    monkeypatch.setattr(solver, "LISTING_CHUNK_ROWS", 64)
    writer(5, Discard())  # warm the caches
    tracemalloc.start()
    try:
        writer(5, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_csv_export_shape():
    out = io.StringIO()
    records_to_csv(3, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "b,a"
    assert len(lines) == 82


def test_closed_form_coordinates_match_kernel_description():
    # The free coordinates d weight the kernel basis: c = sum_m d_m (g-1)^(p-m)
    # is in the kernel, and a_from_c takes it to the a of the paper's formula.
    from orbifold.params import implied_a

    rng = random.Random(37)
    for p in (3, 5, 7):
        for _ in range(60):
            b = GA.random(rng, p)
            k = b.gminus1_factor().k
            d = [rng.randrange(p) for _ in range(k)]
            c = GA.zero(p)
            for m, dm in enumerate(d, start=1):
                c = c + gminus1_power(p, p - m).scale(dm)
            assert a_from_c(c, b) == implied_a(b, d) == reference_implied_a(b, d)
            assert phi_b(b, c).is_zero()


def elements(p):
    return st.lists(st.integers(0, p - 1), min_size=p, max_size=p).map(
        lambda coeffs: GA.from_coeffs(p, coeffs)
    )


@st.composite
def b_of_any_class(draw, p):
    """b of (g-1)-adic class k, every class 0..p equally likely."""
    unit = GA.one(p) + gminus1_power(p, 1) * draw(elements(p))
    return gminus1_power(p, draw(st.integers(0, p))) * unit


class TestArrayPath:
    """The array enumeration against the element-level functions it replaces."""

    @staticmethod
    def assert_factors_agree(p, bs):
        # Against the scalar reference and the defining property: b is
        # (g-1)^k btilde with btilde a unit.
        ks, btildes = gminus1_factor_rows(p, np.array([b.coeffs for b in bs], dtype=np.int64))
        for b, k, btilde in zip(bs, ks.tolist(), btildes.tolist()):
            fact = b.gminus1_factor()
            assert (k, tuple(btilde)) == (fact.k, fact.btilde.coeffs) == reference_factor(b)
            assert gminus1_power(p, k) * fact.btilde == b and fact.btilde.augmentation() != 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_factor_rows_every_b(self, p):
        self.assert_factors_agree(p, list(GA.all_elements(p)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(b_of_any_class(7), min_size=1, max_size=8))
    def test_factor_rows_sample_p7(self, bs):
        self.assert_factors_agree(7, bs)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_index_factors_equal_the_row_factors(self, p):
        # The listings factor each b from its row index by two gathers through
        # read-only tables; gminus1_factor_rows, then _row_index, is the reference.
        index = np.arange(p**p)
        ks, btilde = _factors(p, index)
        expected_ks, btilde_rows = gminus1_factor_rows(p, digit_rows(p, p, index))
        assert (ks.dtype, btilde.dtype) == (np.int8, np.int32)
        assert np.array_equal(ks, expected_ks)
        assert np.array_equal(btilde, _row_index(p, btilde_rows))
        sizes = [p ** (p - k - 1) * (p - 1) for k in range(p)] + [1]
        assert np.bincount(ks, minlength=p + 1).tolist() == sizes
        assert not any(table.flags.writeable for table in _gminus1_tables(p))

    @staticmethod
    def reference_record(b):
        fact = b.gminus1_factor()
        basis = kernel_basis(b)
        solutions = tuple((c, a_from_c(c, b)) for c in span(b.p, basis))
        return SolutionRecord(b, fact.k, fact.btilde, basis, solutions)

    @pytest.mark.parametrize("p", [3, 5])
    def test_closed_form_equals_reference(self, p):
        records = enumerate_solutions(p)
        assert len(records) == p**p
        for rec, b in zip(records, GA.all_elements(p)):
            assert rec == self.reference_record(b)

    def test_brute_force_pairs_p5(self):
        closed = enumerate_solutions(5)
        for rec, rc in zip(enumerate_solutions(5, "brute_force"), closed):
            assert (rec.b, rec.k, rec.btilde, rec.kernel_basis) == (
                rc.b, rc.k, rc.btilde, rc.kernel_basis
            )
            assert set(rec.solutions) == set(rc.solutions)
            avals = [a.coeffs for _c, a in rec.solutions]
            assert avals == sorted(avals)  # the sweep's row order
            assert all(c == c_from_ab(a, rec.b) for c, a in rec.solutions)

    def test_elements_are_shared(self):
        records = enumerate_solutions(3)
        by_value = {rec.b: rec.b for rec in records}
        for rec in records:
            assert rec.btilde is by_value[rec.btilde]
            for c, a in rec.solutions:
                assert c is by_value[c] and a is by_value[a]

    def test_row_limit_fails_before_any_sweep(self):
        with pytest.raises(TooLarge, match="p\\^p = 285311670611 .* 10000000"):
            enumerate_solutions(11)


def reference_brute_force_hits(b):
    """Row indices of all a with system_residual(a, b) = 0: one residual
    product per b, with the affine coefficients written out by hand (the
    sweep before the split comparison)."""
    p = b.p
    rows = _lex_rows(p, p)
    lin = np.empty((p, p), dtype=np.int64)
    const = np.empty(p, dtype=np.int64)
    for l in range(p):
        lin[l, 0] = b.coeffs[l]
        for j in range(1, p):
            lin[l, j] = (j * b.coeffs[(l - j) % p]) % p
        const[l] = (
            -sum(binom_mod(j + 1, 2, p) * b.coeffs[j] * b.coeffs[(l - j) % p] for j in range(p))
        ) % p
    residuals = (rows @ lin.T + const) % p
    return np.flatnonzero(~residuals.any(axis=1))


def sweep_hits(p, bs):
    """The split comparison's hits for each b in bs, as one row-index array per b."""
    b_index, a_index = _sweep_hits(
        p, *_system_tables(p, np.array([b.coeffs for b in bs], dtype=np.int64))
    )
    return np.split(a_index, np.cumsum(np.bincount(b_index, minlength=len(bs)))[:-1])


class TestPairSweep:
    """The split comparison against the per-b residual sweep and the system itself."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_equals_reference_every_b(self, p):
        bs = list(GA.all_elements(p))
        for b, hits in zip(bs, sweep_hits(p, bs)):
            assert np.array_equal(hits, reference_brute_force_hits(b)), b

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_tables_give_the_residual(self, p):
        # The residual values, not only their zeros: b_(l+j) in place of
        # b_(l-j) has the same zero set, since the antipode g -> g^-1 maps
        # the annihilator of b onto itself.
        @settings(max_examples=40, deadline=None)
        @given(elements(p), b_of_any_class(p))
        def check(a, b):
            # system_residual is the one-row case of _system_tables.
            assert system_residual(a, b) == reference_residual(a, b)

        check()

    @pytest.mark.parametrize("p", [3, 5])
    def test_hits_are_the_solutions(self, p):
        @settings(max_examples=12, deadline=None)
        @given(b_of_any_class(p))
        def check(b):
            [hits] = sweep_hits(p, [b])
            solutions = [
                i for i, a in enumerate(GA.all_elements(p)) if system_residual(a, b).is_zero()
            ]
            assert hits.tolist() == solutions

        check()


def reference_sweep_hits(p, lin, const):
    """The pair sweep as one broadcast equality per chunk of rows, the way
    _sweep_hits was first written; the join must give the same arrays."""
    h = p // 2
    rows = _lex_rows(p, p)
    x_hi, x_lo = rows[: p**h, p - h:], rows[: p ** (p - h), h:]
    chunk = max(1, SWEEP_CHUNK_PAIRS // p**p)
    found_i, found_x = [], []
    for start in range(0, len(lin), chunk):
        part = lin[start:start + chunk]
        left = -(const[start:start + chunk, None] + x_hi @ part[:, :h])
        right = x_lo @ part[:, h:]
        i, hi, lo = np.nonzero(
            _row_index(p, left % p)[:, :, None] == _row_index(p, right % p)[:, None, :]
        )
        found_i.append(i + start)
        found_x.append(hi * p ** (p - h) + lo)
    return np.concatenate(found_i), np.concatenate(found_x)


def assert_join_equals_broadcast(p, lin, const):
    (i, x), (ref_i, ref_x) = _sweep_hits(p, lin, const), reference_sweep_hits(p, lin, const)
    assert np.array_equal(i, ref_i) and np.array_equal(x, ref_x)


def system_rows(p, n):
    """n drawn (lin, const) tables of an affine map on F_p^p, entries in [0, p)."""
    size = n * (p + 1) * p
    return st.lists(st.integers(0, p - 1), min_size=size, max_size=size).map(
        lambda xs: (np.reshape(xs[: n * p * p], (n, p, p)), np.reshape(xs[n * p * p:], (n, p)))
    )


class TestJoin:
    """The presence-table join of _sweep_hits against the broadcast sweep of
    reference_sweep_hits."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_every_b(self, p):
        assert_join_equals_broadcast(p, *_system_tables(p, _lex_rows(p, p)))

    @pytest.mark.parametrize("p, chunk", [(3, 2), (3, 13), (5, 4), (5, 1562)])
    def test_uneven_chunks(self, monkeypatch, p, chunk):
        # Uneven chunks of rows whose last chunk is a single row, so that the
        # row offset of a remainder chunk is exercised.
        assert p**p % chunk == 1
        monkeypatch.setattr(solver, "SWEEP_CHUNK_PAIRS", chunk * p**p)
        assert_join_equals_broadcast(p, *_system_tables(p, _lex_rows(p, p)))

    def test_memory_is_bounded(self):
        # All 3125 rows at p = 5 peak near 1.55 MB: the digit tables of every
        # row (0.55 MB), one presence table of 125 rows that every chunk
        # reuses, and the hits; one presence table for every row passes 2 MB.
        lin, const = _system_tables(5, _lex_rows(5, 5))
        tracemalloc.start()
        try:
            _sweep_hits(5, lin, const)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    @pytest.mark.parametrize("entry", [5, -1])
    def test_entries_outside_the_field_are_refused(self, entry):
        # The digit tables are sums reduced as min(s, s - p), right only for
        # entries in [0, p): p or -1 in lin or in const is refused.
        lin, const = _system_tables(5, _lex_rows(5, 5)[:3])
        bad_lin, bad_const = lin.astype(np.int64), const.copy()
        bad_lin[1, 2, 3] = bad_const[1, 2] = entry
        for name, tables in (("lin", (bad_lin, const)), ("const", (lin, bad_const))):
            with pytest.raises(ValueError, match=rf"entries of {name} must lie in \[0, 5\)"):
                _sweep_hits(5, *tables)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_drawn_rows(self, p):
        @settings(max_examples=25 if p < 7 else 10, deadline=None)
        @given(st.integers(1, 3).flatmap(lambda n: system_rows(p, n)))
        def check(tables):
            assert_join_equals_broadcast(p, *tables)

        check()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_zero_map(self, p):
        # lin = 0: every x is a hit when const = 0, and none when it is not.
        lin = np.zeros((2, p, p), dtype=np.int64)
        const = np.zeros((2, p), dtype=np.int64)
        const[1, p - 1] = 1
        i, x = _sweep_hits(p, lin, const)
        assert np.array_equal(i, np.zeros(p**p)) and np.array_equal(x, np.arange(p**p))
        assert_join_equals_broadcast(p, lin, const)

    def test_int32_packing_p7(self):
        # 7^7 packed values pass int16; one b per class, p^k hits each.
        bs = [gminus1_power(7, k) * ga(7, "1 + g^3") for k in range(8)]
        lin, const = _system_tables(7, np.array([b.coeffs for b in bs], dtype=np.int64))
        assert_join_equals_broadcast(7, lin, const)
        assert np.bincount(_sweep_hits(7, lin, const)[0]).tolist() == [7**k for k in range(8)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_round_trips(p):
    @settings(max_examples=50, deadline=None)
    @given(elements(p), elements(p))
    def check(a, b):
        assert a_from_c(c_from_ab(a, b), b) == a
        assert GA.from_text(p, a.to_text()) == a

    check()


def test_guard_variable_has_no_effect(monkeypatch):
    # The work limit is fixed: ORBIFOLD_MAX_P in the environment moves it
    # for neither sweep, and both are refused before any work.
    monkeypatch.setenv("ORBIFOLD_MAX_P", "11")
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="coefficient rows"):
        kernel_agrees(GA.one(11))
    with pytest.raises(TooLarge, match=re.escape(
            "p^(2p) = 678223072849 (a, b) pairs is past the limit of 10000000")):
        enumerate_solutions(7, "brute_force")
    assert time.perf_counter() - start < 1
