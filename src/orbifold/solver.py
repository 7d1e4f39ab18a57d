"""Solving and classifying the quadratic compatibility system for (a, b).

The bracket condition on the candidate parameter family reduces to p scalar
equations

    0 = a_0 b_l + sum_{j+k = l (mod p)} b_k * (-C(j+1,2) b_j + j a_j),

one per l in [0, p), written once as _system_tables; system_residual is its
one-row case.  The system is quadratic in the pair but linear once b is
fixed: the packing c = a P + b Q (c_0 = a_0, c_m = -C(j+1,2) b_j + j a_j with
j = p - m), whose matrices and P^-1 are _packing, turns it into phi_b(c) =
b * sigma(c) = 0, whose matrices, one per b, are _phi_stack.  Its kernel is
spanned by the powers (g-1)^(p-j) for 0 <= j <= k, k the (g-1)-adic class of
b, giving p^k solutions per b and p^(p+1) in total; params.implied_a is
a_from_c of the kernel element with coordinates d.

Both enumeration modes work on integer arrays whose rows are coefficient
vectors; row i of the p^p-row table is the element whose base-p value is i.
A Listing holds the solutions of some b rows, the same for both modes: the
b row indices, and flat c and a row-index arrays in b order with cumulative
offsets.  The class k and the btilde row of a b come from its row index
alone, through the permutation between row indices and base-p values of
(g-1)-adic coordinates (_gminus1_tables, see _factors): two gathers per b,
with group_algebra.gminus1_factor_rows, the one-element path, as the
reference; they are read where they are printed, and the kernel basis of
class k is _class_bases(p)[k].  The closed form uses that the kernel
depends on b only through its class k and that a = c P^-1 - b Q P^-1 is
affine in c: per class it packs, from uint8 digit sums as _packed_sums
does, the row index of each of the kernel's p^k points c and of the a that
c gives for every b of the class.
Brute force, the independent check, decides every pair (a, b) with the
system itself as one exact meet-in-the-middle join: a prefix of a, which
carries the constant, and the shorter suffix each pack a part of the
residual from uint8 digit tables built by addition and reduced by
wrap-around, a presence table of the suffix parts of each b picks the
prefix parts that are compared with them, and its hits give the offsets.

The writers stream: they walk the b rows in chunks (LISTING_CHUNK_ROWS),
and build, render and write each chunk's Listing before the next, so no
array of every pair is held.  CSV and JSON walk the rows in order; the text
table walks each class's members, whose classes come from one _factors call
over all rows.  Every element's text is a row of one object array per call
(GroupAlgebraElement.all_texts, or the coefficient lists for the JSON), and
a piece of at most WRITE_PIECE_PAIRS pairs is one object array
of cells, gathered from it with the b heads built once per chunk, joined
once; the CSV repeats each b's head once per pair, the text table and the
JSON open each b with it.  The JSON is the text json.dumps would give.
enumerate_solutions builds the listing of all rows as one chunk and turns
it into SolutionRecords for library callers; census gives the class sizes
as the plain rows the CLI prints.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Mapping, Sequence, TextIO

import numpy as np

from .group_algebra import (
    GroupAlgebraElement,
    binom_mod,
    check_prime,
    check_work,
    digit_rows,
    gminus1_power,
    same_prime,
    scalar_inv,
    shift_index,
    sum_index,
)

#: Pairs decided per chunk of the pair sweep, one presence-table byte each:
#: 125 rows of b at p = 5, one at p = 7.  One table serves every chunk of a
#: call; with the digit tables of all 3,125 rows a p = 5 sweep peaks near 1.6 MB.
SWEEP_CHUNK_PAIRS = 5**8
#: Most solution pairs in one write of the listing writers, so that a b with
#: many solutions (the zero b has p^p) is never rendered as one string.
WRITE_PIECE_PAIRS = 2**12
#: b rows the listing writers map and render at a time: all of them at
#: p = 5, 201 chunks at p = 7.  A chunk of the text table's class
#: walk holds as many pairs, LISTING_CHUNK_ROWS p, p being the mean number
#: of solutions of a b: LISTING_CHUNK_ROWS p / p^k b of class k, at least one.
LISTING_CHUNK_ROWS = 2**12

EnumerationMode = Literal["closed_form", "brute_force"]


@dataclass(frozen=True)
class SolutionRecord:
    """All solutions a for one fixed b, together with its kernel data."""

    b: GroupAlgebraElement
    k: int
    btilde: GroupAlgebraElement
    kernel_basis: tuple[GroupAlgebraElement, ...]
    solutions: tuple[tuple[GroupAlgebraElement, GroupAlgebraElement], ...]  # (c, a)


def system_residual(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """The residuals r_l of the system as the element sum_l r_l g^l: one row of _system_tables."""
    p = same_prime(a.p, b.p)
    lin, const = _system_tables(p, np.array([b.coeffs]))
    return GroupAlgebraElement(p, tuple(((np.array(a.coeffs) @ lin[0] + const[0]) % p).tolist()))


def c_from_ab(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Package (a, b) into the cyclic coefficient vector c = a P + b Q (see _packing)."""
    p = same_prime(a.p, b.p)
    pack, _, pack_b = _packing(p)
    c = np.array(a.coeffs) @ pack + np.array(b.coeffs) @ pack_b
    return GroupAlgebraElement(p, tuple((c % p).tolist()))


def a_from_c(c: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Invert c_from_ab on the a-coordinate for fixed b: a = (c - b Q) P^-1."""
    p = same_prime(c.p, b.p)
    _, unpack, pack_b = _packing(p)
    a = (np.array(c.coeffs) - np.array(b.coeffs) @ pack_b) @ unpack
    return GroupAlgebraElement(p, tuple((a % p).tolist()))


def phi_b(b: GroupAlgebraElement, c: GroupAlgebraElement) -> GroupAlgebraElement:
    """b * sigma(c): the linear map whose kernel is the solution set for fixed b,
    as c times one matrix of _phi_stack."""
    p = same_prime(b.p, c.p)
    image = np.array(c.coeffs) @ _phi_stack(p, np.array([b.coeffs]))[0]
    return GroupAlgebraElement(p, tuple((image % p).tolist()))


def class_kernel_basis(p: int, k: int) -> tuple[GroupAlgebraElement, ...]:
    """Basis of ker(phi_b) for every b of class k: the nonzero powers (g-1)^(p-j)
    for 0 <= j <= k.  (g-1)^p = 0 is dropped, so the basis has k elements and
    the kernel has p^k points; in particular the basis is empty for a unit b."""
    if not 0 <= k <= p:
        raise ValueError(f"class k must be in [0, {p}], got {k}")
    return tuple(gminus1_power(p, p_minus_j) for p_minus_j in range(p - 1, p - k - 1, -1))


def kernel_basis(b: GroupAlgebraElement) -> tuple[GroupAlgebraElement, ...]:
    """Basis of ker(phi_b): class_kernel_basis of the (g-1)-adic class of b."""
    return class_kernel_basis(b.p, b.gminus1_factor().k)


def span(p: int, basis: Iterable[GroupAlgebraElement]) -> list[GroupAlgebraElement]:
    """All F_p-linear combinations, coordinates iterated lexicographically:
    the p^k lexicographic coordinate rows times the k basis rows."""
    basis = list(basis)
    same_prime(p, *(e.p for e in basis))
    rows = _lex_rows(p, len(basis)) @ _basis_rows(p, basis) % p
    return [GroupAlgebraElement(p, tuple(row)) for row in rows.tolist()]


def _lex_rows(p: int, k: int) -> np.ndarray:
    """All p^k vectors in [0, p)^k as an int64 array, lexicographic by row:
    row i holds the k base-p digits of i; refused past MAX_WORK rows."""
    name, unit = ("p^p", "coefficient rows") if k == p else (f"p^{k}", "coordinate rows")
    check_work(name, p**k, unit)
    return digit_rows(p, k, np.arange(p**k, dtype=np.int64))


def _row_index(p: int, rows: np.ndarray) -> np.ndarray:
    """The base-p value of each coefficient row: its index in _lex_rows(p, p)."""
    return rows @ (p ** np.arange(p - 1, -1, -1, dtype=np.int64))


def _basis_rows(p: int, basis: Sequence[GroupAlgebraElement]) -> np.ndarray:
    return np.array([e.coeffs for e in basis], dtype=np.int64).reshape(len(basis), p)


def _span_tables(p: int, rows: np.ndarray) -> np.ndarray:
    """The _packed_sums tables [l, j, v, 0] = v rows[j, l] mod p of k rows
    in [0, p)^p, as uint8 (p <= 7, so v rows[j, l] < 2^8)."""
    return rows.T.astype(np.uint8)[:, :, None, None] * np.arange(p, dtype=np.uint8)[:, None] % p


def _span_index(p: int, basis: Sequence[GroupAlgebraElement]) -> np.ndarray:
    """The row index of each element of span(p, basis), in the same order, as
    the packed sums of the span tables of the basis rows, without building
    the p^k coefficient rows."""
    tables = _span_tables(p, _basis_rows(p, basis))
    return _packed_sums(p, np.zeros((p, 1), np.uint8), tables).ravel()


def kernel_agrees(b: GroupAlgebraElement) -> bool:
    """{c : phi_b(c) = 0}, by exhaustive sweep over all p^p candidates (p <= 7),
    equals set(span(b.p, kernel_basis(b))) with no element spanned twice, i.e.
    the basis independent; compared as sorted row indices without building
    either set's elements.  phi_b is linear in c, so the sweep is _sweep_hits
    with the matrix of phi_b and no constant, refused past MAX_WORK rows."""
    p = b.p
    check_work("p^p", p**p, "coefficient rows")
    hits = _sweep_hits(p, _phi_stack(p, np.array([b.coeffs])), np.zeros((1, p), np.int64))[1]
    return np.array_equal(hits, np.sort(_span_index(p, kernel_basis(b))))


def _system_tables(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lin, const) with residual r = a lin[i] + const[i] mod p for b = row i,
    entries in [0, p) for rows in [0, p)^p, lin as uint8 (p <= 97).

    The residual r_l = a_0 b_l + sum_j b_(l-j) (-C(j+1,2) b_j + j a_j) is
    affine in a: the coefficient of a_0 in r_l is b_l, the coefficient of
    a_j (j >= 1) is j * b_(l-j), and the constant part is
    -sum_j C(j+1,2) b_j b_(l-j).  lin is one gather from the p x p product
    table mod p, at the weights 1, 1, 2, ..., p - 1 and b_(l-j).
    """
    shifted = rows[:, shift_index(p)]  # [i, j, l] = b_(l-j)
    digits = np.arange(p)
    product = (digits[:, None] * digits % p).astype(np.uint8)  # [w, x] = w x mod p
    lin = product[np.maximum(digits, 1)[:, None], shifted]
    binom = np.array([binom_mod(j + 1, 2, p) for j in range(p)], dtype=np.int64)
    const = -np.einsum("ij,ijl->il", rows * binom, shifted)
    return lin, const % p


@functools.lru_cache(maxsize=8)
def _packing(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, P^-1, Q) with c = a P + b Q and a = (c - b Q) P^-1, read-only int64.

    c_0 = a_0 and c_(p-j) = j a_j - C(j+1,2) b_j for 1 <= j < p, so P and Q
    hold their entries at [j, -j mod p] and P^-1 the inverses at [-j mod p, j].
    """
    j, packing = np.arange(p), np.zeros((3, p, p), dtype=np.int64)
    packing[0, j, -j % p] = weight = np.maximum(j, 1)
    packing[1, -j % p, j] = [scalar_inv(w, p) for w in weight.tolist()]
    packing[2, j, -j % p] = -j * (j + 1) // 2 % p
    packing.flags.writeable = False
    return tuple(packing)


def _phi_stack(p: int, rows: np.ndarray) -> np.ndarray:
    """The matrices of phi_b for b = each row: [i, j, l] = b_(j+l), so that row
    j of matrix i is b g^(-j) = phi_b(g^j), and phi_b(c) = c @ matrix i."""
    return rows[:, sum_index(p)]


def _packed_sums(p: int, start: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The base-p value of (start + sum_j x_j lin_j) mod p for every x in
    [0, p)^m, lexicographic, one column per row of a chunk.

    Digit plane first, uint8 digits in [0, p): start[l, i] starts row i, and
    tables[l, j, v, i] = v lin_j[i, l] mod p for the m coordinates j of x;
    either may have one column, which every row shares.
    Each widens the sums by one less significant place, reduced mod p as
    min(s, s - p), since a digit sum s is below 2p and s - p wraps iff s < p.
    """
    sums = start[:, None]
    for j in range(tables.shape[1]):
        sums = sums[:, :, None] + tables[:, j, None]
        sums = np.minimum(sums, sums - p, out=sums).reshape(p, -1, sums.shape[-1])
    packed = sums[0].astype(np.int16 if p**p < 2**15 else np.int32)  # values below p^p
    for digits in sums[1:]:
        packed *= p
        packed += digits
    return packed


def _sweep_hits(p: int, lin: np.ndarray, const: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (i, x) with x lin[i] + const[i] = 0 mod p, as row-index arrays
    ordered by i, then x; the entries of lin and const must lie in [0, p).

    An exact meet-in-the-middle join decides every pair: with x split into
    x_hi and x_lo after h = p - p // 2 coordinates, the residual vanishes
    exactly when const + x_hi lin_hi = -x_lo lin_lo mod p.  Both sides are
    packed into base-p values from the uint8 tables of _packed_sums, built
    once by addition; those of -lin_lo are the planes v = 0, p - 1, ..., 1
    of lin_lo's, as -v x = (p - v) x.  Per chunk of rows one presence table
    seen[row, value] of SWEEP_CHUNK_PAIRS bytes, cleared after each chunk,
    marks the p^(p//2) lo values of each row, and only the slots (row, x_hi)
    with a marked hi value meet the lo values of their row, in (i, x) order.
    """
    for name, table in (("lin", lin), ("const", const)):
        if table.min() < 0 or table.max() >= p:
            raise ValueError(f"entries of {name} must lie in [0, {p})")
    h = p - p // 2
    tables = np.zeros((p, p, p, len(lin)), dtype=np.uint8)  # [l, j, v, i] = v lin[i, j, l] mod p
    tables[:, :, 1] = lin.T
    for v in range(2, p):
        plane = np.add(tables[:, :, v - 1], tables[:, :, 1], out=tables[:, :, v])
        np.minimum(plane, plane - p, out=plane)
    hi_tables, lo_tables = tables[:, :h], tables[:, h:, -np.arange(p) % p]
    const = const.T.astype(np.uint8)
    chunk = max(1, SWEEP_CHUNK_PAIRS // p**p)
    seen = np.zeros(min(chunk, len(lin)) * p**p, dtype=bool)
    found = []
    for start in range(0, len(lin), chunk):
        rows = slice(start, start + chunk)
        hi = _packed_sums(p, const[:, rows], hi_tables[..., rows]).T
        lo = _packed_sums(p, np.zeros((p, 1), np.uint8), lo_tables[..., rows]).T
        offsets = np.arange(len(lo))[:, None] * p**p
        keys = lo + offsets
        seen[keys] = True
        r, x_hi = np.divmod(np.flatnonzero(seen[hi + offsets]), hi.shape[1])
        seen[keys] = False
        width = lo.shape[1]
        x = np.flatnonzero(hi[r, x_hi][:, None] == lo[r])  # t width + x_lo, for now
        t = x // width  # not np.divmod, several times slower on p^p hits
        x += (x_hi[t] - t) * width  # x_hi width + x_lo
        found.append(((r + start)[t], x))
    return found[0] if len(found) == 1 else tuple(map(np.concatenate, zip(*found)))


@dataclass(frozen=True, eq=False)
class Listing:
    """Every (a, b) solution of some b rows, as integer arrays.

    Position i belongs to the b of row b[i]; _factors(p, b) gives the class
    and btilde row of each.  Its solutions are c[ends[i-1]:ends[i]] and
    a[ends[i-1]:ends[i]] (from 0 for i = 0), as row indices; c is None in a
    listing built without it, as the CSV and text writers build theirs.
    """

    p: int
    b: np.ndarray
    ends: np.ndarray
    c: np.ndarray | None
    a: np.ndarray

    @property
    def total(self) -> int:
        return int(self.ends[-1])

    @property
    def counts(self) -> np.ndarray:
        """The number of solutions of each b."""
        return np.diff(self.ends, prepend=0)

    def take(self, positions: np.ndarray) -> "Listing":
        """The Listing of the b at these positions, in that order."""
        counts = self.counts[positions]
        ends = np.cumsum(counts)
        pairs = np.arange(ends[-1]) + np.repeat(self.ends[positions] - ends, counts)
        return Listing(self.p, self.b[positions], ends,
                       None if self.c is None else self.c[pairs], self.a[pairs])


@functools.lru_cache(maxsize=8)
def _class_bases(p: int) -> tuple[tuple[GroupAlgebraElement, ...], ...]:
    return tuple(class_kernel_basis(p, k) for k in range(p + 1))


def _check_listing(p: int, mode: EnumerationMode) -> None:
    """Refuse a listing before any work: a bad p or mode, or a pair sweep or
    p^p rows past MAX_WORK."""
    check_prime(p)
    if mode not in ("closed_form", "brute_force"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "brute_force":
        check_work("p^(2p)", p ** (2 * p), "(a, b) pairs")
    check_work("p^p", p**p, "coefficient rows")


@functools.lru_cache(maxsize=8)
def _gminus1_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(to_row, to_z), read-only int32 (p^p <= MAX_WORK < 2^31): to_row[zeta]
    is the row index of the element whose (g-1)-adic coordinates z have the
    base-p value zeta, sum_i z_i p^(p-1-i), and to_z is its inverse."""
    to_row = _span_index(p, [gminus1_power(p, i) for i in range(p)]).astype(np.int32)
    to_z = np.empty_like(to_row)
    to_z[to_row] = np.arange(p**p, dtype=np.int32)
    to_row.flags.writeable = to_z.flags.writeable = False
    return to_row, to_z


def _factors(p: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k as int8, btilde row index as int32) of each b row index, by two gathers.

    With zeta = to_z[r] in [p^(p-k-1), p^(p-k)), k is the number of leading
    zero digits of zeta (p for zeta = 0), and btilde, whose coordinates are
    those of b moved k places to the front, has the value zeta p^k in
    [p^(p-1), p^p).  The zero b gets p^(p-1), the value of btilde = 1.
    """
    to_row, to_z = _gminus1_tables(p)
    zeta = to_z[index]
    ks = p - np.searchsorted(p ** np.arange(p), zeta, side="right")
    return ks.astype(np.int8), to_row[np.maximum(zeta * p**ks, p ** (p - 1))]


def _listing(p: int, mode: EnumerationMode, index: np.ndarray, with_c: bool = True) -> Listing:
    """The Listing of the b rows index, in that order, with c only if with_c.

    closed_form maps the kernel description; brute_force sweeps every (a, b)
    pair against the system (p <= 5).  Both give the same solution sets, brute
    force ordered by a, the closed form by kernel coordinates.
    """
    rows = digit_rows(p, p, index)
    pack, unpack, pack_b = _packing(p)
    if mode == "closed_form":
        ks = _factors(p, index)[0]
        ends = np.cumsum(np.power(p, ks, dtype=np.int64))
        # Row indices are below p^p <= MAX_WORK, so int32 holds them.
        c_index = np.empty(ends[-1], dtype=np.int32) if with_c else None
        a_index = np.empty(ends[-1], dtype=np.int32)
        # a = c P^-1 + start for c in the span of the basis: the start digits
        # -b Q P^-1 of each b, plus the span of the basis rows times P^-1.
        start = (rows @ (-pack_b @ unpack) % p).T.astype(np.uint8)
        for k, basis in enumerate(_class_bases(p)):
            members = np.flatnonzero(ks == k)
            if len(members):
                tables = _span_tables(p, _basis_rows(p, basis) @ unpack % p)
                a = _packed_sums(p, start[:, members], tables).T
                if len(members) == 1:  # one slice, with no index array as long as it
                    slots = slice(ends[members[0]] - p**k, ends[members[0]])
                    a = a[0]
                else:
                    slots = (ends[members] - p**k)[:, None] + np.arange(p**k)
                a_index[slots] = a
                if with_c:
                    c_index[slots] = _span_index(p, basis)
    else:
        b_index, a_index = _sweep_hits(p, *_system_tables(p, rows))
        c_index = None
        if with_c:
            c_rows = ((_lex_rows(p, p) @ pack)[a_index] + (rows @ pack_b)[b_index]) % p
            c_index = _row_index(p, c_rows).astype(np.int32)
        a_index = a_index.astype(np.int32)
        ends = np.cumsum(np.bincount(b_index, minlength=len(rows)))
    return Listing(p, index, ends, c_index, a_index)


def enumerate_solutions(p: int, mode: EnumerationMode = "closed_form") -> list[SolutionRecord]:
    """One SolutionRecord per b in F_pG, b iterated lexicographically, from the
    Listing of every row as one chunk (see _listing); each element is one
    object, shared by every record that mentions it."""
    _check_listing(p, mode)
    listing = _listing(p, mode, np.arange(p**p))
    elems, bases = list(GroupAlgebraElement.all_elements(p)), _class_bases(p)
    c, a = (list(map(elems.__getitem__, x.tolist())) for x in (listing.c, listing.a))
    ends = listing.ends.tolist()
    ks, btilde = (x.tolist() for x in _factors(p, listing.b))
    return [
        SolutionRecord(elems[b], k, elems[bt], bases[k], tuple(zip(c[lo:hi], a[lo:hi])))
        for b, k, bt, lo, hi in zip(listing.b.tolist(), ks, btilde, [0, *ends], ends)
    ]


def census(p: int) -> list[dict[str, int]]:
    """Class sizes by (g-1)-adic class, one row {"k", "b_class_size",
    "a_per_b"} per class k: p^(p-k-1)(p-1) values of b for k < p, one for
    k = p, each contributing p^k solutions."""
    check_prime(p)
    sizes = [p ** (p - k - 1) * (p - 1) for k in range(p)] + [1]
    return [{"k": k, "b_class_size": n, "a_per_b": p**k} for k, n in enumerate(sizes)]


def _row_chunks(p: int) -> Iterator[np.ndarray]:
    """The b rows 0 to p^p - 1 in ranges of LISTING_CHUNK_ROWS."""
    for lo in range(0, p**p, LISTING_CHUNK_ROWS):
        yield np.arange(lo, min(lo + LISTING_CHUNK_ROWS, p**p))


def _write(
    out: TextIO, chunks: Iterable[Listing], pieces: Callable[[Listing], Iterator[str]],
    head: str = "", tail: str = "",
) -> int:
    """Write head, the pieces of every chunk, and tail, with head joined to
    the first write and tail to the last; return the number of pairs.

    Every b has a solution (c = 0 gives a = a_from_c(0, b)), so a chunk that
    shows a b without one is refused.
    """
    total, held = 0, None
    for chunk in chunks:
        if not chunk.counts.all():
            raise ValueError("a b row of the listing has no solutions")
        total += chunk.total
        for piece in pieces(chunk):
            if held is None:
                held = head + piece
            else:
                out.write(held)
                held = piece
    out.write((head if held is None else held) + tail)
    return total


def _spans(chunk: Listing) -> Iterator[tuple[int, int, np.ndarray, slice]]:
    """(lo, hi, at, firsts) for each piece of at most WRITE_PIECE_PAIRS pairs
    [lo, hi) of chunk: the b whose first pair falls in the piece are the
    positions firsts, and their first pairs are at the offsets at."""
    starts = chunk.ends - chunk.counts
    for lo in range(0, chunk.total, WRITE_PIECE_PAIRS):
        hi = min(lo + WRITE_PIECE_PAIRS, chunk.total)
        first, stop = np.searchsorted(starts, (lo, hi)).tolist()
        yield lo, hi, starts[first:stop] - lo, slice(first, stop)


def _joined(n: int, *columns: str | np.ndarray, at=None, heads=None) -> str:
    """The cells of n pairs joined: pair t is the value, or row t, of each
    column in turn, except that the pairs at the offsets at, which open
    their b, start with heads instead of the first column."""
    table = np.empty((n, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    if at is not None:
        table[at, 0] = heads
    return "".join(table.ravel().tolist())


def records_to_json(
    p: int, out: TextIO, mode: EnumerationMode = "closed_form",
    tail: Callable[[int], Mapping[str, object]] = lambda total: {},
) -> int:
    """Write {"p": p, "records": [...], **tail(total)} and a newline to out, as
    json.dumps would, and return the number of pairs, total.

    The records go in b-row order, chunk by chunk.  Each coefficient list is
    a row of one text table; a record's head adds the texts of its b and
    btilde to pieces per class, and only the tail values go through json.dumps.
    """
    _check_listing(p, mode)
    ends = (("[", ""), (", ", ""), (", ", "]"))
    first, middle, last = ([f"{a}{x}{b}" for x in range(p)] for a, b in ends)
    lists = map("".join, itertools.product(first, *[middle] * (p - 2), last))
    texts = np.fromiter(lists, dtype=object, count=p**p)  # row i: the coefficient list of row i
    kernels = [json.dumps([e.coeffs for e in basis]) for basis in _class_bases(p)]
    k_texts = np.array([f', "k": {k}, "btilde": ' for k in range(p + 1)], dtype=object)
    kernel_texts = np.array([f', "kernel": {kernel}, "solutions": [{{"c": ' for kernel in kernels],
                            dtype=object)

    def pieces(chunk):
        ks, btilde = _factors(p, chunk.b)
        lead = np.full(len(chunk.b), '}]}, {"b": ', dtype=object)
        lead[chunk.b == 0] = '{"b": '  # the zero b opens the records
        heads = lead + texts[chunk.b] + k_texts[ks] + texts[btilde] + kernel_texts[ks]
        for lo, hi, at, firsts in _spans(chunk):
            yield _joined(hi - lo, '}, {"c": ', texts[chunk.c[lo:hi]], ', "a": ',
                          texts[chunk.a[lo:hi]], at=at, heads=heads[firsts])

    out.write(f'{{"p": {p}, "records": [')
    total = _write(out, (_listing(p, mode, index) for index in _row_chunks(p)), pieces)
    tail_text = "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in tail(total).items())
    out.write(f"}}]}}]{tail_text}}}\n")
    return total


def records_to_csv(p: int, out: TextIO, mode: EnumerationMode = "closed_form") -> int:
    """Write one (b, a) row per solution to out, in canonical text form, in
    b-row order chunk by chunk; return the number of rows."""
    _check_listing(p, mode)
    texts = GroupAlgebraElement.all_texts(p)

    def pieces(chunk):
        heads = np.repeat("\n" + texts[chunk.b] + ",", chunk.counts)  # one per pair
        for lo, hi, _, _ in _spans(chunk):
            yield _joined(hi - lo, heads[lo:hi], texts[chunk.a[lo:hi]])

    out.write("b,a")
    chunks = (_listing(p, mode, index, with_c=False) for index in _row_chunks(p))
    return _write(out, chunks, pieces, tail="\n")


def records_to_text(
    p: int, out: TextIO, mode: EnumerationMode = "closed_form", head: str = ""
) -> int:
    """Write head, then the solution table: a count line, then per class k a
    size line and one line per b of the class, in row order; return the
    number of pairs.

    Both modes take the class of every b from one _factors call over all
    rows.  The closed form maps each class's members chunk by chunk; brute
    force (p^(2p) <= MAX_WORK) sweeps once and takes each class's members
    from the whole listing, since the count line needs its hits.
    """
    _check_listing(p, mode)
    ks = _factors(p, np.arange(p**p))[0]
    if mode == "closed_form":
        counts = np.power(p, ks, dtype=np.int64)

        def part(members):
            return _listing(p, mode, members, with_c=False)
    else:
        whole = _listing(p, mode, np.arange(p**p), with_c=False)
        counts, part = whole.counts, whole.take
    texts = GroupAlgebraElement.all_texts(p)

    def pieces(chunk):
        heads = "\nb = " + texts[chunk.b] + " :: a = "
        for lo, hi, at, firsts in _spans(chunk):
            yield _joined(hi - lo, " | ", texts[chunk.a[lo:hi]], at=at, heads=heads[firsts])

    out.write(f"{head}solution table for p = {p}: {int(counts.sum())} (b, a) pairs\n")
    total = 0
    for k in range(p + 1):  # every class has a member: p^(p-k-1)(p-1) for k < p, one for k = p
        members = np.flatnonzero(ks == k)
        line = f"[k = {k}] {len(members)} b-value(s), {int(counts[members[0]])} solution(s) per b"
        step = max(1, LISTING_CHUNK_ROWS * p // p**k)
        chunks = (part(members[lo:lo + step]) for lo in range(0, len(members), step))
        total += _write(out, chunks, pieces, line, "\n")
    return total
