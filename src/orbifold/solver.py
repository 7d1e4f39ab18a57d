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
An enumeration is one Listing, the same for both modes: the class k and the
btilde row of every b, the p + 1 class kernel bases, and flat c and a
row-index arrays in b-row order with cumulative offsets; the classes come
from group_algebra.gminus1_factor_rows.  The closed form uses that the
kernel depends on b only through its class k and that a = c P^-1 - b Q P^-1
is affine in c: per class it spans the kernel once (its p^k lexicographic
coordinate rows times the basis) and then maps it to the a rows of every b
of the class with one broadcast.  Brute force, the independent check,
decides every pair (a, b) with the system itself as one exact
meet-in-the-middle join: a prefix and a suffix of a each pack a part of the
residual from uint8 digits reduced by wrap-around, a presence table of the
suffix parts of each b picks the prefix parts that are compared with them,
and its offsets count the hits.

The writers render each row's text once per call and write the pairs in
pieces of at most WRITE_PIECE_PAIRS: per piece, one object array of cells,
gathered from the row texts and overwritten with the heads and tails of the
b in the piece, joined once; the JSON is the text json.dumps would give.
enumerate_solutions turns a Listing into SolutionRecords for library
callers; census gives the class sizes as the plain rows the CLI prints.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Literal, Mapping, Sequence, TextIO

import numpy as np

from .group_algebra import (
    GroupAlgebraElement,
    TooLarge,
    binom_mod,
    check_prime,
    digit_rows,
    gminus1_factor_rows,
    gminus1_power,
    same_prime,
    scalar_inv,
    shift_index,
    sum_index,
)

#: Guard for the p^(2p) pair sweeps (5^10 is about 1e7 pairs).
PAIR_SWEEP_MAX_P = 5
#: The array path holds one row per element of F_pG, so p^p must stay
#: within this many rows (p <= 7).
MAX_COEFF_ROWS = 10**7
#: Pairs decided per chunk of the pair sweep, one presence-table byte each:
#: 125 rows of b at p = 5, one at p = 7; a chunk peaks near 0.7 MB at p = 5.
SWEEP_CHUNK_PAIRS = 5**8
#: Most solution pairs in one write of the listing writers, so that a b with
#: many solutions (the zero b has p^p) is never rendered as one string.
WRITE_PIECE_PAIRS = 2**12

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
    """All F_p-linear combinations, coordinates iterated lexicographically."""
    return [GroupAlgebraElement(p, tuple(row)) for row in _span_rows(p, list(basis)).tolist()]


def _check_rows(p: int, k: int) -> None:
    """Raise TooLarge, before any work, when p^k rows are past MAX_COEFF_ROWS;
    k = p counts coefficient rows, smaller k coordinate rows."""
    if p**k > MAX_COEFF_ROWS:
        name, noun = ("p^p", "coefficient") if k == p else (f"p^{k}", "coordinate")
        raise TooLarge(f"{name} = {p**k} {noun} rows is past the limit of {MAX_COEFF_ROWS}")


def _lex_rows(p: int, k: int) -> np.ndarray:
    """All p^k vectors in [0, p)^k as an int64 array, lexicographic by row:
    row i holds the k base-p digits of i."""
    _check_rows(p, k)
    return digit_rows(p, k, np.arange(p**k, dtype=np.int64))


def _span_rows(p: int, basis: Sequence[GroupAlgebraElement]) -> np.ndarray:
    """The rows of span(p, basis): the p^k lexicographic coordinate rows
    times the k basis rows."""
    basis_rows = np.array([e.coeffs for e in basis], dtype=np.int64).reshape(len(basis), p)
    return _lex_rows(p, len(basis)) @ basis_rows % p


def _row_index(p: int, rows: np.ndarray) -> np.ndarray:
    """The base-p value of each coefficient row: its index in _lex_rows(p, p)."""
    return rows @ (p ** np.arange(p - 1, -1, -1, dtype=np.int64))


def kernel_agrees(b: GroupAlgebraElement) -> bool:
    """{c : phi_b(c) = 0}, by exhaustive sweep over all p^p candidates (p <= 7),
    equals set(span(b.p, kernel_basis(b))) with no element spanned twice, i.e.
    the basis independent; compared as sorted row indices without building
    either set's elements.  phi_b is linear in c, so the sweep is _sweep_hits
    with the matrix of phi_b and no constant, guarded by MAX_COEFF_ROWS."""
    p = b.p
    _check_rows(p, p)
    hits = _sweep_hits(p, _phi_stack(p, np.array([b.coeffs])), np.zeros((1, p), np.int64))[1]
    spanned = _row_index(p, _span_rows(p, kernel_basis(b)))
    return np.array_equal(hits, np.sort(spanned))


def _system_tables(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lin, const) with residual r = a lin[i] + const[i] mod p for b = row i.

    The residual r_l = a_0 b_l + sum_j b_(l-j) (-C(j+1,2) b_j + j a_j) is
    affine in a: the coefficient of a_0 in r_l is b_l, the coefficient of
    a_j (j >= 1) is j * b_(l-j), and the constant part is
    -sum_j C(j+1,2) b_j b_(l-j).
    """
    shifted = rows[:, shift_index(p)]  # [i, j, l] = b_(l-j)
    lin = shifted * np.arange(p)[:, None]
    lin[:, 0] = rows
    binom = np.array([binom_mod(j + 1, 2, p) for j in range(p)], dtype=np.int64)
    const = -np.einsum("ij,ijl->il", rows * binom, shifted)
    return lin % p, const % p


@lru_cache(maxsize=8)
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
    tables[l, j, v, i] = v lin_j[i, l] mod p for the m coordinates j of x.
    Each widens the sums by one less significant place, reduced mod p as
    min(s, s - p), since a digit sum s is below 2p and s - p wraps iff s < p.
    """
    sums = start[:, None]
    for j in range(tables.shape[1]):
        sums = (sums[:, :, None] + tables[:, j, None]).reshape(p, -1, tables.shape[3])
        sums = np.minimum(sums, sums - p)
    packed = sums[0].astype(np.int16 if p**p < 2**15 else np.int32)  # values below p^p
    for digits in sums[1:]:
        packed = packed * p + digits
    return packed


def _sweep_hits(p: int, lin: np.ndarray, const: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All (i, x) with x lin[i] + const[i] = 0 mod p, as row-index arrays
    ordered by i, then x; the entries of lin and const are in [0, p).

    An exact meet-in-the-middle join decides every pair: with x split into
    x_hi and x_lo after h = p // 2 coordinates, the residual vanishes exactly
    when const + x_hi lin_hi = -x_lo lin_lo mod p.  Per chunk of rows both
    sides are packed into base-p values, a presence table seen[row, value] of
    SWEEP_CHUNK_PAIRS bytes marks the lo values, and only the slots (row, x_hi)
    with a marked hi value meet the lo values of their row, in (i, x) order.
    """
    h = p // 2
    chunk = max(1, SWEEP_CHUNK_PAIRS // p**p)
    digits = np.arange(p, dtype=np.uint8)[:, None]
    found = []
    for start in range(0, len(lin), chunk):
        tables = lin[start:start + chunk].T.astype(np.uint8)[:, :, None] * digits % p
        hi = _packed_sums(p, const[start:start + chunk].T.astype(np.uint8), tables[:, :h]).T
        lo = _packed_sums(p, np.zeros((p, 1), np.uint8), (p - tables[:, h:]) % p).T
        offsets = np.arange(len(lo))[:, None] * p**p
        seen = np.zeros(len(lo) * p**p, dtype=bool)
        seen[lo + offsets] = True
        r, x_hi = np.divmod(np.flatnonzero(seen[hi + offsets]), hi.shape[1])
        t, x_lo = np.divmod(np.flatnonzero(hi[r, x_hi][:, None] == lo[r]), lo.shape[1])
        found.append(((r + start)[t], x_hi[t] * lo.shape[1] + x_lo))
    return tuple(np.concatenate(side) for side in zip(*found))


@dataclass(frozen=True, eq=False)
class Listing:
    """Every (a, b) solution as integer arrays indexed by b's row.

    Row i of k and btilde belongs to the b of row i; bases[k] is the kernel
    basis of class k.  The solutions of b = row i are c[ends[i-1]:ends[i]]
    and a[ends[i-1]:ends[i]] (from 0 for i = 0), as row indices.
    """

    p: int
    k: np.ndarray
    btilde: np.ndarray
    bases: tuple[tuple[GroupAlgebraElement, ...], ...]
    ends: np.ndarray
    c: np.ndarray
    a: np.ndarray

    @property
    def total(self) -> int:
        return int(self.ends[-1])

    @property
    def counts(self) -> np.ndarray:
        """The number of solutions of each b."""
        return np.diff(self.ends, prepend=0)

    def per_b(self) -> Iterator[tuple]:
        """(b row, k, btilde row, c rows, a rows) for every b, in row order;
        the c and a rows are views of the flat arrays."""
        starts, ends = np.concatenate(([0], self.ends[:-1])).tolist(), self.ends.tolist()
        ks, btildes = self.k.tolist(), self.btilde.tolist()
        for i in range(len(ends)):
            yield i, ks[i], btildes[i], self.c[starts[i]:ends[i]], self.a[starts[i]:ends[i]]


def build_listing(p: int, mode: EnumerationMode = "closed_form") -> Listing:
    """The Listing of every b in F_pG, b iterated lexicographically.

    closed_form maps the kernel description; brute_force sweeps every (a, b)
    pair against the system (p <= 5).  Both give the same solution sets, brute
    force ordered by a, the closed form by kernel coordinates.
    """
    check_prime(p)
    if mode not in ("closed_form", "brute_force"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "brute_force" and p > PAIR_SWEEP_MAX_P:
        raise TooLarge(f"pair sweep needs p <= {PAIR_SWEEP_MAX_P}, got {p}")
    rows = _lex_rows(p, p)
    ks, btilde_rows = gminus1_factor_rows(p, rows)
    bases = tuple(class_kernel_basis(p, k) for k in range(p + 1))
    pack, unpack, pack_b = _packing(p)
    if mode == "closed_form":
        const = rows @ (-pack_b @ unpack) % p  # a = c P^-1 + const[i] for b = row i
        ends = np.cumsum(p**ks)
        # Row indices are below p^p <= MAX_COEFF_ROWS, so int32 holds them.
        c_index, a_index = np.empty(ends[-1], dtype=np.int32), np.empty(ends[-1], dtype=np.int32)
        for k, basis in enumerate(bases):
            kernel, members = _span_rows(p, basis), np.flatnonzero(ks == k)
            slots = (ends[members] - p**k)[:, None] + np.arange(p**k)
            c_index[slots] = _row_index(p, kernel)
            a_index[slots] = _row_index(p, ((kernel @ unpack)[None] + const[members][:, None]) % p)
    else:
        b_index, a_index = _sweep_hits(p, *_system_tables(p, rows))
        c_rows = ((rows @ pack)[a_index] + (rows @ pack_b)[b_index]) % p
        c_index = _row_index(p, c_rows).astype(np.int32)
        a_index = a_index.astype(np.int32)
        ends = np.cumsum(np.bincount(b_index, minlength=len(rows)))
    return Listing(p, ks, _row_index(p, btilde_rows), bases, ends, c_index, a_index)


def enumerate_solutions(p: int, mode: EnumerationMode = "closed_form") -> list[SolutionRecord]:
    """One SolutionRecord per b of build_listing(p, mode), in row order; each
    element is one object, shared by every record that mentions it."""
    listing = build_listing(p, mode)
    elems = list(GroupAlgebraElement.all_elements(p))
    get = lambda rows: map(elems.__getitem__, rows.tolist())
    return [
        SolutionRecord(elems[b], k, elems[bt], listing.bases[k], tuple(zip(get(c), get(a))))
        for b, k, bt, c, a in listing.per_b()
    ]


def census(p: int) -> list[dict[str, int]]:
    """Class sizes by (g-1)-adic class, one row {"k", "b_class_size",
    "a_per_b"} per class k: p^(p-k-1)(p-1) values of b for k < p, one for
    k = p, each contributing p^k solutions."""
    check_prime(p)
    sizes = [p ** (p - k - 1) * (p - 1) for k in range(p)] + [1]
    return [{"k": k, "b_class_size": n, "a_per_b": p**k} for k, n in enumerate(sizes)]


def _write_walk(
    out: TextIO, listing: Listing, members: np.ndarray,
    cells: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    prefix: str = "",
) -> None:
    """Write the pairs of the b rows members, in that order, one write per
    WRITE_PIECE_PAIRS pairs, prefix first.

    Per piece, cells(b, pair, first, last) gets the b row and the flat index
    of each pair and whether it is the first or last pair of its b, and
    returns an (n, m) object array of strings whose rows are the pairs' text.
    Every b has a solution (c = 0 gives a = a_from_c(0, b)), so each b's head
    and tail can overwrite cells of its first and last pair.
    """
    counts = listing.counts[members]
    if not counts.all():
        raise ValueError("a b row of the listing has no solutions")
    walk_ends = np.cumsum(counts)
    for lo in range(0, int(walk_ends[-1]), WRITE_PIECE_PAIRS):
        t = np.arange(lo, min(lo + WRITE_PIECE_PAIRS, int(walk_ends[-1])))
        i = np.searchsorted(walk_ends, t, side="right")
        offset = t - walk_ends[i] + counts[i]  # position of the pair within its b
        b = members[i]
        table = cells(b, listing.ends[b] - counts[i] + offset, offset == 0, offset == counts[i] - 1)
        out.write(prefix + "".join(table.ravel().tolist()))
        prefix = ""


def _cells(n: int, *columns: str | np.ndarray) -> np.ndarray:
    """An (n, len(columns)) object array with the given column values."""
    table = np.empty((n, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    return table


def records_to_json(listing: Listing, out: TextIO, tail: Mapping[str, object]) -> None:
    """Write {"p": p, "records": [...], **tail} and a newline to out, as
    json.dumps would; each row's coefficient list is rendered once, and only
    the tail values go through json.dumps."""
    digits = [str(x) for x in range(listing.p)]
    texts = np.array(
        [f"[{', '.join(row)}]" for row in itertools.product(digits, repeat=listing.p)], dtype=object
    )
    kernels = [json.dumps([e.coeffs for e in basis]) for basis in listing.bases]

    def cells(b, pair, first, last):
        table = _cells(len(b), ', {"c": ', texts[listing.c[pair]], ', "a": ',
                       texts[listing.a[pair]], "}")
        heads = b[first]
        table[first, 0] = [
            f'{", " if x else ""}{{"b": {texts[x]}, "k": {k}, "btilde": {texts[bt]}, '
            f'"kernel": {kernels[k]}, "solutions": [{{"c": '
            for x, k, bt in zip(heads.tolist(), listing.k[heads].tolist(),
                                listing.btilde[heads].tolist())
        ]
        table[last, -1] = "}]}"
        return table

    out.write(f'{{"p": {listing.p}, "records": [')
    _write_walk(out, listing, np.arange(len(listing.ends)), cells)
    tail_text = "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in tail.items())
    out.write(f"]{tail_text}}}\n")


def records_to_csv(listing: Listing, out: TextIO) -> None:
    """Write one (b, a) row per solution to out, in canonical text form."""
    texts = np.array(GroupAlgebraElement.all_texts(listing.p), dtype=object)
    out.write("b,a\n")
    _write_walk(
        out, listing, np.arange(len(listing.ends)),
        lambda b, pair, _first, _last: _cells(len(b), texts[b], ",", texts[listing.a[pair]], "\n"),
    )


def records_to_text(listing: Listing, out: TextIO) -> None:
    """Write the solution table: a count line, then per class k a size line
    and one line per b of the class, in row order."""
    texts = np.array(GroupAlgebraElement.all_texts(listing.p), dtype=object)

    def cells(b, pair, first, last):
        table = _cells(len(b), " | ", texts[listing.a[pair]], "")
        table[first, 0] = [f"b = {texts[x]} :: a = " for x in b[first].tolist()]
        table[last, -1] = "\n"
        return table

    out.write(f"solution table for p = {listing.p}: {listing.total} (b, a) pairs\n")
    for k in range(listing.p + 1):
        members = np.flatnonzero(listing.k == k)
        if len(members):
            size = listing.counts[members[0]]
            line = f"[k = {k}] {len(members)} b-value(s), {size} solution(s) per b\n"
            _write_walk(out, listing, members, cells, line)
