"""Low-degree resolutions of F_pG, the chain maps between them, and cochain transfer.

Two projective bimodule resolutions of the group algebra are realized
explicitly: the reduced bar resolution (tensors of group elements, inner
slots never the identity) and the periodic resolution

    ... --eta--> F_pG (x) F_pG --gamma--> F_pG (x) F_pG --m--> F_pG -> 0

with gamma = g (x) 1 - 1 (x) g and eta = sum_l g^l (x) g^(p-1-l).  The
comparison maps pi (bar -> periodic) and iota (periodic -> bar) are chain
maps of graded degree zero with pi . iota = id; both are verified
numerically rather than assumed.  Transferring a 2-cochain along pi turns
the distinguished deformation cocycles into the candidate parameter tables,
which is the bridge this module exists to certify.

A bar label is an exponent tuple (i_0, ..., i_(n+1)); a periodic label is a
pair (i, j) for g^i (x) g^j, and the image of m is labelled by the exponent
k of g^k.  The first and last slots of a label are outer, the others inner.
A chain holds its (label, coeff) terms mod p, sorted by label.

The maps work on batches of chains.  A batch is three integer arrays: the
row (which chain) of each term, its label as one digit per slot (one array
row per slot, one column per term), and its coefficient.  All four maps
(bar d, periodic d, pi, iota) are bimodule maps, so, as Shepler and
Witherspoon define chain maps of bimodule complexes, each is fixed by its
value on a free generator and sends g^a . x . g^b to g^a . f(x) . g^b.
Each is written once, as ``_bar_d``, ``_periodic_d``, ``_pi`` and
``_iota`` from one batch to another, and the outer slots ride along: a
joins the first slot of every image term, b the last.  The public maps on
chains run the same functions on a batch of one row and sum its equal
labels mod p.

In degree n the bar resolution is a free F_pG-bimodule on the (p-1)^n
tensors 1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1 and the periodic one on
1 (x) 1.  So ``verify_chain_maps`` checks the free generators only, and that
is exact: each identity compares bimodule maps and each grading check moves
by a + b on both sides, so an identity holds at g^a . x . g^b exactly when
it holds at x.  Shifting is invertible, so the lexicographically first
failing basis element, (0, 0) or (0, i_1, ..., i_n, 0), is always a
generator.  A degree's generators go through the maps in batches, one row
per generator in lexicographic order.

Each identity is checked as a residual: its two sides with opposite signs,
or, for a grading check, the image terms of the wrong grade (a grade
depends on the label alone, so keeping them commutes with reducing).  The
residual terms of every identity in every degree go into one batch, in
which each (degree, identity) owns a range of rows, one for 1 (x) 1 or one
per bar generator.  A term enters as one int64 word, its row and label
read base p, and a reduction sorts the words with their coefficients and
sums each run of equal words mod p.  An identity first fails at the lowest
row of its range that the reduction leaves nonzero.  The pending terms
are reduced whenever they reach CHUNK_TERMS after a batch, and once at the
end, so a reduction holds at most one batch's terms past CHUNK_TERMS.

The G-grading conventions: a bar tensor is graded by the sum of all its
exponents; the degree-n component of the periodic resolution places
g^i (x) g^j in grade i + j for n even and i + j + 1 for n odd.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .group_algebra import (GroupAlgebraElement, check_prime, check_work, digit_rows, exact_int,
                           same_prime)
from .params import DeformationParams

#: Terms a batch of generators (_generator_terms each) may put through a map in
#: verify_chain_maps, and the pending residual terms that start a reduction there;
#: the maps do not read it.  At 2^14 the sweeps of p = 3 at degree 13, 5 at 7, 13 at
#: 4, 31 at 3 and 97 at 2 took 0.3-0.5 s at 31-33 MB; at 2^12 0.3-0.7 s, and at 2^16
#: and 2^17 0.3-0.5 s but 34-36 and 35-41 MB.
CHUNK_TERMS = 2**14


class _Batch(NamedTuple):
    """Terms of many chains: coeffs[k] times the label in column k of labels
    (one row per slot, digits in [0, p)) in the chain numbered rows[k]."""

    rows: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray

    def take(self, keep) -> "_Batch":
        """The terms that keep selects, a boolean mask or term indices."""
        return _Batch(self.rows[keep], self.labels[:, keep], self.coeffs[keep])


def _generator_terms(p: int, n: int) -> int:
    """Most terms of one degree-n generator in a map: bar d twice, or pi and d."""
    return (n + 3) * max(n, p)


def _one_row(terms, width: int) -> _Batch:
    """The batch of one chain, row 0, from a sequence of (label, coeff) pairs of this width."""
    labels = np.array([label for label, _ in terms], np.int64).reshape(len(terms), width)
    return _Batch(np.zeros(len(terms), np.int64), labels.T,
                  np.array([c for _, c in terms], np.int64))


def _generators(p: int, n: int, start: int, stop: int) -> _Batch:
    """The degree-n bar generators (0, i_1, ..., i_n, 0) numbered start to
    stop - 1 in lexicographic order, one row each."""
    labels = np.zeros((n + 2, stop - start), np.int64)
    labels[1:-1] = digit_rows(p - 1, n, np.arange(start, stop)).T + 1
    return _Batch(np.arange(stop - start), labels, np.ones(stop - start, np.int64))


# -- the four maps, from batch to batch --------------------------------------------


def _bar_d(p: int, x: _Batch) -> _Batch:
    """Bar d: the alternating sum of adjacent slot merges, without the faces
    whose merged inner slot is the identity (the reduced-bar quotient).

    Face m of a label keeps its slots below m, merges slots m and m + 1, and
    keeps the slots above, one place lower; one index table gathers every face.
    """
    t, n = x.labels, len(x.labels) - 2
    merged = (t[:-1] + t[1:]) % p  # row m: the merged slot of face m
    keep = merged != 0
    keep[0] = keep[n] = True
    keep = keep.ravel()  # [face, term], as rows, coeffs and the label columns
    signs = np.ones((n + 1, 1), np.int64)
    signs[1::2] = -1
    face = np.arange(n + 1)
    slot = face[:, None]
    source = slot + (slot >= face) + (slot == face) * (n + 1 + face - slot)
    labels = np.concatenate((t, merged))[source].reshape(n + 1, -1)
    rows = x.rows[None].repeat(n + 1, axis=0).ravel()
    return _Batch(rows[keep], labels.compress(keep, axis=1), (signs * x.coeffs).ravel()[keep])


# gamma as (shifts, signs): g^(i+1) (x) g^j minus g^i (x) g^(j+1).
_GAMMA = (np.array([[1, 0], [0, 1]]), np.array([[1], [-1]]))


def _periodic_d(p: int, n: int, x: _Batch) -> _Batch:
    """Periodic d in degree n: m onto g^(i+j) at n = 0, gamma = g (x) 1 - 1 (x) g
    at odd n, eta = sum_l g^l (x) g^(p-1-l) at even n."""
    i, j = x.labels
    if n == 0:
        return x._replace(labels=((i + j) % p)[None])
    if n % 2 == 1:
        shifts, signs = _GAMMA
    else:
        l = np.arange(p)
        shifts, signs = np.array((l, -1 - l)), np.ones((p, 1), np.int64)
    labels = (x.labels[:, None] + shifts[:, :, None]) % p  # [slot, term of the map, term of x]
    return _Batch(x.rows[None].repeat(len(signs), axis=0).ravel(), labels.reshape(2, -1),
                  (signs * x.coeffs).ravel())


def _pi(p: int, x: _Batch) -> _Batch:
    """pi on g^a . (1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1) . g^b.

    Even n = 2k: the product over pair sums, prod_j (1 (x) g^(i_(2j-1)+i_(2j)-p)),
    zero whenever a pair sum is below p.  Odd n = 2k+1: the extra factor
    sum_(l=0)^(i_1-1) g^l (x) g^(i_1-l-1) in front of the even product over
    the remaining pairs.
    """
    t, odd = x.labels, (len(x.labels) - 2) % 2
    sums = t[1 + odd:-1:2] + t[2 + odd:-1:2]
    keep = np.logical_and.reduce(sums >= p)
    e = np.add.reduce(sums) + t[-1] - p * len(sums)  # the exponent on the right
    if not odd:
        return _Batch(x.rows[keep], np.array((t[0][keep], e[keep] % p)), x.coeffs[keep])
    first = t[1] * keep  # the number of image terms of each term
    term = np.repeat(np.arange(len(first)), first)
    l = np.arange(len(term)) - np.repeat(np.cumsum(first) - first, first)
    labels = np.array(((t[0][term] + l) % p, (e[term] + t[1][term] - l - 1) % p))
    return _Batch(x.rows[term], labels, x.coeffs[term])


def _iota(p: int, n: int, x: _Batch) -> _Batch:
    """iota on g^a . (1 (x) 1) . g^b in degree n.

    For n = 2k (resp. 2k+1) the image of 1 (x) 1 sums over all inner exponent
    choices i_1, ..., i_k in [1, p), alternating them with single g's, and
    carries the trailing bimodule factor g^(kp - sum(i) - k) that keeps the
    map graded of degree zero.
    """
    k = n // 2
    choice = digit_rows(p - 1, k, np.arange((p - 1) ** k)).T + 1
    image = np.ones((n + 2, choice.shape[1]), np.int64)
    image[1 + n % 2:-1:2] = choice[::-1]
    image[0], image[-1] = 0, (k * p - k) - np.add.reduce(choice)
    return _act(p, x, _Batch(np.zeros(image.shape[1], np.int64), image % p,
                             np.ones(image.shape[1], np.int64)))


def _act(p: int, x: _Batch, y: _Batch) -> _Batch:
    """The bimodule action of periodic terms on one bar chain: per row of x,
    the sum over its terms c g^a (x) g^b of c g^a . y . g^b, where y is a
    batch of one row; a joins the first slot of every term of y, b the last."""
    outer = np.zeros((len(y.labels), len(x.rows)), np.int64)
    outer[[0, -1]] = x.labels
    labels = (outer[:, :, None] + y.labels[:, None]) % p  # [slot, term of x, term of y]
    return _Batch(x.rows.repeat(len(y.rows)), labels.reshape(len(y.labels), -1),
                  (x.coeffs[:, None] * y.coeffs).ravel())


# -- chains ------------------------------------------------------------------------


@dataclass(frozen=True)
class _Chain:
    """A chain in one homological degree: sorted (label, coeff) terms, coeffs in [1, p)."""

    p: int
    degree: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "degree", operator.index(self.degree))
        if self.degree < 0:
            raise ValueError(f"chain degree must be >= 0, got {self.degree}")

    def is_zero(self) -> bool:
        return not self.terms

    def _batch(self) -> _Batch:
        return _one_row(self.terms, self.degree + 2 if isinstance(self, BarGroupChain) else 2)

    @classmethod
    def _make(cls, p: int, degree: int, terms: dict, width: int, what: str):
        """Terms as a chain: labels of this width, inner slots in [1, p), exact ints mod p."""
        labelled = []
        for t, c in terms.items():
            if len(t) != width:
                raise ValueError(f"{what} need {width} slots, got {t}")
            t = tuple(map(exact_int, t))
            if any(not (1 <= e < p) for e in t[1:-1]):
                raise ValueError(f"inner slots must lie in [1, p): {t}")
            labelled.append((tuple(e % p for e in t), exact_int(c) % p))
        return cls._of(p, degree, _one_row(labelled, width))

    @classmethod
    def _of(cls, p: int, degree: int, x: _Batch):
        """The chain of a batch of one row: equal labels summed mod p, zeros dropped."""
        sums: dict[tuple, int] = {}
        for label, c in zip(map(tuple, x.labels.T.tolist()), x.coeffs.tolist()):
            sums[label] = sums.get(label, 0) + c
        return cls(p, degree, tuple((label, c % p) for label, c in sorted(sums.items()) if c % p))


class BarGroupChain(_Chain):
    """An element of F_pG (x) (reduced F_pG)^(x n) (x) F_pG with group-element slots.

    Terms map exponent tuples (i_0, ..., i_(n+1)) to scalars; the outer
    slots i_0, i_(n+1) are arbitrary, the inner slots lie in [1, p).
    """

    @classmethod
    def make(cls, p: int, degree: int, terms: dict[tuple[int, ...], int]) -> "BarGroupChain":
        return cls._make(p, degree, terms, degree + 2, f"degree-{degree} tensors")


class PeriodicChain(_Chain):
    """An element of the degree-n component F_pG (x) F_pG of the periodic resolution.

    Terms map pairs (i, j), standing for g^i (x) g^j, to scalars.
    """

    @classmethod
    def make(cls, p: int, degree: int, entries: dict[tuple[int, int], int]) -> "PeriodicChain":
        return cls._make(p, degree, entries, 2, "periodic labels (i, j)")


def bar_basis(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All basis exponent tuples of the reduced bar in one homological degree."""
    yield from itertools.product(range(p), *[range(1, p)] * degree, range(p))


# -- the maps on chains ------------------------------------------------------------


def bar_differential(x: BarGroupChain) -> BarGroupChain:
    """The bar differential, ``_bar_d`` on one chain."""
    if x.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    return BarGroupChain._of(x.p, x.degree - 1, _bar_d(x.p, x._batch()))


def periodic_differential(x: PeriodicChain) -> "PeriodicChain | GroupAlgebraElement":
    """The periodic differential; at degree 0 it is m and lands in F_pG."""
    p, n = x.p, x.degree
    out = _periodic_d(p, n, x._batch())
    if n == 0:
        coeffs = np.zeros(p, np.int64)
        np.add.at(coeffs, out.labels[0], out.coeffs)
        return GroupAlgebraElement.from_coeffs(p, coeffs.tolist())
    return PeriodicChain._of(p, n - 1, out)


def pi_group(n: int, x: BarGroupChain) -> PeriodicChain:
    """The chain map from the reduced bar to the periodic resolution."""
    n = operator.index(n)
    if n != x.degree:
        raise ValueError(f"degree mismatch: {n} != {x.degree}")
    return PeriodicChain._of(x.p, n, _pi(x.p, x._batch()))


def iota_chain(x: PeriodicChain) -> BarGroupChain:
    """iota on arbitrary chains, ``_iota`` on one chain."""
    return BarGroupChain._of(x.p, x.degree, _iota(x.p, x.degree, x._batch()))


def bar_grade(t, p: int) -> int:
    """The grade of a bar label t, or of each label of a label array t (one row per slot)."""
    return np.add.reduce(t) % p


def periodic_grade(degree: int, i: int, j: int, p: int) -> int:
    """The grade of g^i (x) g^j in the degree-n periodic component (elementwise on arrays)."""
    return (i + j) % p if degree % 2 == 0 else (i + j + 1) % p


# The identities verify_chain_maps checks in each degree, in report order, each
# with its lowest degree and whether it is checked on the periodic generator
# 1 (x) 1 (else on the bar generators).
CHAIN_IDENTITIES = {
    "pi_iota_identity": (0, True),
    "iota_graded": (0, True),
    "pi_graded": (0, False),
    "bar_differential_squares_to_zero": (2, False),
    "periodic_differential_squares_to_zero": (1, True),
    "pi_commutes_with_differentials": (1, False),
    "iota_commutes_with_differentials": (1, True),
}


class _Residuals:
    """The signed residual terms of every identity in every degree, as one batch.

    Each (degree, identity) owns a range of global rows, in report order: one
    row for 1 (x) 1, or one per bar generator in lexicographic order.  A term
    enters as one int64 word, its row times p^(max_degree+2) plus its label
    read base p: the label zero-padded to the widest one, which merges no
    terms, since a row fixes its width.  A reduction treats each word as a
    chain of its own.  Every term of a row is added before the next
    reduction, so the lowest row a range keeps nonzero is its first witness.
    """

    def __init__(self, p: int, max_degree: int):
        self.p, self.base = p, p ** (max_degree + 2)
        self.powers = p ** np.arange(max_degree + 1, -1, -1)  # a label read base p: powers @ label
        self.keys = [(n, identity) for n in range(max_degree + 1)
                     for identity, (lowest, _) in CHAIN_IDENTITIES.items() if n >= lowest]
        sizes = [1 if CHAIN_IDENTITIES[identity][1] else (p - 1) ** n for n, identity in self.keys]
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        # Within MAX_WORK terms and p <= 97 a word stays below 2^43, so a word
        # and its coefficient digit, word p + c, fit one int64 with room to spare.
        assert int(self.ends[-1]) * self.base * p < 2**62
        self.start = dict(zip(self.keys, self.starts.tolist()))
        self.lowest = self.ends.copy()  # per range, its lowest failing row, or its end
        self.words: list[np.ndarray] = []
        self.coeffs: list[np.ndarray] = []
        self.terms = 0

    def add(self, n: int, identity: str, x: _Batch, offset: int = 0, sign: int = 1) -> None:
        """Add sign times x, whose row r is row offset + r of the range of (n, identity)."""
        word = (x.rows + (self.start[n, identity] + offset)) * self.base
        self.words.append(word + self.powers[len(self.powers) - len(x.labels):] @ x.labels)
        self.coeffs.append(-x.coeffs if sign < 0 else x.coeffs)
        self.terms += len(word)

    def reduce(self) -> None:
        """Reduce the pending terms and lower each range's lowest failing row
        to the first row the reduction keeps in it."""
        if not self.words:
            return
        p = self.p
        # Sorted as word p + (coeff mod p), equal words are runs, summed mod p.
        packed = np.sort(np.concatenate(self.words) * p + np.concatenate(self.coeffs) % p)
        self.words, self.coeffs, self.terms = [], [], 0
        words = packed // p
        starts = np.flatnonzero(np.diff(words, prepend=-1))
        sums = np.add.reduceat(packed - words * p, starts) % p
        # The kept rows are sorted; the sentinel past every range ends the search.
        kept = np.append(words[starts[sums != 0]] // self.base, self.ends[-1])
        self.lowest = np.minimum(self.lowest, kept[np.searchsorted(kept, self.starts)])

    def checks(self) -> list[dict]:
        """The report entries: a witness for each range with a failing row,
        (n, 0, 0) on the periodic side and (n, t) on the bar side."""
        checks = []
        for (n, identity), start, row, end in zip(
            self.keys, self.starts.tolist(), self.lowest.tolist(), self.ends.tolist()
        ):
            entry = {"identity": identity, "degree": n, "passed": row == end}
            if row < end and CHAIN_IDENTITIES[identity][1]:
                entry["witness"] = (n, 0, 0)
            elif row < end:
                t = _generators(self.p, n, row - start, row - start + 1).labels[:, 0]
                entry["witness"] = (n, tuple(t.tolist()))
            checks.append(entry)
        return checks


def verify_chain_maps(p: int, max_degree: int) -> dict:
    """Numerically certify the comparison maps in degrees <= max_degree.

    Checks, per degree: the two differentials square to zero, pi . iota is
    the identity, the commuting squares d.pi = pi.d and d.iota = iota.d,
    and that both maps preserve the G-grading.  Returns a report with a
    witness tuple for every failed identity: the first failing basis
    element in lexicographic order, (n, i, j) on the periodic side and
    (n, t) on the bar side.

    Per degree n only the free generators are checked (see the module
    docstring), 1 (x) 1 and the (p-1)^n bar tensors (0, i_1, ..., i_n, 0),
    the latter in batches of at most CHUNK_TERMS terms per map, and refused up
    front once sum_(n <= max_degree) (p-1)^n _generator_terms(p, n) > MAX_WORK.
    """
    check_prime(p)
    max_degree = operator.index(max_degree)
    if max_degree < 0:
        raise ValueError(f"chain check degree must be >= 0, got {max_degree}")
    terms = 0
    for n in range(max_degree + 1):
        terms += (p - 1) ** n * _generator_terms(p, n)
        check_work(f"chain check to degree {max_degree}: degrees 0..{n}", terms, "batch terms")
    residuals = _Residuals(p, max_degree)
    unit = _one_row([((0, 0), 1)], 2)  # 1 (x) 1
    below = None  # iota(1 (x) 1) one degree lower
    for n in range(max_degree + 1):
        up, down = _iota(p, n, unit), _periodic_d(p, n, unit)
        residuals.add(n, "pi_iota_identity", _pi(p, up))
        residuals.add(n, "pi_iota_identity", unit, sign=-1)
        off_grade = bar_grade(up.labels, p) != periodic_grade(n, 0, 0, p)
        if off_grade.any():
            residuals.add(n, "iota_graded", up.take(off_grade))
        if n >= 1:
            residuals.add(n, "periodic_differential_squares_to_zero", _periodic_d(p, n - 1, down))
            residuals.add(n, "iota_commutes_with_differentials", _bar_d(p, up))
            # iota is a bimodule map: iota(down) is iota(1 (x) 1) one degree
            # lower, moved by the terms of down.
            residuals.add(n, "iota_commutes_with_differentials", _act(p, down, below), sign=-1)
        below = up
        step = max(1, CHUNK_TERMS // _generator_terms(p, n))
        for start in range(0, (p - 1) ** n, step):
            x = _generators(p, n, start, min(start + step, (p - 1) ** n))
            image = _pi(p, x)
            off_grade = periodic_grade(n, *image.labels, p) != bar_grade(x.labels, p)[image.rows]
            if off_grade.any():
                residuals.add(n, "pi_graded", image.take(off_grade), start)
            if n >= 1:
                dx = _bar_d(p, x)
                if n >= 2:
                    residuals.add(n, "bar_differential_squares_to_zero", _bar_d(p, dx), start)
                residuals.add(n, "pi_commutes_with_differentials", _periodic_d(p, n, image), start)
                residuals.add(n, "pi_commutes_with_differentials", _pi(p, dx), start, -1)
            if residuals.terms >= CHUNK_TERMS:
                residuals.reduce()
    residuals.reduce()
    checks = residuals.checks()
    passed = all(c["passed"] for c in checks)
    return {"p": p, "max_degree": max_degree, "passed": passed, "checks": checks}


def transfer_cochain(
    lambda_prime: tuple[GroupAlgebraElement, GroupAlgebraElement],
    alpha: np.ndarray,
) -> DeformationParams:
    """Pull a 2-cochain on the periodic-twisted resolution back along pi.

    The result has graded degree -1, so it vanishes on group pairs and is a
    parameter set with kappa^C = 0.  lambda(g^i, v) is lambda' on the image
    of the degree-1 generator (0, i, 0) under ``_pi``, the map that
    verify_chain_maps certifies: each term g^l (x) g^k adds
    lambda'(g^l . v) g^(l+k), so lambda(g^i, v) = sum_(l=0)^(i-1)
    lambda'(g^l . v) g^(i-1).  kappa^L is alpha, its value on the wedge, as
    the (2, p) kappaL table.
    """
    p = same_prime(*(x.p for x in lambda_prime), *np.shape(alpha)[-1:])
    lp1, lp2 = (np.array(x.coeffs) for x in lambda_prime)
    image = _pi(p, _generators(p, 1, 0, p - 1))  # row i - 1: the image of (0, i, 0)
    l, k = image.labels[:, :, None]
    # [term, m - 1] = lambda'(g^l . v_m): g^l fixes v1 and sends v2 to l*v1 + v2.
    terms = np.stack([np.broadcast_to(lp1, (len(l), p)), l * lp1 + lp2], axis=1)
    lam = np.zeros((p, 2, p), np.int64)
    columns = ((np.arange(p) + l + k) % p)[:, None]  # times g^(l+k)
    np.add.at(lam, (image.rows[:, None, None] + 1, [[0], [1]], columns),
              image.coeffs[:, None, None] * terms)
    return DeformationParams(p, lam, np.zeros(p), alpha)


def distinguished_cocycle(
    a: GroupAlgebraElement, b: GroupAlgebraElement
) -> tuple[tuple[GroupAlgebraElement, GroupAlgebraElement], np.ndarray]:
    """The deformation cocycle on the periodic-twisted resolution indexed by (a, b):

    v1 |-> sum_l b_l g^(l+1),  v2 |-> sum_(l>=1) a_l g^(l+1),
    v1 ^ v2 |-> a_0 v1 + sum_l l b_l v2 g^l, as a (2, p) kappaL table.
    """
    p = same_prime(a.p, b.p)
    lp1 = b.shift(1)
    lp2 = GroupAlgebraElement.from_coeffs(p, (0,) + a.coeffs[1:]).shift(1)
    alpha = np.array([[a.coeffs[0]] + [0] * (p - 1), np.arange(p) * b.coeffs])
    return (lp1, lp2), alpha


def rep_to_params(a: GroupAlgebraElement, b: GroupAlgebraElement) -> DeformationParams:
    """Transfer the distinguished cocycle of (a, b) to parameter tables.

    The output must coincide with the directly constructed candidate tables;
    that agreement is the bridge between the resolution on which cohomology
    is computed and the one on which the lifting conditions live.
    """
    return transfer_cochain(*distinguished_cocycle(a, b))
