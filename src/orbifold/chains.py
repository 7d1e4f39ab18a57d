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
row (which chain) of each term, its label as one digit per slot, and its
coefficient.  ``_reduce`` sums equal (row, label) terms mod p and drops the
zeros.  All four maps (bar d, periodic d, pi, iota) are bimodule maps, so,
as Shepler and Witherspoon define chain maps of bimodule complexes, each is
fixed by its value on a free generator and sends g^a . x . g^b to
g^a . f(x) . g^b.  Each is written once, as ``_bar_d``, ``_periodic_d``,
``_pi`` and ``_iota`` from one batch to another, and the outer slots ride
along as columns: a joins the first slot of every image term, b the last.
The public maps on chains run the same functions on a batch of one row.

In degree n the bar resolution is a free F_pG-bimodule on the (p-1)^n
tensors 1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1 and the periodic one on
1 (x) 1.  So ``verify_chain_maps`` checks the free generators only, and that
is exact: each identity compares bimodule maps and each grading check moves
by a + b on both sides, so an identity holds at g^a . x . g^b exactly when
it holds at x.  Shifting is invertible, so the lexicographically first
failing basis element, (0, 0) or (0, i_1, ..., i_n, 0), is always a
generator.  A degree's generators go through the maps in batches, one row
per generator in lexicographic order, and an identity first fails at the
first row that its reduced difference leaves nonzero.

The G-grading conventions: a bar tensor is graded by the sum of all its
exponents; the degree-n component of the periodic resolution places
g^i (x) g^j in grade i + j for n even and i + j + 1 for n odd.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .group_algebra import GroupAlgebraElement, TooLarge, check_prime, digit_rows, same_prime
from .params import DeformationParams

# Free generators verify_chain_maps may sweep, sum_(n <= d) (p-1)^n.  The slowest
# sweeps it accepts (p = 3 at degree 13, 5 at 7, 13 at 4, 31 at 3, 97 at 2) take
# 0.4-0.7 s end to end, at a peak RSS of 30-32 MB, on a shared 2-core host.
MAX_BAR_TENSORS = 30_000
#: Terms a batch of generators may put through its widest map.  At 2^14 those
#: sweeps peak at 30-32 MB; 2^16 and 2^17 took as long and peaked at 37 and 44 MB.
CHUNK_TERMS = 2**14


class _Batch(NamedTuple):
    """Terms of many chains: coeffs[k] times labels[k] (one digit in [0, p)
    per slot) in the chain numbered rows[k]."""

    rows: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray


def _concat(*batches: _Batch) -> _Batch:
    return _Batch(*(np.concatenate(field) for field in zip(*batches)))


def _minus(x: _Batch, y: _Batch) -> _Batch:
    return _concat(x, y._replace(coeffs=-y.coeffs))


def _reduce(p: int, x: _Batch) -> _Batch:
    """x with equal (row, label) terms summed mod p and zeros dropped, sorted by row, then label."""
    if not len(x.rows):
        return x
    # (row, label) packed base p into int64 words below 2^62, most significant first.
    words, word, room = [], x.rows, 2**62 // (int(x.rows.max()) + 1)
    for column in x.labels.T:
        if room < p:
            words.append(word)
            word, room = 0, 2**62
        word, room = word * p + column, room // p
    words.append(word)
    order = np.lexsort(words[::-1])
    new = np.zeros(len(order), bool)
    new[0] = True
    for word in words:
        new[1:] |= np.diff(word[order]) != 0
    starts = order[new]
    sums = np.add.reduceat(x.coeffs[order], np.flatnonzero(new)) % p
    keep = starts[sums != 0]
    return _Batch(x.rows[keep], x.labels[keep], sums[sums != 0])


def _one_row(terms, width: int) -> _Batch:
    """The batch of one chain, row 0, from (label, coeff) pairs with labels of this width."""
    terms = list(terms)
    labels = np.array([label for label, _ in terms], np.int64).reshape(len(terms), width)
    return _Batch(np.zeros(len(terms), np.int64), labels,
                  np.array([c for _, c in terms], np.int64))


def _generators(p: int, n: int, start: int, stop: int) -> _Batch:
    """The degree-n bar generators (0, i_1, ..., i_n, 0) numbered start to
    stop - 1 in lexicographic order, one row each."""
    labels = np.zeros((stop - start, n + 2), np.int64)
    labels[:, 1:-1] = digit_rows(p - 1, n, np.arange(start, stop)) + 1
    return _Batch(np.arange(stop - start), labels, np.ones(stop - start, np.int64))


# -- the four maps, from batch to batch --------------------------------------------


def _bar_d(p: int, x: _Batch) -> _Batch:
    """Bar d: the alternating sum of adjacent slot merges, without the faces
    whose merged inner slot is the identity (the reduced-bar quotient)."""
    t, n = x.labels, x.labels.shape[1] - 2
    faces = []
    for m in range(n + 1):
        merged = (t[:, m] + t[:, m + 1]) % p
        keep = slice(None) if m in (0, n) else merged != 0
        labels = np.column_stack((t[:, :m], merged, t[:, m + 2:]))[keep]
        faces.append(_Batch(x.rows[keep], labels, x.coeffs[keep] * (-1) ** m))
    return _concat(*faces)


def _periodic_d(p: int, n: int, x: _Batch) -> _Batch:
    """Periodic d in degree n: m onto g^(i+j) at n = 0, gamma = g (x) 1 - 1 (x) g
    at odd n, eta = sum_l g^l (x) g^(p-1-l) at even n."""
    i, j = x.labels.T
    if n == 0:
        return x._replace(labels=((i + j) % p)[:, None])
    if n % 2 == 1:
        return _minus(x._replace(labels=np.column_stack(((i + 1) % p, j))),
                      x._replace(labels=np.column_stack((i, (j + 1) % p))))
    l = np.arange(p)
    labels = np.stack(((i[:, None] + l) % p, (j[:, None] - 1 - l) % p), axis=-1)
    return _Batch(np.repeat(x.rows, p), labels.reshape(-1, 2), np.repeat(x.coeffs, p))


def _pi(p: int, x: _Batch) -> _Batch:
    """pi on g^a . (1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1) . g^b.

    Even n = 2k: the product over pair sums, prod_j (1 (x) g^(i_(2j-1)+i_(2j)-p)),
    zero whenever a pair sum is below p.  Odd n = 2k+1: the extra factor
    sum_(l=0)^(i_1-1) g^l (x) g^(i_1-l-1) in front of the even product over
    the remaining pairs.
    """
    t, odd = x.labels, (x.labels.shape[1] - 2) % 2
    sums = t[:, 1 + odd:-1:2] + t[:, 2 + odd:-1:2]
    keep = (sums >= p).all(axis=1)
    rows, t, coeffs = x.rows[keep], t[keep], x.coeffs[keep]
    a, e = t[:, 0], (sums[keep] - p).sum(axis=1) + t[:, -1]
    if not odd:
        return _Batch(rows, np.column_stack((a, e % p)), coeffs)
    first = t[:, 1]
    term = np.repeat(np.arange(len(first)), first)
    l = np.arange(len(term)) - np.repeat(np.cumsum(first) - first, first)
    labels = np.column_stack(((a[term] + l) % p, (e[term] + first[term] - l - 1) % p))
    return _Batch(rows[term], labels, coeffs[term])


def _iota(p: int, n: int, x: _Batch) -> _Batch:
    """iota on g^a . (1 (x) 1) . g^b in degree n.

    For n = 2k (resp. 2k+1) the image of 1 (x) 1 sums over all inner exponent
    choices i_1, ..., i_k in [1, p), alternating them with single g's, and
    carries the trailing bimodule factor g^(kp - sum(i) - k) that keeps the
    map graded of degree zero.
    """
    k = n // 2
    choice = digit_rows(p - 1, k, np.arange((p - 1) ** k)) + 1
    image = np.ones((len(choice), n + 2), np.int64)
    image[:, 1 + n % 2:-1:2] = choice[:, ::-1]
    image[:, 0], image[:, -1] = 0, (k * p - choice.sum(axis=1) - k) % p
    labels = np.repeat(image[None], len(x.rows), axis=0)
    labels[:, :, 0] += x.labels[:, :1]
    labels[:, :, -1] += x.labels[:, 1:]
    return _Batch(np.repeat(x.rows, len(image)), labels.reshape(-1, n + 2) % p,
                  np.repeat(x.coeffs, len(image)))


# -- chains ------------------------------------------------------------------------


@dataclass(frozen=True)
class _Chain:
    """A chain in one homological degree: sorted (label, coeff) terms, coeffs in [1, p)."""

    p: int
    degree: int
    terms: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"chain degree must be >= 0, got {self.degree}")

    def is_zero(self) -> bool:
        return not self.terms

    def _batch(self) -> _Batch:
        return _one_row(self.terms, self.degree + 2 if isinstance(self, BarGroupChain) else 2)

    @classmethod
    def _of(cls, p: int, degree: int, x: _Batch):
        """The chain of a batch of one row, reduced."""
        x = _reduce(p, x)
        return cls(p, degree, tuple(zip(map(tuple, x.labels.tolist()), x.coeffs.tolist())))


class BarGroupChain(_Chain):
    """An element of F_pG (x) (reduced F_pG)^(x n) (x) F_pG with group-element slots.

    Terms map exponent tuples (i_0, ..., i_(n+1)) to scalars; the outer
    slots i_0, i_(n+1) are arbitrary, the inner slots lie in [1, p).
    """

    @classmethod
    def make(cls, p: int, degree: int, terms: dict[tuple[int, ...], int]) -> "BarGroupChain":
        for t in terms:
            if len(t) != degree + 2:
                raise ValueError(f"degree-{degree} tensors need {degree + 2} slots, got {t}")
            if any(not (1 <= e < p) for e in t[1:-1]):
                raise ValueError(f"inner slots must lie in [1, p): {t}")
        labelled = ((tuple(e % p for e in t), c % p) for t, c in terms.items())
        return cls._of(p, degree, _one_row(labelled, degree + 2))


class PeriodicChain(_Chain):
    """An element of the degree-n component F_pG (x) F_pG of the periodic resolution.

    Terms map pairs (i, j), standing for g^i (x) g^j, to scalars.
    """

    @classmethod
    def make(cls, p: int, degree: int, entries: dict[tuple[int, int], int]) -> "PeriodicChain":
        labelled = (((i % p, j % p), c % p) for (i, j), c in entries.items())
        return cls._of(p, degree, _one_row(labelled, 2))


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
        np.add.at(coeffs, out.labels[:, 0], out.coeffs)
        return GroupAlgebraElement.from_coeffs(p, coeffs.tolist())
    return PeriodicChain._of(p, n - 1, out)


def pi_group(n: int, x: BarGroupChain) -> PeriodicChain:
    """The chain map from the reduced bar to the periodic resolution."""
    if n != x.degree:
        raise ValueError(f"degree mismatch: {n} != {x.degree}")
    return PeriodicChain._of(x.p, n, _pi(x.p, x._batch()))


def iota_chain(x: PeriodicChain) -> BarGroupChain:
    """iota on arbitrary chains, ``_iota`` on one chain."""
    return BarGroupChain._of(x.p, x.degree, _iota(x.p, x.degree, x._batch()))


def bar_grade(t, p: int) -> int:
    """The grade of a bar label t, or of each label when t holds the columns of a label array."""
    return sum(t) % p


def periodic_grade(degree: int, i: int, j: int, p: int) -> int:
    """The grade of g^i (x) g^j in the degree-n periodic component (elementwise on arrays)."""
    return (i + j) % p if degree % 2 == 0 else (i + j + 1) % p


# The identities verify_chain_maps checks in each degree, in report order.
CHAIN_IDENTITIES = (
    "pi_iota_identity",
    "iota_graded",
    "pi_graded",
    "bar_differential_squares_to_zero",
    "periodic_differential_squares_to_zero",
    "pi_commutes_with_differentials",
    "iota_commutes_with_differentials",
)


def _note_failures(first: dict, failing: dict, witness) -> None:
    """Record witness(rows[0]) for each identity in failing with failing rows
    (sorted) and no witness yet in first; list the others as passing so far."""
    for identity, rows in failing.items():
        if first.setdefault(identity, None) is None and len(rows):
            first[identity] = witness(int(rows[0]))


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
    the latter in batches of at most CHUNK_TERMS terms per map.
    The sweep is refused up front (``TooLarge``) past MAX_BAR_TENSORS of them.
    """
    check_prime(p)
    if max_degree < 0:
        raise ValueError(f"chain check degree must be >= 0, got {max_degree}")
    generators = 0
    for n in range(max_degree + 1):
        generators += (p - 1) ** n
        if generators > MAX_BAR_TENSORS:
            raise TooLarge(
                f"chain check to degree {max_degree} is past the limit of {MAX_BAR_TENSORS} "
                f"bar tensors (free generators): degrees <= {n} already hold {generators}"
            )
    checks: list[dict] = []
    unit = _one_row([((0, 0), 1)], 2)  # 1 (x) 1
    for n in range(max_degree + 1):
        first: dict[str, tuple | None] = {}  # identity -> first witness, None while passing
        up, down = _iota(p, n, unit), _periodic_d(p, n, unit)
        graded = _reduce(p, up)
        failing = {
            "pi_iota_identity": _reduce(p, _minus(_pi(p, up), unit)).rows,
            "iota_graded": graded.rows[bar_grade(graded.labels.T, p) != periodic_grade(n, 0, 0, p)],
        }
        if n >= 1:
            failing["periodic_differential_squares_to_zero"] = _reduce(
                p, _periodic_d(p, n - 1, down)).rows
            failing["iota_commutes_with_differentials"] = _reduce(
                p, _minus(_bar_d(p, up), _iota(p, n - 1, down))).rows
        _note_failures(first, failing, lambda row: (n, 0, 0))
        # A generator's widest batch: bar d twice, or pi and d either way round.
        step = max(1, CHUNK_TERMS // ((n + 3) * max(n, p)))
        for start in range(0, (p - 1) ** n, step):
            x = _generators(p, n, start, min(start + step, (p - 1) ** n))
            image = _reduce(p, _pi(p, x))
            grade = bar_grade(x.labels.T, p)[image.rows]
            failing = {"pi_graded": image.rows[periodic_grade(n, *image.labels.T, p) != grade]}
            if n >= 1:
                dx = _bar_d(p, x)
                if n >= 2:
                    failing["bar_differential_squares_to_zero"] = _reduce(p, _bar_d(p, dx)).rows
                failing["pi_commutes_with_differentials"] = _reduce(
                    p, _minus(_periodic_d(p, n, image), _pi(p, dx))).rows
            _note_failures(first, failing, lambda row: (n, tuple(x.labels[row].tolist())))
        for identity in CHAIN_IDENTITIES:
            if identity in first:
                witness = first[identity]
                entry = {"identity": identity, "degree": n, "passed": witness is None}
                if witness is not None:
                    entry["witness"] = witness
                checks.append(entry)

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
    l, k = image.labels[:, :1], image.labels[:, 1:]
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
    p = a.p
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
    same_prime(a.p, b.p)
    return transfer_cochain(*distinguished_cocycle(a, b))
