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

A chain is a sparse map {label: coeff} mod p.  A bar label is an exponent
tuple (i_0, ..., i_(n+1)); a periodic label is a pair (i, j) for
g^i (x) g^j, and the image of m is labelled by the exponent k of g^k.  Each
of the four maps (bar d, periodic d, pi, iota) is written once, on a single
basis label, as a list of (label, coeff) pairs; ``_linear`` extends a label
map linearly, reduces mod p and drops zeros.  The chain classes, the public
maps and ``verify_chain_maps`` are all built on that one fold.

The G-grading conventions: a bar tensor is graded by the sum of all its
exponents; the degree-n component of the periodic resolution places
g^i (x) g^j in grade i + j for n even and i + j + 1 for n odd.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator

from .action import VGroupElement
from .group_algebra import GroupAlgebraElement, TooLarge, check_prime
from .params import CoboundaryData, DeformationParams

MAX_CHAIN_DEGREE = 6
# Bar tensors verify_chain_maps may sweep: p = 7 at degree 4 is 76,195.
MAX_BAR_TENSORS = 200_000

Terms = Iterable[tuple[Hashable, int]]


def _linear(p: int, image: Callable[[Hashable], Terms], terms: Terms) -> dict:
    """Extend the label map image linearly over terms, reduce mod p, drop zeros."""
    out: dict = {}
    for label, c in terms:
        for key, c2 in image(label):
            out[key] = out.get(key, 0) + c * c2
    return {key: c % p for key, c in out.items() if c % p}


@dataclass(frozen=True)
class _Chain:
    """A chain in one homological degree: sorted (label, coeff) terms, coeffs in [1, p)."""

    p: int
    degree: int
    terms: tuple

    def term_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


class BarGroupChain(_Chain):
    """An element of F_pG (x) (reduced F_pG)^(x n) (x) F_pG with group-element slots.

    Terms map exponent tuples (i_0, ..., i_(n+1)) to scalars; the outer
    slots i_0, i_(n+1) are arbitrary, the inner slots lie in [1, p).
    """

    @classmethod
    def make(cls, p: int, degree: int, terms: dict[tuple[int, ...], int]) -> "BarGroupChain":
        def label(t: tuple[int, ...]) -> Terms:
            if len(t) != degree + 2:
                raise ValueError(f"degree-{degree} tensors need {degree + 2} slots, got {t}")
            if any(not (1 <= e < p) for e in t[1:-1]):
                raise ValueError(f"inner slots must lie in [1, p): {t}")
            return ((tuple(e % p for e in t), 1),)

        return cls(p, degree, tuple(sorted(_linear(p, label, terms.items()).items())))


class PeriodicChain(_Chain):
    """An element of the degree-n component F_pG (x) F_pG of the periodic resolution.

    Terms map pairs (i, j), standing for g^i (x) g^j, to scalars.
    """

    @classmethod
    def make(cls, p: int, degree: int, entries: dict[tuple[int, int], int]) -> "PeriodicChain":
        def label(ij: tuple[int, int]) -> Terms:
            return (((ij[0] % p, ij[1] % p), 1),)

        return cls(p, degree, tuple(sorted(_linear(p, label, entries.items()).items())))

    @classmethod
    def basis(cls, p: int, degree: int, i: int, j: int) -> "PeriodicChain":
        return cls.make(p, degree, {(i, j): 1})

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for (i, j), c in self.terms:
            yield i, j, c


def bar_basis(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All basis exponent tuples of the reduced bar in one homological degree."""
    yield from itertools.product(range(p), *[range(1, p)] * degree, range(p))


# -- the four maps on one basis label ------------------------------------------


def _bar_d(p: int, t: tuple[int, ...]) -> list:
    """Bar d on one tensor: the alternating sum of adjacent slot merges.

    A face is dropped when the merged slot is inner and the product of
    exponents is the identity (the reduced-bar quotient).
    """
    n = len(t) - 2
    out = []
    for m in range(n + 1):
        s = (t[m] + t[m + 1]) % p
        if s or m == 0 or m == n:
            out.append((t[:m] + (s,) + t[m + 2:], -1 if m % 2 else 1))
    return out


def _periodic_d(p: int, n: int, ij: tuple[int, int]) -> list:
    """Periodic d on g^i (x) g^j in degree n: m at 0, gamma at odd, eta at even n.

    m lands on the exponent k of g^k; gamma acts by g.x - x.g and eta by
    sum_l g^l . x . g^(p-1-l), both in the bimodule sense.
    """
    i, j = ij
    if n == 0:
        return [((i + j) % p, 1)]
    if n % 2 == 1:
        return [(((i + 1) % p, j), 1), ((i, (j + 1) % p), -1)]
    return [(((i + l) % p, (j - 1 - l) % p), 1) for l in range(p)]


def _pi(p: int, t: tuple[int, ...]) -> list:
    """pi on one bar tensor g^a (x) g^(i_1) (x) ... (x) g^(i_n) (x) g^b.

    Even n = 2k: the product over pair sums, prod_j (1 (x) g^(i_(2j-1)+i_(2j)-p)),
    zero whenever a pair sum is below p.  Odd n = 2k+1: the extra factor
    sum_(l=0)^(i_1-1) g^l (x) g^(i_1-l-1) in front of the even product over
    the remaining pairs.  The outer slots g^a, g^b multiply in from both sides.
    """
    inner = t[1:-1]
    first, rest = inner[:len(inner) % 2], inner[len(inner) % 2:]
    e = 0
    for s, r in zip(rest[::2], rest[1::2]):
        if s + r < p:
            return []
        e += s + r - p
    a, b = t[0], t[-1] + e
    if not first:
        return [((a % p, b % p), 1)]
    return [(((a + l) % p, (b + first[0] - l - 1) % p), 1) for l in range(first[0])]


def _iota(p: int, base: Terms, ij: tuple[int, int]) -> list:
    """iota on g^i (x) g^j, given base = the terms of iota_group in its degree."""
    i, j = ij
    return [(((t[0] + i) % p,) + t[1:-1] + ((t[-1] + j) % p,), c) for t, c in base]


# -- the maps on chains ------------------------------------------------------------


def bar_differential(x: BarGroupChain) -> BarGroupChain:
    """The bar differential, extended linearly from ``_bar_d``."""
    if x.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    return BarGroupChain.make(x.p, x.degree - 1, _linear(x.p, partial(_bar_d, x.p), x.terms))


def periodic_differential(x: PeriodicChain) -> "PeriodicChain | GroupAlgebraElement":
    """The periodic differential; at degree 0 it is m and lands in F_pG."""
    p, n = x.p, x.degree
    out = _linear(p, partial(_periodic_d, p, n), x.terms)
    if n == 0:
        return GroupAlgebraElement.from_coeffs(p, [out.get(k, 0) for k in range(p)])
    return PeriodicChain.make(p, n - 1, out)


def pi_group(n: int, x: BarGroupChain) -> PeriodicChain:
    """The chain map from the reduced bar to the periodic resolution."""
    if n != x.degree:
        raise ValueError(f"degree mismatch: {n} != {x.degree}")
    return PeriodicChain.make(x.p, n, _linear(x.p, partial(_pi, x.p), x.terms))


def iota_group(p: int, n: int) -> BarGroupChain:
    """The image of 1 (x) 1 under the chain map from the periodic resolution.

    For n = 2k (resp. 2k+1) the image sums over all inner exponent choices
    i_1, ..., i_k in [1, p), alternating them with single g's, and carries
    the trailing bimodule factor g^(kp - sum(i) - k) that keeps the map
    graded of degree zero.
    """
    k = n // 2
    out = {}
    for choice in itertools.product(range(1, p), repeat=k):
        inner = (1,) * (n % 2) + sum(((i, 1) for i in reversed(choice)), ())
        out[(0,) + inner + ((k * p - sum(choice) - k) % p,)] = 1
    return BarGroupChain.make(p, n, out)


def iota_chain(x: PeriodicChain) -> BarGroupChain:
    """Extend iota to arbitrary chains by the bimodule action on the outer slots."""
    base = iota_group(x.p, x.degree).terms
    return BarGroupChain.make(x.p, x.degree, _linear(x.p, partial(_iota, x.p, base), x.terms))


def bar_grade(t: tuple[int, ...], p: int) -> int:
    return sum(t) % p


def periodic_grade(degree: int, i: int, j: int, p: int) -> int:
    """The grade of g^i (x) g^j in the degree-n periodic component."""
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


def verify_chain_maps(p: int, max_degree: int) -> dict:
    """Numerically certify the comparison maps in degrees <= max_degree.

    Checks, per degree: the two differentials square to zero, pi . iota is
    the identity, the commuting squares d.pi = pi.d and d.iota = iota.d,
    and that both maps preserve the G-grading.  Returns a report with a
    witness tuple for every failed identity: the first failing basis
    element in lexicographic order, (n, i, j) on the periodic side and
    (n, t) on the bar side.

    Each degree-n label map is applied once per basis element, periodic
    basis first.  The degree n-1 maps an identity reaches down to are kept
    as sparse columns {label: {label: coeff}} and extended by ``_linear``;
    the top degree's bar-side columns are never stored.  The sweep is
    refused up front (``TooLarge``) past MAX_BAR_TENSORS bar tensors.
    """
    check_prime(p)
    if not (0 <= max_degree <= MAX_CHAIN_DEGREE):
        raise ValueError(
            f"chain check degree must satisfy 0 <= degree <= {MAX_CHAIN_DEGREE}, got {max_degree}"
        )
    tensors = sum(p * p * (p - 1) ** n for n in range(max_degree + 1))  # bar basis sizes
    if tensors > MAX_BAR_TENSORS:
        raise TooLarge(
            f"{tensors} bar tensors in degrees <= {max_degree} is past the limit of "
            f"{MAX_BAR_TENSORS}"
        )
    checks: list[dict] = []
    below: dict[str, Callable] = {}
    pi, bar_d = partial(_pi, p), partial(_bar_d, p)
    for n in range(max_degree + 1):
        first: dict[str, tuple | None] = {}  # identity -> first witness, None while passing

        def check(identity: str, passed: bool, witness: tuple) -> None:
            if first.setdefault(identity, None) is None and not passed:
                first[identity] = witness

        cols: dict[str, dict] = {"iota": {}, "dp": {}, "pi": {}, "d": {}}
        iota = partial(_iota, p, iota_group(p, n).terms)
        dp = partial(_periodic_d, p, n)
        for ij in itertools.product(range(p), repeat=2):
            e = ((ij, 1),)
            up = cols["iota"][ij] = _linear(p, iota, e)
            down = cols["dp"][ij] = _linear(p, dp, e)
            h = periodic_grade(n, *ij, p)
            witness = (n, *ij)
            check("pi_iota_identity", _linear(p, pi, up.items()) == {ij: 1}, witness)
            check("iota_graded", all(bar_grade(t, p) == h for t in up), witness)
            if n >= 1:
                check("periodic_differential_squares_to_zero",
                      not _linear(p, below["dp"], down.items()), witness)
                check("iota_commutes_with_differentials",
                      _linear(p, bar_d, up.items()) == _linear(p, below["iota"], down.items()),
                      witness)
        keep = n < max_degree
        after_dp = _columns(cols["dp"])
        for t in bar_basis(p, n):
            e = ((t, 1),)
            image = _linear(p, pi, e)
            s = bar_grade(t, p)
            check("pi_graded", all(periodic_grade(n, i, j, p) == s for i, j in image), (n, t))
            if n >= 1:
                dx = _linear(p, bar_d, e)
                if n >= 2:
                    check("bar_differential_squares_to_zero",
                          not _linear(p, below["d"], dx.items()), (n, t))
                check("pi_commutes_with_differentials",
                      _linear(p, after_dp, image.items()) == _linear(p, below["pi"], dx.items()),
                      (n, t))
                if keep:
                    cols["d"][t] = dx
            if keep:
                cols["pi"][t] = image
        for identity in CHAIN_IDENTITIES:
            if identity in first:
                witness = first[identity]
                entry = {"identity": identity, "degree": n, "passed": witness is None}
                if witness is not None:
                    entry["witness"] = witness
                checks.append(entry)
        below = {name: _columns(col) for name, col in cols.items()}

    passed = all(c["passed"] for c in checks)
    return {"p": p, "max_degree": max_degree, "passed": passed, "checks": checks}


def _columns(cols: dict) -> Callable[[Hashable], Terms]:
    """The label map whose image of each label is its stored sparse column."""
    return lambda label: cols[label].items()


@dataclass(frozen=True)
class TwistedCochain2:
    """A graded 2-cochain on the bar-twisted resolution of the skew group algebra.

    Graded degree -1 forces the value on pairs of group elements to vanish;
    the group-vector slot takes values in F_pG and the wedge slot in
    V (x) F_pG.
    """

    p: int
    on_group_vector: tuple[tuple[GroupAlgebraElement, GroupAlgebraElement], ...]
    on_wedge: VGroupElement

    def group_vector(self, i: int, m: int) -> GroupAlgebraElement:
        """Value on g^i (x) v_m."""
        return self.on_group_vector[i][m - 1]


def transfer_cochain(
    lambda_prime: tuple[GroupAlgebraElement, GroupAlgebraElement],
    alpha: VGroupElement,
) -> TwistedCochain2:
    """Pull a 2-cochain on the periodic-twisted resolution back along pi.

    The result vanishes on group pairs, takes sum_(l=0)^(i-1)
    lambda'(g^l . v) g^(i-1) on (g^i, v), and restricts to alpha on the wedge.
    """
    lp1, lp2 = lambda_prime
    p = lp1.p
    table = []
    for i in range(p):
        # g^l fixes v1 and sends v2 to l*v1 + v2.
        val1 = GroupAlgebraElement.zero(p)
        val2 = GroupAlgebraElement.zero(p)
        for l in range(i):
            val1 = val1 + lp1
            val2 = val2 + lp1.scale(l) + lp2
        table.append((val1.shift(i - 1) if i else val1, val2.shift(i - 1) if i else val2))
    return TwistedCochain2(p, tuple(table), alpha)


def distinguished_cocycle(
    a: GroupAlgebraElement, b: GroupAlgebraElement
) -> tuple[tuple[GroupAlgebraElement, GroupAlgebraElement], VGroupElement]:
    """The deformation cocycle on the periodic-twisted resolution indexed by (a, b):

    v1 |-> sum_l b_l g^(l+1),  v2 |-> sum_(l>=1) a_l g^(l+1),
    v1 ^ v2 |-> a_0 v1 + sum_l l b_l v2 g^l.
    """
    p = a.p
    lp1 = b.shift(1)
    lp2 = GroupAlgebraElement.from_coeffs(p, (0,) + a.coeffs[1:]).shift(1)
    alpha = VGroupElement(
        GroupAlgebraElement.monomial(p, 0, a.coeffs[0]),
        GroupAlgebraElement.from_coeffs(p, tuple(l * bl for l, bl in enumerate(b.coeffs))),
    )
    return (lp1, lp2), alpha


def rep_to_params(a: GroupAlgebraElement, b: GroupAlgebraElement) -> DeformationParams:
    """Transfer the distinguished cocycle of (a, b) and package it as parameters.

    The output must coincide with the directly constructed candidate tables;
    that agreement is the bridge between the resolution on which cohomology
    is computed and the one on which the lifting conditions live.
    """
    if a.p != b.p:
        raise ValueError("mismatched primes")
    lambda_prime, alpha = distinguished_cocycle(a, b)
    cochain = transfer_cochain(lambda_prime, alpha)
    return DeformationParams(
        a.p, cochain.on_group_vector, GroupAlgebraElement.zero(a.p), cochain.on_wedge
    )


def coboundary_cochain(f: CoboundaryData) -> TwistedCochain2:
    """The coboundary of a linear map f: V -> F_pG, as a 2-cochain.

    Vanishes on group pairs and on (g^i, v1); takes -i f(v1) g^i on
    (g^i, v2) and sum_j j f_j(v1) v1 g^j on the wedge.
    """
    p = f.p
    zero = GroupAlgebraElement.zero(p)
    table = tuple((zero, -f.f1.scale(i).shift(i)) for i in range(p))
    wedge = VGroupElement(
        GroupAlgebraElement.from_coeffs(p, tuple(j * c for j, c in enumerate(f.f1.coeffs))),
        zero,
    )
    return TwistedCochain2(p, table, wedge)
