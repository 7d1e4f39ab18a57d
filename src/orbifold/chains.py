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
g^i (x) g^j, and the image of m is labelled by the exponent k of g^k.  The
first and last slots of a label are outer, the others inner.

In degree n the bar resolution is a free F_pG-bimodule on the (p-1)^n
tensors 1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1 and the periodic one on
1 (x) 1.  All four maps (bar d, periodic d, pi, iota) are bimodule maps, so,
as Shepler and Witherspoon define chain maps of bimodule complexes, each is
written once on the inner slots of a free generator (``_bar_d``,
``_periodic_d``, ``_pi``, ``_iota``) as (label, coeff) pairs.  ``_shift``
is g^a . label . g^b, ``_bimodule`` extends a generator map to every label
by that shift, and ``_linear`` extends a label map linearly mod p.

So ``verify_chain_maps`` checks the free generators only, and that is
exact: each identity compares bimodule maps and each grading check moves by
a + b on both sides, so an identity holds at g^a . x . g^b exactly when it
holds at x.  Shifting is invertible, so the lexicographically first failing
basis element, (0, 0) or (0, i_1, ..., i_n, 0), is always a generator.

The G-grading conventions: a bar tensor is graded by the sum of all its
exponents; the degree-n component of the periodic resolution places
g^i (x) g^j in grade i + j for n even and i + j + 1 for n odd.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

from .action import VGroupElement
from .group_algebra import GroupAlgebraElement, TooLarge, check_prime
from .params import DeformationParams

# Free generators verify_chain_maps may sweep, sum_(n <= d) (p-1)^n.  The slowest
# sweeps it accepts (p = 3 at degree 13, 5 at 7, 13 at 4) take about 2.5 s on a
# shared 2-core host.
MAX_BAR_TENSORS = 30_000

Terms = Iterable[tuple[Hashable, int]]


def _linear(p: int, image: Callable[[Hashable], Terms], terms: Terms) -> dict:
    """Extend the label map image linearly over terms, reduce mod p, drop zeros."""
    out: dict = {}
    for label, c in terms:
        for key, c2 in image(label):
            out[key] = out.get(key, 0) + c * c2
    return {key: c % p for key, c in out.items() if c % p}


def _shift(p: int, label, a: int, b: int):
    """g^a . label . g^b: a joins the first slot and b the last; g^k becomes g^(a+k+b)."""
    if isinstance(label, int):
        return (a + label + b) % p
    return ((label[0] + a) % p,) + label[1:-1] + ((label[-1] + b) % p,)


def _bimodule(p: int, generator: Callable[..., Terms], *args) -> Callable[[tuple], list]:
    """The label map of the bimodule map with 1 (x) inner (x) 1 |-> generator(p, *args, inner)."""

    def image(label: tuple) -> list:
        a, b = label[0], label[-1]
        return [(_shift(p, key, a, b), c) for key, c in generator(p, *args, label[1:-1])]

    return image


@dataclass(frozen=True)
class _Chain:
    """A chain in one homological degree: sorted (label, coeff) terms, coeffs in [1, p)."""

    p: int
    degree: int
    terms: tuple

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


# -- the four maps on one free generator ------------------------------------------


def _bar_d(p: int, inner: tuple[int, ...]) -> list:
    """Bar d on 1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1: the alternating sum of
    adjacent slot merges, without the faces whose merged inner slot is the
    identity (the reduced-bar quotient)."""
    t, n = (0, *inner, 0), len(inner)
    out = []
    for m in range(n + 1):
        s = (t[m] + t[m + 1]) % p
        if s or m == 0 or m == n:
            out.append((t[:m] + (s,) + t[m + 2:], -1 if m % 2 else 1))
    return out


def _periodic_d(p: int, n: int, inner: tuple) -> list:
    """Periodic d on 1 (x) 1 in degree n (no inner slots): m onto g^0 at n = 0,
    gamma = g (x) 1 - 1 (x) g at odd n, eta = sum_l g^l (x) g^(p-1-l) at even n."""
    if n == 0:
        return [(0, 1)]
    if n % 2 == 1:
        return [((1, 0), 1), ((0, 1), -1)]
    return [((l, p - 1 - l), 1) for l in range(p)]


def _pi(p: int, inner: tuple[int, ...]) -> list:
    """pi on 1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1.

    Even n = 2k: the product over pair sums, prod_j (1 (x) g^(i_(2j-1)+i_(2j)-p)),
    zero whenever a pair sum is below p.  Odd n = 2k+1: the extra factor
    sum_(l=0)^(i_1-1) g^l (x) g^(i_1-l-1) in front of the even product over
    the remaining pairs.
    """
    first, rest = inner[:len(inner) % 2], inner[len(inner) % 2:]
    e = 0
    for s, r in zip(rest[::2], rest[1::2]):
        if s + r < p:
            return []
        e += s + r - p
    if not first:
        return [((0, e % p), 1)]
    return [((l, (e + first[0] - l - 1) % p), 1) for l in range(first[0])]


def _iota(p: int, n: int, inner: tuple) -> Terms:
    """iota on 1 (x) 1 in degree n (no inner slots): the terms of iota_group."""
    return iota_group(p, n).terms


# -- the maps on chains ------------------------------------------------------------


def bar_differential(x: BarGroupChain) -> BarGroupChain:
    """The bar differential, the bimodule extension of ``_bar_d``."""
    if x.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    return BarGroupChain.make(x.p, x.degree - 1, _linear(x.p, _bimodule(x.p, _bar_d), x.terms))


def periodic_differential(x: PeriodicChain) -> "PeriodicChain | GroupAlgebraElement":
    """The periodic differential; at degree 0 it is m and lands in F_pG."""
    p, n = x.p, x.degree
    out = _linear(p, _bimodule(p, _periodic_d, n), x.terms)
    if n == 0:
        return GroupAlgebraElement.from_coeffs(p, [out.get(k, 0) for k in range(p)])
    return PeriodicChain.make(p, n - 1, out)


def pi_group(n: int, x: BarGroupChain) -> PeriodicChain:
    """The chain map from the reduced bar to the periodic resolution."""
    if n != x.degree:
        raise ValueError(f"degree mismatch: {n} != {x.degree}")
    return PeriodicChain.make(x.p, n, _linear(x.p, _bimodule(x.p, _pi), x.terms))


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
    """iota on arbitrary chains, the bimodule extension of ``iota_group``."""
    iota = _bimodule(x.p, _iota, x.degree)
    return BarGroupChain.make(x.p, x.degree, _linear(x.p, iota, x.terms))


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

    Per degree n only the free generators are checked (see the module
    docstring), 1 (x) 1 and the (p-1)^n bar tensors (0, i_1, ..., i_n, 0).
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
    bar_d, pi = _bimodule(p, _bar_d), _bimodule(p, _pi)
    for n in range(max_degree + 1):
        first: dict[str, tuple | None] = {}  # identity -> first witness, None while passing

        def check(identity: str, passed: bool, witness: tuple) -> None:
            if first.setdefault(identity, None) is None and not passed:
                first[identity] = witness

        iota, dp = _bimodule(p, _iota, n), _bimodule(p, _periodic_d, n)
        e = (((0, 0), 1),)
        up, down = _linear(p, iota, e), _linear(p, dp, e)
        h, witness = periodic_grade(n, 0, 0, p), (n, 0, 0)
        check("pi_iota_identity", _linear(p, pi, up.items()) == {(0, 0): 1}, witness)
        check("iota_graded", all(bar_grade(t, p) == h for t in up), witness)
        if n >= 1:
            check("periodic_differential_squares_to_zero",
                  not _linear(p, dp_below, down.items()), witness)
            check("iota_commutes_with_differentials",
                  _linear(p, bar_d, up.items()) == _linear(p, iota_below, down.items()), witness)
        for inner in itertools.product(range(1, p), repeat=n):
            t = (0, *inner, 0)
            e = ((t, 1),)
            image = _linear(p, pi, e)
            s = bar_grade(t, p)
            check("pi_graded", all(periodic_grade(n, i, j, p) == s for i, j in image), (n, t))
            if n >= 1:
                dx = _linear(p, bar_d, e)
                if n >= 2:
                    check("bar_differential_squares_to_zero",
                          not _linear(p, bar_d, dx.items()), (n, t))
                check("pi_commutes_with_differentials",
                      _linear(p, dp, image.items()) == _linear(p, pi, dx.items()), (n, t))
        for identity in CHAIN_IDENTITIES:
            if identity in first:
                witness = first[identity]
                entry = {"identity": identity, "degree": n, "passed": witness is None}
                if witness is not None:
                    entry["witness"] = witness
                checks.append(entry)
        iota_below, dp_below = iota, dp

    passed = all(c["passed"] for c in checks)
    return {"p": p, "max_degree": max_degree, "passed": passed, "checks": checks}


def transfer_cochain(
    lambda_prime: tuple[GroupAlgebraElement, GroupAlgebraElement],
    alpha: VGroupElement,
) -> DeformationParams:
    """Pull a 2-cochain on the periodic-twisted resolution back along pi.

    The result has graded degree -1, so it vanishes on group pairs and is a
    parameter set with kappa^C = 0: lambda(g^i, v) = sum_(l=0)^(i-1)
    lambda'(g^l . v) g^(i-1), and kappa^L is alpha, its value on the wedge.
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
    return DeformationParams(p, tuple(table), GroupAlgebraElement.zero(p), alpha)


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
    """Transfer the distinguished cocycle of (a, b) to parameter tables.

    The output must coincide with the directly constructed candidate tables;
    that agreement is the bridge between the resolution on which cohomology
    is computed and the one on which the lifting conditions live.
    """
    if a.p != b.p:
        raise ValueError("mismatched primes")
    return transfer_cochain(*distinguished_cocycle(a, b))
