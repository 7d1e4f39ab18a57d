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

The G-grading conventions: a bar tensor is graded by the sum of all its
exponents; the degree-n component of the periodic resolution places
g^i (x) g^j in grade i + j for n even and i + j + 1 for n odd.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .action import VGroupElement
from .group_algebra import GroupAlgebraElement, check_prime
from .params import CoboundaryData, DeformationParams

MAX_CHAIN_DEGREE = 6


@dataclass(frozen=True)
class BarGroupChain:
    """An element of F_pG (x) (reduced F_pG)^(x n) (x) F_pG with group-element slots.

    Terms map exponent tuples (i_0, ..., i_(n+1)) to scalars; the outer
    slots i_0, i_(n+1) are arbitrary, the inner slots lie in [1, p).
    """

    p: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def make(cls, p: int, degree: int, terms: dict[tuple[int, ...], int]) -> "BarGroupChain":
        clean = {}
        for t, c in terms.items():
            if len(t) != degree + 2:
                raise ValueError(f"degree-{degree} tensors need {degree + 2} slots, got {t}")
            if any(not (1 <= e < p) for e in t[1:-1]):
                raise ValueError(f"inner slots must lie in [1, p): {t}")
            c %= p
            if c:
                clean[tuple(e % p for e in t)] = c
        return cls(p, degree, tuple(sorted(clean.items())))

    def term_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class PeriodicChain:
    """An element of the degree-n component F_pG (x) F_pG of the periodic resolution."""

    p: int
    degree: int
    matrix: tuple[tuple[int, ...], ...]  # [i][j] = coefficient of g^i (x) g^j

    @classmethod
    def make(cls, p: int, degree: int, entries: dict[tuple[int, int], int]) -> "PeriodicChain":
        m = [[0] * p for _ in range(p)]
        for (i, j), c in entries.items():
            m[i % p][j % p] = (m[i % p][j % p] + c) % p
        return cls(p, degree, tuple(tuple(row) for row in m))

    @classmethod
    def basis(cls, p: int, degree: int, i: int, j: int) -> "PeriodicChain":
        return cls.make(p, degree, {(i, j): 1})

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self.matrix):
            for j, c in enumerate(row):
                if c:
                    yield i, j, c

    def term_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.entries()}

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.matrix for c in row)


def bar_basis(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All basis exponent tuples of the reduced bar in one homological degree."""
    inner = [range(1, p)] * degree
    for tup in itertools.product(range(p), *inner, range(p)):
        yield tup


def bar_differential(x: BarGroupChain) -> BarGroupChain:
    """Alternating sum of adjacent slot multiplications.

    A term is dropped whenever the merged slot is inner and the product of
    exponents is the identity (the reduced-bar quotient).
    """
    if x.degree < 1:
        raise ValueError("bar differential needs degree >= 1")
    p, n = x.p, x.degree
    out: dict[tuple[int, ...], int] = {}
    for t, c in x.terms:
        for m in range(n + 1):
            s = (t[m] + t[m + 1]) % p
            if s == 0 and 1 <= m <= n - 1:
                continue  # inner slot became the identity
            merged = t[:m] + (s,) + t[m + 2:]
            out[merged] = out.get(merged, 0) + (-1) ** m * c
    return BarGroupChain.make(p, n - 1, out)


def periodic_differential(x: PeriodicChain) -> "PeriodicChain | GroupAlgebraElement":
    """The periodic differential: m at degree 0, gamma at odd, eta at even degrees.

    gamma acts by g.x - x.g and eta by sum_l g^l . x . g^(p-1-l), both in the
    bimodule sense on F_pG (x) F_pG.
    """
    p = x.p
    if x.degree == 0:
        coeffs = [0] * p
        for i, j, c in x.entries():
            coeffs[(i + j) % p] = (coeffs[(i + j) % p] + c) % p
        return GroupAlgebraElement.from_coeffs(p, coeffs)
    out: dict[tuple[int, int], int] = {}
    if x.degree % 2 == 1:
        for i, j, c in x.entries():
            out[((i + 1) % p, j)] = out.get(((i + 1) % p, j), 0) + c
            out[(i, (j + 1) % p)] = out.get((i, (j + 1) % p), 0) - c
    else:
        for i, j, c in x.entries():
            for l in range(p):
                key = ((i + l) % p, (j + p - 1 - l) % p)
                out[key] = out.get(key, 0) + c
    return PeriodicChain.make(p, x.degree - 1, out)


def _pi_core(p: int, inner: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """pi of 1 (x) g^(i_1) (x) ... (x) g^(i_n) (x) 1 as entries of F_pG (x) F_pG.

    Even degree 2k: the product over pair sums, prod_j (1 (x) g^(i_(2j-1)+i_(2j)-p)),
    zero whenever a pair sum is below p.  Odd degree 2k+1: the extra factor
    sum_(l=0)^(i_1-1) g^l (x) g^(i_1-l-1) in front of the even product over
    the remaining pairs.
    """
    n = len(inner)
    if n == 0:
        return {(0, 0): 1}
    if n % 2 == 0:
        pairs = [(inner[2 * j], inner[2 * j + 1]) for j in range(n // 2)]
        first = None
    else:
        first = inner[0]
        rest = inner[1:]
        pairs = [(rest[2 * j], rest[2 * j + 1]) for j in range(len(rest) // 2)]
    e = 0
    for s, r in pairs:
        if s + r < p:
            return {}
        e += s + r - p
    if first is None:
        return {(0, e % p): 1}
    return {(l % p, (first - l - 1 + e) % p): 1 for l in range(first)}


def pi_group(n: int, x: BarGroupChain) -> PeriodicChain:
    """The chain map from the reduced bar to the periodic resolution."""
    if n != x.degree:
        raise ValueError(f"degree mismatch: {n} != {x.degree}")
    p = x.p
    out: dict[tuple[int, int], int] = {}
    for t, c in x.terms:
        for (i, j), c2 in _pi_core(p, t[1:-1]).items():
            key = ((i + t[0]) % p, (j + t[-1]) % p)
            out[key] = out.get(key, 0) + c * c2
    return PeriodicChain.make(p, n, out)


def iota_group(p: int, n: int) -> BarGroupChain:
    """The image of 1 (x) 1 under the chain map from the periodic resolution.

    For n = 2k (resp. 2k+1) the image sums over all inner exponent choices
    i_1, ..., i_k in [1, p), alternating them with single g's, and carries
    the trailing bimodule factor g^(kp - sum(i) - k) that keeps the map
    graded of degree zero.
    """
    k = n // 2
    out: dict[tuple[int, ...], int] = {}
    for choice in itertools.product(range(1, p), repeat=k):
        trailing = (k * p - sum(choice) - k) % p
        inner: tuple[int, ...] = ()
        if n % 2 == 1:
            inner = (1,)
        for idx in range(k - 1, -1, -1):
            inner = inner + (choice[idx], 1)
        out[(0,) + inner + (trailing,)] = 1
    return BarGroupChain.make(p, n, out)


def iota_chain(x: PeriodicChain) -> BarGroupChain:
    """Extend iota to arbitrary chains by the bimodule action on the outer slots."""
    p = x.p
    base = iota_group(p, x.degree).terms
    out: dict[tuple[int, ...], int] = {}
    for i, j, c in x.entries():
        for t, c2 in base:
            key = ((t[0] + i) % p,) + t[1:-1] + ((t[-1] + j) % p,)
            out[key] = out.get(key, 0) + c * c2
    return BarGroupChain.make(p, x.degree, out)


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


def _terms(x: "BarGroupChain | PeriodicChain | GroupAlgebraElement") -> dict:
    """Nonzero coefficients of a chain, or of the F_pG element that m lands in."""
    if isinstance(x, GroupAlgebraElement):
        return {k: c for k, c in enumerate(x.coeffs) if c}
    return x.term_dict()


def _extend(p: int, columns: dict, x: dict) -> dict:
    """Apply the linear map with sparse columns {label: {label: coeff}} to x, mod p."""
    out: dict = {}
    for label, c in x.items():
        for key, c2 in columns[label].items():
            out[key] = (out.get(key, 0) + c * c2) % p
    return {key: c for key, c in out.items() if c}


def verify_chain_maps(p: int, max_degree: int) -> dict:
    """Numerically certify the comparison maps in degrees <= max_degree.

    Checks, per degree: the two differentials square to zero, pi . iota is
    the identity, the commuting squares d.pi = pi.d and d.iota = iota.d,
    and that both maps preserve the G-grading.  Returns a report with a
    witness tuple for every failed identity: the first failing basis
    element in lexicographic order, (n, i, j) on the periodic side and
    (n, t) on the bar side.

    Each degree-n map is applied once per basis element, periodic basis
    first.  The degree n-1 maps an identity reaches down to are kept as
    sparse columns and extended linearly; the top degree's bar-side columns
    are never stored.
    """
    check_prime(p)
    if not (0 <= max_degree <= MAX_CHAIN_DEGREE):
        raise ValueError(f"degree bound must be in [0, {MAX_CHAIN_DEGREE}], got {max_degree}")
    checks: list[dict] = []
    below: dict[str, dict] = {}
    for n in range(max_degree + 1):
        first: dict[str, tuple | None] = {}  # identity -> first witness, None while passing

        def check(identity: str, passed: bool, witness: tuple) -> None:
            if first.setdefault(identity, None) is None and not passed:
                first[identity] = witness

        cols: dict[str, dict] = {"iota": {}, "dp": {}, "pi": {}, "d": {}}
        for i, j in itertools.product(range(p), repeat=2):
            e = PeriodicChain.basis(p, n, i, j)
            up, down = iota_chain(e), _terms(periodic_differential(e))
            cols["iota"][i, j], cols["dp"][i, j] = up.term_dict(), down
            h = periodic_grade(n, i, j, p)
            check("pi_iota_identity", pi_group(n, up) == e, (n, i, j))
            check("iota_graded", all(bar_grade(t, p) == h for t, _ in up.terms), (n, i, j))
            if n >= 1:
                check("periodic_differential_squares_to_zero",
                      not _extend(p, below["dp"], down), (n, i, j))
                d_up = bar_differential(up).term_dict()
                check("iota_commutes_with_differentials",
                      d_up == _extend(p, below["iota"], down), (n, i, j))
        keep = n < max_degree
        for t in bar_basis(p, n):
            x = BarGroupChain.make(p, n, {t: 1})
            image = pi_group(n, x).term_dict()
            s = bar_grade(t, p)
            check("pi_graded", all(periodic_grade(n, i, j, p) == s for i, j in image), (n, t))
            if n >= 1:
                dx = bar_differential(x).term_dict()
                if n >= 2:
                    check("bar_differential_squares_to_zero",
                          not _extend(p, below["d"], dx), (n, t))
                check("pi_commutes_with_differentials",
                      _extend(p, cols["dp"], image) == _extend(p, below["pi"], dx), (n, t))
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
        below = cols

    passed = all(c["passed"] for c in checks)
    return {"p": p, "max_degree": max_degree, "passed": passed, "checks": checks}


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
