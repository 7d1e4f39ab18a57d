"""Deformation parameter pairs (lambda, kappa) for the transvection skew group algebra.

A parameter set deforms the defining relations of S(V) x| G in two places:
lambda deforms the straightening relation g*v = (g.v)*g by a group-algebra
term, and kappa = kappa^C + kappa^L deforms the commutator v2*v1 = v1*v2 by
a constant part in F_pG and a linear part in V (x) F_pG.  This module builds
the cohomologically admissible families:

* ``build_candidate(a, b)`` -- the two-parameter family of cocycle
  representatives indexed by a pair of group-algebra elements,
* ``coboundary(f)`` -- the shift induced by a linear map f: V -> F_pG,
  which ``add_coboundary`` adds to a parameter set,
* ``closed_form(b, d, kappa_c)`` -- the fully solved family in which the
  remaining degrees of freedom are the (g-1)-adic class data of b: the
  candidate at (implied_a(b, d), b) with kappa^C added.

Each family is written out once; the others are sums of these tables.

lambda is stored on (group element, basis vector) pairs only; evaluation on
general arguments is by bilinear extension, left-linear in the group-algebra
slot.  kappa is stored as its value on (v1, v2) and extends antisymmetrically
with kappa(v, v) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .action import VGroupElement
from .group_algebra import GroupAlgebraElement, binom_mod, check_prime, json_int, scalar_inv


def _only_keys(obj, keys: tuple[str, ...], what: str) -> None:
    """Refuse anything but a JSON object whose keys are all in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a {what} object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ValueError(
                f"unexpected key {key!r} in the {what} object; expected {', '.join(keys)}"
            )


@dataclass(frozen=True)
class DeformationParams:
    """Tables (lambda, kappa^C, kappa^L) over a fixed prime p.

    ``lam[i]`` is the pair (lambda(g^i, v1), lambda(g^i, v2)).  The row at
    i = 0 must vanish: lambda(1, v) = 0 is forced by the group-compatibility
    condition at g = h = 1.
    """

    p: int
    lam: tuple[tuple[GroupAlgebraElement, GroupAlgebraElement], ...]
    kappaC: GroupAlgebraElement
    kappaL: VGroupElement

    def __post_init__(self):
        if len(self.lam) != self.p:
            raise ValueError(f"lambda table needs {self.p} rows, got {len(self.lam)}")
        for i, row in enumerate(self.lam):
            if len(row) != 2 or any(e.p != self.p for e in row):
                raise ValueError(f"bad lambda row at g^{i}")
        if not self.lam[0][0].is_zero() or not self.lam[0][1].is_zero():
            raise ValueError("lambda(1, v) must be 0")
        if self.kappaC.p != self.p or self.kappaL.p != self.p:
            raise ValueError("mismatched primes in kappa tables")

    @classmethod
    def zero(cls, p: int) -> "DeformationParams":
        z = GroupAlgebraElement.zero(p)
        return cls(p, tuple((z, z) for _ in range(p)), z, VGroupElement.zero(p))

    def lam_v(self, i: int, x1: int, x2: int) -> GroupAlgebraElement:
        """lambda(g^i, x1*v1 + x2*v2), by linearity in the vector slot."""
        return self.lam[i][0].scale(x1) + self.lam[i][1].scale(x2)

    def lam_ga(self, x: GroupAlgebraElement, j: int) -> GroupAlgebraElement:
        """lambda(x, v_j) for x in F_pG, by left-linearity in the group slot."""
        out = GroupAlgebraElement.zero(self.p)
        for m, c in enumerate(x.coeffs):
            if c:
                out = out + self.lam[m][j - 1].scale(c)
        return out

    def __add__(self, other: "DeformationParams") -> "DeformationParams":
        if self.p != other.p:
            raise ValueError("mismatched primes")
        lam = tuple(
            (a0 + b0, a1 + b1) for (a0, a1), (b0, b1) in zip(self.lam, other.lam)
        )
        return DeformationParams(
            self.p, lam, self.kappaC + other.kappaC, self.kappaL + other.kappaL
        )

    def with_kappaC(self, kappaC: GroupAlgebraElement) -> "DeformationParams":
        return DeformationParams(self.p, self.lam, kappaC, self.kappaL)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lambda": [[list(row[0].coeffs), list(row[1].coeffs)] for row in self.lam],
            "kappaC": list(self.kappaC.coeffs),
            "kappaL": self.kappaL.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DeformationParams":
        """Read the tables of to_json; an entry the tables do not use is an error."""
        _only_keys(obj, ("p", "lambda", "kappaC", "kappaL"), "parameter")
        try:
            p = check_prime(json_int(obj["p"]))
            lam = []
            for i, row in enumerate(obj["lambda"]):
                if not (isinstance(row, list) and len(row) == 2
                        and all(isinstance(x, list) for x in row)):
                    raise ValueError(
                        f"lambda row at g^{i} must be two coefficient lists, got {row!r}"
                    )
                lam.append(tuple(
                    GroupAlgebraElement.from_coeffs(p, map(json_int, x)) for x in row
                ))
            kappaC = GroupAlgebraElement.from_coeffs(p, map(json_int, obj["kappaC"]))
            _only_keys(obj["kappaL"], ("v1", "v2"), "kappaL")
            kappaL = VGroupElement.from_json(p, obj["kappaL"])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed parameter JSON: {exc}") from exc
        return cls(p, tuple(lam), kappaC, kappaL)

    def to_text(self) -> str:
        """Stable multi-line rendering used by golden-file tests."""
        lines = [f"p = {self.p}"]
        for i in range(self.p):
            lines.append(f"lambda(g^{i}, v1) = {self.lam[i][0].to_text()}")
            lines.append(f"lambda(g^{i}, v2) = {self.lam[i][1].to_text()}")
        lines.append(f"kappa^C = {self.kappaC.to_text()}")
        lines.append(f"kappa^L = {self.kappaL.to_text()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CoboundaryData:
    """A linear map f: V -> F_pG recorded by its values f(v1), f(v2).

    Only f(v1) enters the induced parameter shift; f(v2) is carried so that
    callers can hand over an arbitrary linear map unchanged.
    """

    f1: GroupAlgebraElement
    f2: GroupAlgebraElement

    @property
    def p(self) -> int:
        return self.f1.p


def build_candidate(a: GroupAlgebraElement, b: GroupAlgebraElement) -> DeformationParams:
    """The cocycle-representative family indexed by (a, b), with kappa^C = 0.

    lambda(g^i, v1) = i * b * g^i
    lambda(g^i, v2) = C(i,2) * b * g^i + i * (sum_{j>=1} a_j g^j) * g^i
    kappa^L(v1,v2)  = a_0 v1 + sum_j j * b_j * v2 g^j

    a_0 enters only kappa^L.
    """
    if a.p != b.p:
        raise ValueError("mismatched primes")
    p = a.p
    a_tail = GroupAlgebraElement.from_coeffs(p, (0,) + a.coeffs[1:])
    lam = []
    for i in range(p):
        lam_v1 = b.scale(i).shift(i)
        lam_v2 = b.scale(binom_mod(i, 2, p)).shift(i) + a_tail.scale(i).shift(i)
        lam.append((lam_v1, lam_v2))
    kappaL = VGroupElement(
        GroupAlgebraElement.monomial(p, 0, a.coeffs[0]),
        GroupAlgebraElement.from_coeffs(p, tuple(j * bj for j, bj in enumerate(b.coeffs))),
    )
    return DeformationParams(p, tuple(lam), GroupAlgebraElement.zero(p), kappaL)


def coboundary(f: CoboundaryData) -> DeformationParams:
    """The parameter shift induced by f.  Only f(v1) matters; kappa^C = 0.

    lambda_cob(g^i, v1) = 0
    lambda_cob(g^i, v2) = -i * f(v1) * g^i
    kappa^L_cob(v1,v2)  = sum_j j * f_j(v1) * v1 g^j
    """
    p = f.p
    zero = GroupAlgebraElement.zero(p)
    lam = tuple((zero, -f.f1.scale(i).shift(i)) for i in range(p))
    kappaL = VGroupElement(
        GroupAlgebraElement.from_coeffs(p, tuple(j * c for j, c in enumerate(f.f1.coeffs))),
        zero,
    )
    return DeformationParams(p, lam, zero, kappaL)


def add_coboundary(params: DeformationParams, f: CoboundaryData) -> DeformationParams:
    """Shift params by the coboundary of f; kappa^C is unchanged."""
    return params + coboundary(f)


def mu(p: int, d: Sequence[int], j: int) -> int:
    """The alternating binomial functional of the free coordinates d at index j.

    mu(d, j) = (-1)^(p-j) * sum_{m=1..k} (-1)^(m+1) C(p-m, p-j) d_m, which
    vanishes for j = 0 and for empty d; j must lie in [0, p).
    """
    if not 0 <= j < p:
        raise ValueError(f"mu needs j in [0, {p}), got {j}")
    total = sum(
        (-1) ** (m + 1) * binom_mod(p - m, p - j, p) * dm
        for m, dm in enumerate(d, start=1)
    )
    return ((-1) ** (p - j) * total) % p


def implied_a(b: GroupAlgebraElement, d: Sequence[int]) -> GroupAlgebraElement:
    """The unique a paired with (b, d): a_0 is the alternating d-sum and
    a_j = j^(p-2) * (mu(d, j) + C(j+1, 2) b_j) for j >= 1."""
    p = b.p
    coeffs = [sum((-1) ** (m + 1) * dm for m, dm in enumerate(d, start=1)) % p]
    for j in range(1, p):
        coeffs.append(
            scalar_inv(j, p) * (mu(p, d, j) + binom_mod(j + 1, 2, p) * b.coeffs[j]) % p
        )
    return GroupAlgebraElement.from_coeffs(p, coeffs)


def closed_form(
    b: GroupAlgebraElement,
    d: Sequence[int],
    kappaC: GroupAlgebraElement | None = None,
) -> DeformationParams:
    """The solved family for b, free coordinates d, and an arbitrary kappa^C.

    lambda(g^i, v1) = i b g^i
    lambda(g^i, v2) = sum_j (C(i,2) + i j^(p-2) C(j+1,2)) b_j g^(i+j)
                      + i sum_j j^(p-2) mu(d, j) g^(i+j)
    kappa(v1, v2)   = (d_1 - d_2 + ... +- d_k) v1 + sum_j j b_j v2 g^j + kappa^C

    These are the candidate tables at (implied_a(b, d), b) plus kappa^C.
    len(d) must equal the (g-1)-adic class k of b.
    """
    p = b.p
    k = b.gminus1_factor().k
    if len(d) != k:
        raise ValueError(f"b has (g-1)-adic class k={k}; expected {k} d-values, got {len(d)}")
    if kappaC is None:
        kappaC = GroupAlgebraElement.zero(p)
    if kappaC.p != p:
        raise ValueError("mismatched primes")
    return build_candidate(implied_a(b, d), b).with_kappaC(kappaC)


def params_to_ab(
    params: DeformationParams,
) -> tuple[GroupAlgebraElement, GroupAlgebraElement] | None:
    """Recover (a, b) when the tables match the candidate shape exactly.

    Returns None (not an error) when the tables are not of that shape;
    kappa^C is free and ignored by the comparison.
    """
    p = params.p
    b = params.lam[1][0].shift(-1)
    a_coeffs = [params.kappaL.row1.coeffs[0]]
    for j in range(1, p):
        a_coeffs.append(params.lam[1][1].coeffs[(1 + j) % p])
    a = GroupAlgebraElement.from_coeffs(p, a_coeffs)
    rebuilt = build_candidate(a, b)
    if rebuilt.lam == params.lam and rebuilt.kappaL == params.kappaL:
        return a, b
    return None
