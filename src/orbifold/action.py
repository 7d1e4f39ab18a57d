"""The transvection action of G on V = F_p^2 and the small tensor spaces built from V.

The generator g acts by the unipotent matrix [[1, 1], [0, 1]]: it fixes v1
and sends v2 to v1 + v2, so g^i sends (x1, x2) to (x1 + i*x2, x2) and every
power has determinant 1.  V is hard-wired to dimension 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_algebra import GroupAlgebraElement


@dataclass(frozen=True)
class Vector:
    """x1*v1 + x2*v2 in V = F_p^2, entries reduced mod p."""

    p: int
    x1: int
    x2: int

    def __post_init__(self):
        object.__setattr__(self, "x1", self.x1 % self.p)
        object.__setattr__(self, "x2", self.x2 % self.p)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(self.p, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(self.p, self.x1 - other.x1, self.x2 - other.x2)

    def scale(self, c: int) -> "Vector":
        return Vector(self.p, c * self.x1, c * self.x2)

    def is_zero(self) -> bool:
        return self.x1 == 0 and self.x2 == 0


def v1(p: int) -> Vector:
    return Vector(p, 1, 0)


def v2(p: int) -> Vector:
    return Vector(p, 0, 1)


def act(i: int, v: Vector) -> Vector:
    """Apply g^i: (x1, x2) -> (x1 + i*x2, x2)."""
    return Vector(v.p, v.x1 + i * v.x2, v.x2)


@dataclass(frozen=True)
class Quad2GroupElement:
    """An element of S(V)_2 tensor F_pG in the monomial basis (v1^2, v1*v2, v2^2)."""

    q11: GroupAlgebraElement
    q12: GroupAlgebraElement
    q22: GroupAlgebraElement

    def __add__(self, other: "Quad2GroupElement") -> "Quad2GroupElement":
        return Quad2GroupElement(
            self.q11 + other.q11, self.q12 + other.q12, self.q22 + other.q22
        )

    def is_zero(self) -> bool:
        return self.q11.is_zero() and self.q12.is_zero() and self.q22.is_zero()


def sym_mul(u: Vector, w: Vector) -> Quad2GroupElement:
    """The commutative product u*w in S(V)_2, with group part concentrated at g^0."""
    p = u.p
    return Quad2GroupElement(
        GroupAlgebraElement.monomial(p, 0, u.x1 * w.x1),
        GroupAlgebraElement.monomial(p, 0, u.x1 * w.x2 + u.x2 * w.x1),
        GroupAlgebraElement.monomial(p, 0, u.x2 * w.x2),
    )
