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
  remaining degrees of freedom are the coordinates d on the kernel basis of
  b: the candidate at (implied_a(b, d), b) with kappa^C added, where
  implied_a is solver.a_from_c on the kernel element with coordinates d.

Each family is written out once; the others are sums of these tables.

The tables are int64 arrays of coefficients (see DeformationParams): lambda
is given on the pairs (g^i, v_m) and extends bilinearly, left-linear in the
group-algebra slot, and kappa is given on (v1, v2) and extends
antisymmetrically with kappa(v, v) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group_algebra import (GroupAlgebraElement, check_prime, exact_int, json_int, same_prime,
                            shift_index)
from .solver import a_from_c, kernel_basis


def _only_keys(obj, keys: tuple[str, ...], what: str) -> None:
    """Refuse anything but a JSON object with exactly the keys in keys, naming
    the first key it has and should not, else the first it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a {what} object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ValueError(
                f"unexpected key {key!r} in the {what} object; expected {', '.join(keys)}"
            )
    for key in keys:
        if key not in obj:
            raise ValueError(f"missing key {key!r} in the {what} object")


def _coeffs(p: int, values, what: str) -> list[int]:
    """A JSON list of p integer coefficients, reduced mod p in Python, so that
    no coefficient is too large for an int64 array."""
    coeffs = [json_int(c) % p for c in values]
    if len(coeffs) != p:
        raise ValueError(f"{what} needs {p} coefficients, got {len(coeffs)}")
    return coeffs


def _text(p: int, coeffs: np.ndarray) -> str:
    return GroupAlgebraElement(p, tuple(coeffs.tolist())).to_text()


@dataclass(frozen=True, eq=False)
class DeformationParams:
    """Tables (lambda, kappa^C, kappa^L) over a fixed prime p.

    ``lam`` (p, 2, p): lam[i, m - 1, n] is the coefficient of g^n in
    lambda(g^i, v_m).  ``kappaC`` (p,) and ``kappaL`` (2, p): kappaL[m - 1, n]
    is the coefficient of v_m g^n in kappa^L(v1, v2).  The constructor checks
    p, reduces array-likes of integers (see exact_int) mod p into read-only
    int64 arrays and checks the shapes.  The row at i = 0 must vanish:
    lambda(1, v) = 0 is forced by the group-compatibility condition at g = h = 1.
    """

    p: int
    lam: np.ndarray
    kappaC: np.ndarray
    kappaL: np.ndarray

    def __post_init__(self):
        p = check_prime(self.p)
        object.__setattr__(self, "p", p)
        for name, shape in (("lam", (p, 2, p)), ("kappaC", (p,)), ("kappaL", (2, p))):
            table = np.asarray(getattr(self, name))
            if table.dtype.kind not in "biu":
                table = np.reshape([exact_int(c) % p for c in table.ravel().tolist()], table.shape)
            table = table.astype(np.int64, copy=False) % p
            if table.shape != shape:
                raise ValueError(f"{name} needs shape {shape}, got {table.shape}")
            table.flags.writeable = False
            object.__setattr__(self, name, table.view())  # a view cannot be made writeable
        if self.lam[0].any():
            raise ValueError("lambda(1, v) must be 0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeformationParams):
            return NotImplemented
        mine, theirs = (self.lam, self.kappaC, self.kappaL), (other.lam, other.kappaC, other.kappaL)
        return self.p == other.p and all(map(np.array_equal, mine, theirs))

    @classmethod
    def zero(cls, p: int) -> "DeformationParams":
        return cls(p, np.zeros((p, 2, p), int), np.zeros(p, int), np.zeros((2, p), int))

    def lam_v(self, i: int, x1: int, x2: int) -> GroupAlgebraElement:
        """lambda(g^i, x1*v1 + x2*v2), by linearity in the vector slot."""
        row = (x1 % self.p) * self.lam[i, 0] + (x2 % self.p) * self.lam[i, 1]
        return GroupAlgebraElement.from_coeffs(self.p, row.tolist())

    def lam_ga(self, x: GroupAlgebraElement, j: int) -> GroupAlgebraElement:
        """lambda(x, v_j) for x in F_pG, by left-linearity in the group slot."""
        row = np.array(x.coeffs) @ self.lam[:, j - 1]
        return GroupAlgebraElement.from_coeffs(self.p, row.tolist())

    def __add__(self, other: "DeformationParams") -> "DeformationParams":
        if not isinstance(other, DeformationParams):
            return NotImplemented
        return DeformationParams(
            same_prime(self.p, other.p),
            self.lam + other.lam, self.kappaC + other.kappaC, self.kappaL + other.kappaL,
        )

    def with_kappaC(self, kappaC: GroupAlgebraElement) -> "DeformationParams":
        p = same_prime(self.p, kappaC.p)
        return DeformationParams(p, self.lam, kappaC.coeffs, self.kappaL)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lambda": self.lam.tolist(),
            "kappaC": self.kappaC.tolist(),
            "kappaL": {"v1": self.kappaL[0].tolist(), "v2": self.kappaL[1].tolist()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DeformationParams":
        """Read the tables of to_json; a missing entry, an entry the tables do
        not use, or a list of the wrong length, is an error."""
        _only_keys(obj, ("p", "lambda", "kappaC", "kappaL"), "parameter")
        try:
            p = check_prime(json_int(obj["p"]))
            rows = obj["lambda"]
            if len(rows) != p:
                raise ValueError(f"lambda table needs {p} rows, got {len(rows)}")
            lam = []
            for i, row in enumerate(rows):
                if not (isinstance(row, list) and len(row) == 2
                        and all(isinstance(x, list) for x in row)):
                    raise ValueError(
                        f"lambda row at g^{i} must be two coefficient lists, got {row!r}"
                    )
                lam.append([_coeffs(p, x, f"lambda(g^{i}, v{m})") for m, x in enumerate(row, 1)])
            kappaC = _coeffs(p, obj["kappaC"], "kappaC")
            _only_keys(obj["kappaL"], ("v1", "v2"), "kappaL")
            kappaL = [_coeffs(p, obj["kappaL"][v], f"kappaL {v}") for v in ("v1", "v2")]
        except TypeError as exc:
            raise ValueError(f"malformed parameter JSON: {exc}") from exc
        return cls(p, lam, kappaC, kappaL)

    def to_text(self) -> str:
        """Stable multi-line rendering used by golden-file tests."""
        p = self.p
        lines = [f"p = {p}"] + [
            f"lambda(g^{i}, v{m + 1}) = {_text(p, self.lam[i, m])}" for i, m in np.ndindex(p, 2)
        ]
        kappaL = [f"v{m + 1}*({_text(p, row)})" for m, row in enumerate(self.kappaL) if row.any()]
        lines += [f"kappa^C = {_text(p, self.kappaC)}", f"kappa^L = {' + '.join(kappaL) or '0'}"]
        return "\n".join(lines)


@dataclass(frozen=True)
class CoboundaryData:
    """A linear map f: V -> F_pG recorded by its values f(v1), f(v2).

    Only f(v1) enters the induced parameter shift; f(v2) is carried so that
    callers can hand over an arbitrary linear map unchanged.
    """

    f1: GroupAlgebraElement
    f2: GroupAlgebraElement

    def __post_init__(self):
        if not all(isinstance(f, GroupAlgebraElement) for f in (self.f1, self.f2)):
            raise TypeError(f"f1, f2 must be group-algebra elements, got {self.f1!r}, {self.f2!r}")
        same_prime(self.f1.p, self.f2.p)

    @property
    def p(self) -> int:
        return self.f1.p


def times_g_i(rows: np.ndarray) -> np.ndarray:
    """rows[i] times g^i for every i: a (p, ..., p) array whose last axis
    holds coefficients, each row i shifted as x.shift(i) shifts x."""
    p = rows.shape[0]
    index = shift_index(p).reshape((p,) + (1,) * (rows.ndim - 2) + (p,))
    return np.take_along_axis(rows, index, axis=-1)


def build_candidate(a: GroupAlgebraElement, b: GroupAlgebraElement) -> DeformationParams:
    """The cocycle-representative family indexed by (a, b), with kappa^C = 0.

    lambda(g^i, v1) = i * b * g^i
    lambda(g^i, v2) = C(i,2) * b * g^i + i * (sum_{j>=1} a_j g^j) * g^i
    kappa^L(v1,v2)  = a_0 v1 + sum_j j * b_j * v2 g^j

    a_0 enters only kappa^L.
    """
    p = same_prime(a.p, b.p)
    i = np.arange(p)[:, None]
    a_tail = np.array((0,) + a.coeffs[1:])
    bv = np.array(b.coeffs)
    lam = np.stack([i * bv, i * (i - 1) // 2 * bv + i * a_tail], axis=1)
    kappaL = [[a.coeffs[0]] + [0] * (p - 1), np.arange(p) * bv]
    return DeformationParams(p, times_g_i(lam), np.zeros(p, int), kappaL)


def coboundary(f: CoboundaryData) -> DeformationParams:
    """The parameter shift induced by f.  Only f(v1) matters; kappa^C = 0.

    lambda_cob(g^i, v1) = 0
    lambda_cob(g^i, v2) = -i * f(v1) * g^i
    kappa^L_cob(v1,v2)  = sum_j j * f_j(v1) * v1 g^j
    """
    p = f.p
    f1 = np.array(f.f1.coeffs)
    lam = np.stack([np.zeros((p, p), dtype=np.int64), -np.arange(p)[:, None] * f1], axis=1)
    return DeformationParams(p, times_g_i(lam), [0] * p, [np.arange(p) * f1, [0] * p])


def add_coboundary(params: DeformationParams, f: CoboundaryData) -> DeformationParams:
    """Shift params by the coboundary of f; kappa^C is unchanged."""
    return params + coboundary(f)


def implied_a(b: GroupAlgebraElement, d: Sequence[int]) -> GroupAlgebraElement:
    """The unique a paired with (b, d): a_from_c of c = sum_m d_m (g-1)^(p-m), whose
    coordinates on kernel_basis(b) are d; len(d) must be the class k of b."""
    basis = kernel_basis(b)
    if len(d) != (k := len(basis)):
        raise ValueError(f"b has (g-1)-adic class k={k}; expected {k} d-values, got {len(d)}")
    return a_from_c(sum(map(GroupAlgebraElement.scale, basis, d), GroupAlgebraElement.zero(b.p)), b)


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

    with mu(d, j) = (-1)^(p-j) sum_(m=1..k) (-1)^(m+1) C(p-m, p-j) d_m, the
    g^(p-j) coefficient of sum_m d_m (g-1)^(p-m).  These are the candidate tables
    at (implied_a(b, d), b) plus kappa^C; len(d) must be the class k of b.
    """
    candidate = build_candidate(implied_a(b, d), b)
    return candidate if kappaC is None else candidate.with_kappaC(kappaC)


def params_to_ab(
    params: DeformationParams,
) -> tuple[GroupAlgebraElement, GroupAlgebraElement] | None:
    """Recover (a, b) when the tables match the candidate shape exactly.

    Returns None (not an error) when the tables are not of that shape;
    kappa^C is free and ignored by the comparison.
    """
    p = params.p
    after = np.roll(params.lam[1], -1, axis=-1)  # lambda(g, v_m) g^-1
    b = GroupAlgebraElement.from_coeffs(p, after[0].tolist())
    a = GroupAlgebraElement.from_coeffs(p, [int(params.kappaL[0, 0])] + after[1, 1:].tolist())
    rebuilt = build_candidate(a, b)
    if np.array_equal(rebuilt.lam, params.lam) and np.array_equal(rebuilt.kappaL, params.kappaL):
        return a, b
    return None
