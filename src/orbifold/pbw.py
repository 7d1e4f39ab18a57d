"""The six lifting conditions on a parameter set, as identities on its tables.

A parameter pair (lambda, kappa) defines a filtered quotient of T(V) x| G;
the quotient has the expected monomial basis exactly when six compatibility
conditions hold (Shepler-Witherspoon, PBW deformations of skew group algebras
in positive characteristic).  Here V = F_p^2 and g is the transvection
v1 -> v1, v2 -> v1 + v2, written into the formulas:

* (1), the cocycle condition on lambda, is one integer-array identity over
  the p x 2 x p table of lambda coefficients, at every (g^i, g^j, v_m) at once;
* (2), the bracket condition coupling lambda to itself and to kappa^L, is
  one product identity in the commutative ring F_pG at each g^i, and so one
  matrix identity over the same table, at every g^i at once;
* (3), the equivariance of kappa^L against lambda, is one scalar identity
  at each (g^i, g^n), because every power of g fixes v1 and has
  determinant 1;
* (4), (5) and (6) are alternating in three vectors of V, so they hold
  identically when dim V = 2, which is the only case built here.

Each check returns its list of residual witnesses in a deterministic
(lexicographic) order, with plain int entries; a condition passes exactly
when its list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar, Mapping

import numpy as np

from .group_algebra import shift_index, sum_index
from .params import DeformationParams

DIM2_NOTE = "holds identically for a two-dimensional V; nothing to evaluate"


@dataclass(frozen=True)
class ConditionReport:
    """The witnesses of each condition; a condition passes when it has none."""

    witnesses: dict[int, list]
    notes: ClassVar[Mapping[int, str]] = MappingProxyType({4: DIM2_NOTE, 5: DIM2_NOTE})

    @property
    def passed(self) -> dict[int, bool]:
        return {i: not w for i, w in self.witnesses.items()}

    @property
    def pbw(self) -> bool:
        return not any(self.witnesses.values())

    def to_json(self) -> dict:
        return {
            "pbw": self.pbw,
            "conditions": {
                str(i): {
                    "passed": not w,
                    "witnesses": w,
                    **({"note": self.notes[i]} if i in self.notes else {}),
                }
                for i, w in sorted(self.witnesses.items())
            },
        }


def _nonzero_rows(residual: np.ndarray) -> list:
    """(index, row) for every nonzero row along the last axis, in index
    order, as lists of plain ints."""
    return [
        (index, residual[tuple(index)].tolist())
        for index in np.argwhere(residual.any(axis=-1)).tolist()
    ]


def check_condition1(params: DeformationParams) -> list:
    """lambda(g h, v) = lambda(g, h.v) h + g lambda(h, v) for all g, h, v.

    g^j fixes v1 and sends v2 to j v1 + v2, so with L the lambda table
    params.lam and indices mod p, the residual at (g^i, g^j, v_m) is the row
    over n of

        m = 1:  L[i+j, 0, n] - L[i, 0, n-j] - L[j, 0, n-i]
        m = 2:  L[i+j, 1, n] - (j L[i, 0, n-j] + L[i, 1, n-j]) - L[j, 1, n-i]

    which is one array identity over every (i, j, m).  Witnesses are
    (i, j, m) for the pair (g^i, g^j) and basis vector v_m, with the
    residual coefficients.
    """
    p = params.p
    # |residual| < (p-1)(p+2) before reduction, so int16 holds it up to p = 179 and
    # keeps the four p^3 cubes alive at once (residual, shifted) at 7.3 MB for p = 97.
    lam = params.lam.astype(np.int16 if p * (p + 2) < 2**15 else np.int64)
    ar = np.arange(p)
    residual = lam[sum_index(p)]  # [i, j, m, n] = L[i+j, m, n]
    shifted = lam[:, :, shift_index(p)]  # [i, m, j, n] = L[i, m, n-j]
    residual -= shifted.transpose(0, 2, 1, 3)
    residual -= shifted.transpose(2, 0, 1, 3)
    twisted = shifted[:, 0]
    twisted *= ar[:, None]  # [i, j, n] = j L[i, 0, n-j]
    residual[:, :, 1] -= twisted
    residual %= p
    return [((i, j, m + 1), row) for (i, j, m), row in _nonzero_rows(residual)]


def check_condition2(params: DeformationParams) -> list:
    """The bracket condition at (u, v) = (v1, v2), one identity in F_pG per g^i.

    The residual at g^i is

        lambda(lambda(g^i, v2), v1) - lambda(lambda(g^i, v1), v2)
        + lambda(g^i, v1) kappa^L_1 + lambda(g^i, v2) kappa^L_2,

    where kappa^L_j is the v_j row of kappa^L: the sum over m of
    lambda(g^i, kappa^L_m(v1, v2)) g^m is this product because F_pG is
    commutative.  The kappa^C side, kappa^C(g.v1, g.v2) g - g kappa^C(v1, v2),
    is (det g^i - 1) kappa^C g^i = 0, because every power of the transvection
    has determinant 1.  Other input pairs are redundant by bilinearity and
    antisymmetry.

    lambda(x, v_j) is x A_j for the matrix A_j = L[:, j - 1, :] of the lambda
    table, and x k is x C(k) for the circulant C(k)[a, n] = k[n - a], so the
    residuals at every g^i are the rows of

        A2 A1 - A1 A2 + A1 C(kappa^L_1) + A2 C(kappa^L_2)  (mod p).

    Witnesses are (i, residual coefficients).
    """
    p = params.p
    a1, a2 = params.lam[:, 0], params.lam[:, 1]
    kappa1, kappa2 = params.kappaL[:, shift_index(p)]
    residual = (a2 @ a1 - a1 @ a2 + a1 @ kappa1 + a2 @ kappa2) % p
    return [(i, row) for (i,), row in _nonzero_rows(residual)]


def check_condition3(params: DeformationParams) -> list:
    """g.kappa^L_(g^-1 h)(u, v) - kappa^L_(h g^-1)(g.u, g.v)
    = (h.v - g.v) lambda_h(g, u) - (h.u - g.u) lambda_h(g, v)
    at (u, v) = (v1, v2) for all g = g^i and h = g^n, where lambda_h(g, u)
    is the coefficient of h in lambda(g, u).

    g^i fixes v1, sends v2 to v2 + i v1 and has determinant 1, so both sides
    are multiples of v1 and the residual is r v1 with

        r = i kappa^L_2[n - i] - (n - i) lambda(g^i, v1)[n].

    Witnesses are (i, n) pairs with the residual vector [r, 0] in V.
    """
    p = params.p
    kappa2 = params.kappaL[1].tolist()
    bad = []
    for i, lam1 in enumerate(params.lam[:, 0].tolist()):
        for n in range(p):
            r = (i * kappa2[(n - i) % p] - (n - i) * lam1[n]) % p
            if r:
                bad.append(((i, n), [r, 0]))
    return bad


def check_condition6(params: DeformationParams) -> list:
    """kappa^L_g(u, v)(w - g.w) + cyclic = 0 in S(V)_2 (x) F_pG, for every
    g^i and u, v, w in V.  It holds for every parameter set.

    The cyclic sum is trilinear in (u, v, w) and invariant under cyclic
    permutation.  It vanishes when u = v, since kappa^L_g(u, u) = 0 and the
    other two terms cancel by antisymmetry, so it vanishes whenever two
    arguments are equal.  Over the basis {v1, v2} every triple repeats a
    vector, so the sum is zero for a two-dimensional V, just as conditions
    (4) and (5) are.
    """
    return []


def check_all(params: DeformationParams) -> ConditionReport:
    """Run all six checks; the parameter set is PBW exactly when all pass.

    Conditions (4), (5) and (6) hold identically for a two-dimensional V:
    (4) and (5) pass with no witnesses and carry DIM2_NOTE, and (6) is
    check_condition6, which returns no witnesses.
    """
    checks = {1: check_condition1, 2: check_condition2, 3: check_condition3, 6: check_condition6}
    return ConditionReport({i: checks[i](params) if i in checks else [] for i in range(1, 7)})
