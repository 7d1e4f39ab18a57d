"""The six lifting conditions on a parameter set, as identities on its tables.

A parameter pair (lambda, kappa) defines a filtered quotient of T(V) x| G;
the quotient has the expected monomial basis exactly when six compatibility
conditions hold (Shepler-Witherspoon, PBW deformations of skew group algebras
in positive characteristic).  Here V = F_p^2 and g is the transvection
v1 -> v1, v2 -> v1 + v2, written into the formulas:

* (1), the cocycle condition on lambda, compares coefficients of F_pG;
* (2), the bracket condition coupling lambda to itself and to kappa^L, is
  one product identity in the commutative ring F_pG at each g^i;
* (3), the equivariance of kappa^L against lambda, is one scalar identity
  at each (g^i, g^n), because every power of g fixes v1 and has
  determinant 1;
* (4), (5) and (6) are alternating in three vectors of V, so they hold
  identically when dim V = 2, which is the only case built here.

Each check returns its list of residual witnesses in a deterministic
(lexicographic) order; a condition passes exactly when its list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .params import DeformationParams

DIM2_NOTE = "holds identically for a two-dimensional V; nothing to evaluate"


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail per condition with the witnesses of every failure."""

    passed: dict[int, bool]
    witnesses: dict[int, list]
    notes: dict[int, str] = field(default_factory=dict)

    @property
    def pbw(self) -> bool:
        return all(self.passed.values())

    def to_json(self) -> dict:
        return {
            "pbw": self.pbw,
            "conditions": {
                str(i): {
                    "passed": self.passed[i],
                    "witnesses": self.witnesses[i],
                    **({"note": self.notes[i]} if i in self.notes else {}),
                }
                for i in sorted(self.passed)
            },
        }


def check_condition1(params: DeformationParams) -> list:
    """lambda(g h, v) = lambda(g, h.v) h + g lambda(h, v) for all g, h, v.

    Witnesses are (i, j, m) for the pair (g^i, g^j) and basis vector v_m.
    """
    p = params.p
    bad = []
    for i in range(p):
        for j in range(p):
            for m in (1, 2):
                # g^j fixes v1 and sends v2 to j*v1 + v2.
                if m == 1:
                    twisted = params.lam[i][0]
                else:
                    twisted = params.lam[i][0].scale(j) + params.lam[i][1]
                residual = (
                    params.lam[(i + j) % p][m - 1]
                    - twisted.shift(j)
                    - params.lam[j][m - 1].shift(i)
                )
                if not residual.is_zero():
                    bad.append(((i, j, m), list(residual.coeffs)))
    return bad


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
    antisymmetry.  Witnesses are (i, residual coefficients).
    """
    kappa1, kappa2 = params.kappaL.row1, params.kappaL.row2
    bad = []
    for i, (lam1, lam2) in enumerate(params.lam):
        residual = (
            params.lam_ga(lam2, 1) - params.lam_ga(lam1, 2) + lam1 * kappa1 + lam2 * kappa2
        )
        if not residual.is_zero():
            bad.append((i, list(residual.coeffs)))
    return bad


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
    kappa2 = params.kappaL.row2.coeffs
    bad = []
    for i in range(p):
        lam1 = params.lam[i][0].coeffs
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
    witnesses = {i: checks[i](params) if i in checks else [] for i in range(1, 7)}
    passed = {i: not w for i, w in witnesses.items()}
    return ConditionReport(passed, witnesses, notes={4: DIM2_NOTE, 5: DIM2_NOTE})
