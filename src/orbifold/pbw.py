"""Direct evaluation of the six lifting conditions on a parameter set.

A parameter pair (lambda, kappa) defines a filtered quotient of T(V) x| G;
the quotient has the expected monomial basis exactly when six compatibility
conditions hold.  Conditions (1), (3), (6) are cocycle conditions, (2) is
the bracket condition coupling lambda to itself and to kappa^L, and (4), (5)
hold identically when dim V = 2, which is the only case built here.

Each check returns its list of residual witnesses in a deterministic
(lexicographic) order; a condition passes exactly when its list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .action import Vector, act, sym_mul, v1, v2
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


def _wedge_coeff(u: Vector, w: Vector) -> int:
    """The coefficient of (v1, v2) in the antisymmetric extension at (u, w)."""
    return (u.x1 * w.x2 - u.x2 * w.x1) % u.p


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
    """The bracket condition at (u, v) = (v1, v2) for every g^i.

    RHS = lambda(lambda(g,v2), v1) - lambda(lambda(g,v1), v2)
          + sum_m lambda(g, kappa^L_m(v1,v2)) g^m,
    LHS = kappa^C(g.v1, g.v2) g - g kappa^C(v1, v2), which vanishes here
    because every power of the transvection has determinant 1.  Other
    input pairs are redundant by bilinearity and antisymmetry.
    """
    p = params.p
    bad = []
    e1, e2 = v1(p), v2(p)
    for i in range(p):
        rhs = params.lam_ga(params.lam[i][1], 1) - params.lam_ga(params.lam[i][0], 2)
        for m in range(p):
            col = params.kappaL.column(m)
            if not col.is_zero():
                rhs = rhs + params.lam_v(i, col.x1, col.x2).shift(m)
        det = _wedge_coeff(act(i, e1), act(i, e2))
        lhs = params.kappaC.scale(det).shift(i) - params.kappaC.shift(i)
        residual = rhs - lhs
        if not residual.is_zero():
            bad.append((i, list(residual.coeffs)))
    return bad


def check_condition3(params: DeformationParams) -> list:
    """g.(kappa^L at g^-1 h) - (kappa^L at h g^-1)(g.u, g.v) matches the
    lambda coefficient pairing, at (u, v) = (v1, v2) for all g^i, h = g^n.

    Witnesses are (i, n) pairs with the residual vector in V.
    """
    p = params.p
    bad = []
    e1, e2 = v1(p), v2(p)
    for i in range(p):
        gu, gv = act(i, e1), act(i, e2)
        for n in range(p):
            m = (n - i) % p
            col = params.kappaL.column(m)
            lhs = act(i, col) - col.scale(_wedge_coeff(gu, gv))
            rhs = (act(n, e2) - gv).scale(params.lam[i][0].coeffs[n]) - (
                act(n, e1) - gu
            ).scale(params.lam[i][1].coeffs[n])
            residual = lhs - rhs
            if not residual.is_zero():
                bad.append(((i, n), [residual.x1, residual.x2]))
    return bad


def check_condition6(params: DeformationParams) -> list:
    """kappa^L_g(u,v)(w - g.w) + cyclic = 0 in degree-2 polynomials,
    for every g^i and every ordered triple over {v1, v2}.

    Witnesses are (i, (u, v, w)) with the residual monomial coefficients.
    """
    p = params.p
    bad = []
    basis = {1: v1(p), 2: v2(p)}
    for i in range(p):
        col = params.kappaL.column(i)
        for mu in (1, 2):
            for mv in (1, 2):
                for mw in (1, 2):
                    u, v, w = basis[mu], basis[mv], basis[mw]
                    total = sym_mul(col.scale(_wedge_coeff(u, v)), w - act(i, w))
                    total = total + sym_mul(col.scale(_wedge_coeff(v, w)), u - act(i, u))
                    total = total + sym_mul(col.scale(_wedge_coeff(w, u)), v - act(i, v))
                    if not total.is_zero():
                        bad.append(
                            (
                                (i, (mu, mv, mw)),
                                [
                                    total.q11.coeffs[0],
                                    total.q12.coeffs[0],
                                    total.q22.coeffs[0],
                                ],
                            )
                        )
    return bad


def check_all(params: DeformationParams) -> ConditionReport:
    """Run all six checks; the parameter set is PBW exactly when all pass.

    Conditions (4) and (5) hold identically for a two-dimensional V, so they
    pass with no witnesses and carry DIM2_NOTE.
    """
    checks = {1: check_condition1, 2: check_condition2, 3: check_condition3, 6: check_condition6}
    witnesses = {i: checks[i](params) if i in checks else [] for i in range(1, 7)}
    passed = {i: not w for i, w in witnesses.items()}
    return ConditionReport(passed, witnesses, notes={4: DIM2_NOTE, 5: DIM2_NOTE})
