"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports orbifold.  Group-algebra elements are plain coefficient
tuples (index i holds the coefficient of g^i), parsed from the program's text
form by a parser of our own, and the solution condition is the compatibility
system transcribed from its definition:

    r_l = a_0 b_l + sum_j b_(l-j) (-C(j+1, 2) b_j + j a_j)   (indices mod p)

A pair (a, b) is a solution exactly when every r_l is 0 mod p; there are
p^(p+1) of them.
"""

from __future__ import annotations

import re
from math import comb

# A coefficient may print as an integral float ("2.0*g"): closed-form outputs
# carry float zeros from gminus1_power into their coefficients.  The value is
# what is checked, so "2.0" reads as 2.
_COEFF = r"(\d+)(?:\.0)?"
_TERM = re.compile(rf"(?:{_COEFF}\*)?g(?:\^(\d+))?|{_COEFF}")


def parse_element(p: int, text: str) -> tuple[int, ...]:
    """Coefficients of a signed polynomial in g such as "-1 + g - 2*g^3"."""
    coeffs = [0] * p
    text = text.strip()
    if text == "0":
        return tuple(coeffs)
    seen = set()
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        m = _TERM.fullmatch(token.lstrip("-"))
        if m is None:
            raise ValueError(f"bad term {token!r} in {text!r}")
        if m.group(3) is not None:
            exp, coeff = 0, int(m.group(3))
        else:
            exp, coeff = int(m.group(2) or 1), int(m.group(1) or 1)
        if exp >= p or exp in seen or coeff % p == 0:
            raise ValueError(f"bad term {token!r} in {text!r}")
        seen.add(exp)
        coeffs[exp] = sign * coeff % p
    return tuple(coeffs)


def residual(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The p residuals of the compatibility system at (a, b)."""
    t = [-comb(j + 1, 2) * b[j] + j * a[j] for j in range(p)]
    return tuple(
        (a[0] * b[l] + sum(b[(l - j) % p] * t[j] for j in range(p))) % p for l in range(p)
    )


def is_solution(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(residual(p, a, b))


def candidate_ab(obj: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read (a, b) off parameter JSON of the candidate shape.

    lambda(g, v1) = b g, so b_j is the coefficient of g^(j+1); lambda(g, v2)
    carries a_j at g^(j+1) for j >= 1 (its b-part has C(1, 2) = 0); a_0 is
    the v1 g^0 coefficient of kappa^L.
    """
    p = obj["p"]
    lam_v1, lam_v2 = obj["lambda"][1]
    b = tuple(lam_v1[(j + 1) % p] % p for j in range(p))
    a = (obj["kappaL"]["v1"][0] % p,) + tuple(lam_v2[(j + 1) % p] % p for j in range(1, p))
    return a, b


def chain_identities(degree: int) -> list[str]:
    """The identities verify_chain_maps checks in one degree, in report order."""
    names = ["pi_iota_identity", "iota_graded", "pi_graded"]
    if degree >= 2:
        names.append("bar_differential_squares_to_zero")
    if degree >= 1:
        names += [
            "periodic_differential_squares_to_zero",
            "pi_commutes_with_differentials",
            "iota_commutes_with_differentials",
        ]
    return names
