"""Exact arithmetic in the modular group algebra F_p[G] for G cyclic of odd prime order p.

Elements are stored as dense length-p coefficient vectors in the basis
1, g, ..., g^(p-1).  Because char F_p = |G| = p, the algebra is local:
F_pG is isomorphic to F_p[t]/(t^p) via t = g - 1, the augmentation
(coefficient sum) is the unique maximal-ideal quotient, and every element
factors uniquely as (g-1)^k * u with u a unit.  That factorization drives
the whole solver, so it lives here next to the basic ring operations.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_PRIME_CEILING = 97
#: The most rows, pairs or terms one sweep may touch (see check_work).
MAX_WORK = 10**7


class NotAUnit(ValueError):
    """Raised when inverting an element of the augmentation ideal."""


class TooLarge(ValueError):
    """Raised, by check_work alone, when a sweep would touch more than MAX_WORK units."""


def check_work(what: str, count: int, unit: str) -> None:
    """Refuse a sweep, before any work, that touches count units past MAX_WORK."""
    if count > MAX_WORK:
        raise TooLarge(f"{what} = {count} {unit} is past the limit of {MAX_WORK}")


def json_int(value) -> int:
    """value, if it is a JSON integer: an int and not a bool (no float, NaN or string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def exact_int(value) -> int:
    """value as a Python int if it is an integer (numpy integers and integral floats too)."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    if not hasattr(value, "__index__"):
        raise ValueError(f"expected an integer coefficient, got {value!r}")
    return operator.index(value)


def check_prime(p: int) -> int:
    """p, validated as an odd prime in [3, DEFAULT_PRIME_CEILING]; sweeps also check_work."""
    if not isinstance(p, int):  # outside the cache, where 3.0 would hit the entry of 3
        raise ValueError(f"p must be an integer, got {p!r}")
    return _check_int_prime(p)


@lru_cache(maxsize=None)
def _check_int_prime(p: int) -> int:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    if p > DEFAULT_PRIME_CEILING:
        raise ValueError(f"p={p} exceeds the ceiling {DEFAULT_PRIME_CEILING}")
    if any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
        raise ValueError(f"p={p} is not prime")
    return p


def same_prime(*ps: int) -> int:
    """The one prime shared by ps; ValueError("mismatched primes: ...") if they differ."""
    if len(set(ps)) != 1:
        raise ValueError(f"mismatched primes: {sorted(set(ps))}")
    return ps[0]


@lru_cache(maxsize=None)
def binom_mod(n: int, m: int, p: int) -> int:
    """C(n, m) mod p, computed over the integers.  C(n, m) = 0 for m > n or m < 0."""
    if m < 0 or m > n:
        return 0
    return comb(n, m) % p


def scalar_inv(j: int, p: int) -> int:
    """j^(p-2) mod p: the inverse of j for j != 0, and 0 for j = 0.

    The vanishing convention at 0 is load-bearing: closed-form solution
    formulas multiply by j^(p-2) precisely so the j = 0 term drops out.
    """
    return pow(j % p, p - 2, p)


@dataclass(frozen=True)
class Factorization:
    """The unique (g-1)-adic factorization x = (g-1)^k * btilde.

    For x != 0, k in [0, p) and btilde has nonzero augmentation (is a unit).
    For x = 0, k = p and btilde = 1 by convention.
    """

    k: int
    btilde: "GroupAlgebraElement"


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An element of F_p[G], G = <g> cyclic of order p.

    coeffs[i] is the coefficient of g^i, a Python int reduced to [0, p) (see
    exact_int), and p passes check_prime.  Instances are immutable and all
    operations are pure, so one value may sit in many tables and serve as a dict key.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p, coeffs = check_prime(self.p), self.coeffs
        if len(coeffs) != p:
            raise ValueError(f"expected {p} coefficients, got {len(coeffs)}")
        if type(coeffs) is not tuple or not all(type(c) is int and 0 <= c < p for c in coeffs):
            object.__setattr__(self, "coeffs", tuple(exact_int(c) % p for c in coeffs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "GroupAlgebraElement":
        return cls(p, (0,) * p)

    @classmethod
    def one(cls, p: int) -> "GroupAlgebraElement":
        return cls.monomial(p, 0, 1)

    @classmethod
    def g(cls, p: int, exp: int = 1) -> "GroupAlgebraElement":
        """The basis element g^exp."""
        return cls.monomial(p, exp, 1)

    @classmethod
    def monomial(cls, p: int, exp: int, coeff: int) -> "GroupAlgebraElement":
        coeffs = [0] * p
        coeffs[exp % p] = coeff % p
        return cls(p, tuple(coeffs))

    @classmethod
    def from_coeffs(cls, p: int, coeffs: Iterable[int]) -> "GroupAlgebraElement":
        return cls(p, tuple(coeffs))

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not self._same_ring(other):
            return NotImplemented
        p = self.p
        return GroupAlgebraElement(
            p, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not self._same_ring(other):
            return NotImplemented
        p = self.p
        return GroupAlgebraElement(
            p, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.p, tuple((-a) % self.p for a in self.coeffs))

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """x y = x times the circulant of y, whose row a is y g^a."""
        if not self._same_ring(other):
            return NotImplemented
        product = np.array(self.coeffs) @ np.array(other.coeffs)[shift_index(self.p)]
        return GroupAlgebraElement(self.p, tuple((product % self.p).tolist()))

    def scale(self, c: int) -> "GroupAlgebraElement":
        c %= self.p
        return GroupAlgebraElement(self.p, tuple((c * a) % self.p for a in self.coeffs))

    def shift(self, m: int) -> "GroupAlgebraElement":
        """Multiply by the basis element g^m: row m of the circulant of x."""
        row = np.array(self.coeffs)[shift_index(self.p)[m % self.p]]
        return GroupAlgebraElement(self.p, tuple(row.tolist()))

    def __pow__(self, n: int) -> "GroupAlgebraElement":
        if n < 0:
            return self.invert() ** (-n)
        result = GroupAlgebraElement.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _same_ring(self, other) -> bool:
        """False for a foreign operand, so the ring dunders return NotImplemented
        and Python raises TypeError; ValueError for an element of another F_pG."""
        if not isinstance(other, GroupAlgebraElement):
            return False
        same_prime(self.p, other.p)
        return True

    # -- structural maps -------------------------------------------------

    def sigma(self) -> "GroupAlgebraElement":
        """The antipode g^i -> g^(-i), a ring involution."""
        p = self.p
        return GroupAlgebraElement(p, tuple(self.coeffs[(p - i) % p] for i in range(p)))

    def augmentation(self) -> int:
        """The coefficient sum, a ring map onto F_p with kernel (g-1)."""
        return sum(self.coeffs) % self.p

    def gminus1_coords(self) -> tuple[int, ...]:
        """Coordinates z with x = sum z_i (g-1)^i: x times the first matrix of gminus1_basis."""
        return tuple((np.array(self.coeffs) @ gminus1_basis(self.p)[0] % self.p).tolist())

    @classmethod
    def from_gminus1_coords(cls, p: int, z: Sequence[int]) -> "GroupAlgebraElement":
        """Inverse of gminus1_coords; z must hold exactly p coordinates."""
        if len(z) != p:
            raise ValueError(f"expected {p} coordinates, got {len(z)}")
        return cls(p, tuple((np.array([zi % p for zi in z]) @ gminus1_basis(p)[1] % p).tolist()))

    def gminus1_factor(self) -> Factorization:
        """Factor x = (g-1)^k * btilde with btilde a unit; (p, 1) for x = 0."""
        k, btilde = gminus1_factor_rows(self.p, np.array([self.coeffs]))
        return Factorization(int(k[0]), GroupAlgebraElement(self.p, tuple(btilde[0].tolist())))

    def invert(self) -> "GroupAlgebraElement":
        """Multiplicative inverse by Frobenius: x^p = aug(x) * 1 in F_pG, so
        x^(-1) = aug(x)^(p-2) * x^(p-1)."""
        p = self.p
        aug = self.augmentation()
        if aug == 0:
            raise NotAUnit(f"augmentation is 0: {self} is not a unit")
        return (self ** (p - 1)).scale(pow(aug, p - 2, p))

    # -- iteration over the whole algebra ---------------------------------

    @classmethod
    def all_elements(cls, p: int) -> Iterator["GroupAlgebraElement"]:
        """All p^p elements, in lexicographic coefficient order."""
        return (cls(p, coeffs) for coeffs in itertools.product(range(p), repeat=p))

    @staticmethod
    def all_texts(p: int) -> np.ndarray:
        """to_text of all p^p elements as an object array, row i the element
        whose base-p value is i, as all_elements orders them; built from the
        term table without making any element or a Python call per element.

        The elements whose first nonzero coefficient sits at position i have
        the base-p values [p^(p-1-i), p^(p-i)): one product of that term's
        leading forms with the terms after it, for i from p - 1 down to 0.
        """
        terms = _term_texts(p)
        texts = itertools.chain(["0"], *(
            map("".join, itertools.product(map(_leading, terms[i][1:]), *terms[i + 1:]))
            for i in range(p - 1, -1, -1)
        ))
        return np.fromiter(texts, dtype=object, count=p**p)

    @classmethod
    def random(cls, rng, p: int) -> "GroupAlgebraElement":
        return cls(p, tuple(rng.randrange(p) for _ in range(p)))

    # -- serialization ----------------------------------------------------

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        """Render as a signed polynomial in g, e.g. "-1 + g + g^2".

        Coefficients use balanced representatives in (-p/2, p/2) so the
        common small elements print the way they are written by hand.
        """
        return _leading("".join([terms[c] for terms, c in zip(_term_texts(self.p), self.coeffs)]))

    _TERM_RE = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:"
        r"(?P<coeff>[0-9]+)(?:\s*\*?\s*g(?:\^(?P<exp1>[0-9]+))?)?"
        r"|g(?:\^(?P<exp2>[0-9]+))?"
        r")"
    )

    @classmethod
    def from_text(cls, p: int, text: str) -> "GroupAlgebraElement":
        """Parse the textual grammar: signed terms like "2*g^2", "g", "-1".

        Accepts both "2*g" and "2g"; a "*" must be followed by g.  Exponents
        must lie in [0, p).
        Raises ValueError with the offending position on bad input.
        """
        coeffs = [0] * p
        pos, n = 0, len(text)
        if not text.strip():
            raise ValueError("empty element text")
        first = True
        while pos < n:
            m = cls._TERM_RE.match(text, pos)
            if not m or m.end() == m.start():
                raise ValueError(f"parse error at position {pos}: {text[pos:]!r}")
            sign_tok = m.group("sign")
            if sign_tok is None and not first:
                raise ValueError(f"missing +/- before position {m.start()}: {text!r}")
            sign = -1 if sign_tok == "-" else 1
            if m.group("coeff") is not None:
                coeff = int(m.group("coeff"))
                # A bare coefficient is a constant term unless g follows in this match.
                has_g = "g" in text[m.start():m.end()]
                exp = int(m.group("exp1")) if m.group("exp1") else (1 if has_g else 0)
            else:
                coeff = 1
                exp = int(m.group("exp2")) if m.group("exp2") else 1
            if exp >= p:
                raise ValueError(f"exponent {exp} out of range for p={p} in {text!r}")
            coeffs[exp] = (coeffs[exp] + sign * coeff) % p
            pos = m.end()
            first = False
            if pos < n and text[pos:].strip() == "":
                break
        return cls(p, tuple(coeffs))


@lru_cache(maxsize=8)
def _term_texts(p: int) -> list[list[str]]:
    """[i][c] is the term c g^i of to_text as it follows another term:
    " + body" or " - body", with c balanced into (-p/2, p/2); "" for c = 0."""
    out = []
    for i in range(p):
        g = "g" if i == 1 else f"g^{i}"
        bodies = [str(m) if i == 0 else g if m == 1 else f"{m}*{g}" for m in range(1, p // 2 + 1)]
        out.append(["", *(f" + {x}" for x in bodies), *(f" - {x}" for x in reversed(bodies))])
    return out


def _leading(text: str) -> str:
    """A run of _term_texts terms as to_text writes it: the leading term drops
    its " + ", or writes " - " as "-"; no terms is "0"."""
    return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


def shift_index(p: int) -> np.ndarray:
    """The p x p index table [a, n] = n - a mod p: x[..., shift_index(p)] is the
    circulant of a coefficient row x, whose row a is x g^a, as x.shift(a) gives it."""
    return (np.arange(p) - np.arange(p)[:, None]) % p


def sum_index(p: int) -> np.ndarray:
    """The p x p index table [i, j] = i + j mod p, the exponent of g^i g^j."""
    return (np.arange(p)[:, None] + np.arange(p)) % p


def digit_rows(base: int, width: int, index: np.ndarray) -> np.ndarray:
    """The base-``base`` digits of each index, most significant first: row r of
    digit_rows(b, w, arange(b^w)) is tuple r of itertools.product(range(b), repeat=w)."""
    return index[:, None] // base ** np.arange(width - 1, -1, -1) % base


@lru_cache(maxsize=8)
def gminus1_basis(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (g-1)-basis change B and its inverse, as read-only int64 matrices.

    Since g^j = (1 + (g-1))^j, a coefficient row x has (g-1)-adic
    coordinates z = x B with B[j, i] = C(j, i), and x = z B^-1 with
    B^-1[i, j] = (-1)^(i-j) C(i, j), row i being (g-1)^i.
    """
    index = np.arange(p)
    basis = np.array([[comb(j, i) % p for i in range(p)] for j in range(p)])
    inverse = basis * (1 - 2 * ((index[:, None] + index) % 2)) % p
    basis.flags.writeable = inverse.flags.writeable = False
    return basis, inverse


def gminus1_factor_rows(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factorization x = (g-1)^k * btilde of every coefficient row: (k, btilde rows).

    k is the first nonzero (g-1)-adic coordinate (p for x = 0), and btilde
    has the coordinates shifted down by k, so that its top k vanish; the
    zero row gets the coordinates of 1, so its btilde is 1.
    """
    basis, inverse = gminus1_basis(p)
    z = rows @ basis % p
    nonzero = z != 0
    k = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), p)
    # btilde's coordinates: row i of z from column k[i] on, padded with zeros.
    padded = np.zeros((len(z), 2 * p), z.dtype)
    padded[:, :p] = z
    shifted = sliding_window_view(padded, p, axis=1)[np.arange(len(z)), k]
    shifted[k == p, 0] = 1
    return k, shifted @ inverse % p


def gminus1_power(p: int, k: int) -> GroupAlgebraElement:
    """(g-1)^k for k >= 0; zero for k >= p since (g-1)^p = g^p - 1 = 0 in char p."""
    k = operator.index(k)
    if k < 0:
        raise ValueError(f"(g-1)^k needs k >= 0, got {k}")
    if k >= p:
        return GroupAlgebraElement.zero(p)
    return GroupAlgebraElement(p, tuple(gminus1_basis(p)[1][k].tolist()))
