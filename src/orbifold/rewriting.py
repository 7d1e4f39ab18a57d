"""An independent PBW verifier built on noncommutative rewriting.

The deformed algebra is presented by generators {v1, v2, g^1, ..., g^(p-1)}
and the straightening relations drawn from a parameter set.  This module
orients those relations into rewrite rules

    (R1)  g^m * v1   ->  v1 * g^m + lambda(g^m, v1)
    (R2)  g^m * v2   ->  m * v1 * g^m + v2 * g^m + lambda(g^m, v2)
    (R3)  v2 * v1    ->  v1 * v2 - kappa^C - kappa^L terms
    (R4)  g^m * g^m' ->  g^(m+m' mod p)   (empty word when the sum is 0)

and reduces free words to the normal shape v1^i v2^j g^m.  Every left-hand
side has length 2, so by Bergman's diamond lemma (G. Bergman, "The diamond
lemma for ring theory", Adv. Math. 29, 1978) the normal words are a basis,
i.e. the parameter set is PBW, exactly when every overlap word x*y*z with
(x, y) and (y, z) both rules resolves: rewriting it at either pair reaches
the same normal form.  ``check_overlaps`` decides this over the roughly p^3
overlaps, exactly in every degree.  ``check_associativity`` sweeps triples of
normal words up to a degree bound instead and stays as its independent
cross-check; ``check_dimension`` counts irreducible words against the
polynomial growth of the undeformed algebra up to a degree bound.  None of
this shares code with the six-condition checker, so agreement between the
two is evidence, not tautology.

Words are tuples of ints: positive m encodes g^m, V1 and V2 are negative
sentinels, and the empty tuple is the identity.  lambda values are read
from the stored table for every power of g separately, so a broken
group-compatibility table shows up as an associativity defect instead of
being silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_algebra import GroupAlgebraElement
from .params import DeformationParams

V1 = -1
V2 = -2

Word = tuple[int, ...]


def word_degree(word: Word) -> int:
    """Filtered degree: v-letters count 1, group letters count 0."""
    return sum(1 for x in word if x < 0)


def letter_to_text(letter: int) -> str:
    if letter == V1:
        return "v1"
    if letter == V2:
        return "v2"
    return f"g^{letter}"


def word_to_text(word: Word) -> str:
    return "*".join(letter_to_text(x) for x in word) if word else "1"


class NCPolynomial:
    """A finite F_p-linear combination of free words.

    Zero coefficients are never stored; iteration follows the canonical
    (degree, length, word) order.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Word, int]):
        self.p = p
        self.terms = {w: c % p for w, c in terms.items() if c % p}

    @classmethod
    def from_word(cls, p: int, word: Word, coeff: int = 1) -> "NCPolynomial":
        return cls(p, {tuple(word): coeff})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPolynomial)
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPolynomial(self.p, out)

    def scale(self, c: int) -> "NCPolynomial":
        return NCPolynomial(self.p, {w: c * x for w, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Word, int]]:
        return sorted(
            self.terms.items(), key=lambda wc: (word_degree(wc[0]), len(wc[0]), wc[0])
        )

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{c}*" if c != 1 else "") + word_to_text(w) for w, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"NCPolynomial({self.to_text()})"


@dataclass(frozen=True)
class NormalWord:
    """An irreducible word v1^i v2^j g^m."""

    i: int
    j: int
    m: int

    @property
    def degree(self) -> int:
        return self.i + self.j

    def word(self) -> Word:
        return (V1,) * self.i + (V2,) * self.j + ((self.m,) if self.m else ())


def normal_words(p: int, max_degree: int) -> list[NormalWord]:
    """All normal words of filtered degree <= max_degree, by (degree, i, j, m)."""
    out = []
    for deg in range(max_degree + 1):
        for i in range(deg, -1, -1):
            j = deg - i
            out.extend(NormalWord(i, j, m) for m in range(p))
    return out


def _element_words(x: GroupAlgebraElement, prefix: Word = ()) -> dict[Word, int]:
    """The words of prefix * x, one per nonzero coefficient (g^0 contributes prefix)."""
    return {
        prefix + ((m,) if m else ()): c for m, c in enumerate(x.coeffs) if c
    }


class RuleSet:
    """The oriented relations of one parameter set, plus reduction caches."""

    def __init__(self, params: DeformationParams):
        p = params.p
        self.p = p
        self.params = params
        table: dict[tuple[int, int], dict[Word, int]] = {}
        for m in range(1, p):
            # R1: g^m * v1 -> v1 * g^m + lambda(g^m, v1)
            rhs = {(V1, m): 1}
            _add_scaled(p, rhs, _element_words(params.lam[m][0]))
            table[(m, V1)] = rhs
            # R2: g^m * v2 -> m * v1 * g^m + v2 * g^m + lambda(g^m, v2)
            rhs = {(V1, m): m, (V2, m): 1}
            _add_scaled(p, rhs, _element_words(params.lam[m][1]))
            table[(m, V2)] = rhs
        # R3: v2 * v1 -> v1 * v2 - kappa^C - kappa^L
        rhs = {(V1, V2): 1}
        _add_scaled(p, rhs, _element_words(params.kappaC), -1)
        _add_scaled(p, rhs, _element_words(params.kappaL.row1, prefix=(V1,)), -1)
        _add_scaled(p, rhs, _element_words(params.kappaL.row2, prefix=(V2,)), -1)
        table[(V2, V1)] = rhs
        # R4: g^m * g^m' -> g^(m+m' mod p)
        for m in range(1, p):
            for m2 in range(1, p):
                s = (m + m2) % p
                table[(m, m2)] = {((s,) if s else ()): 1}
        self.table = table
        self._memo: dict[Word, dict[Word, int]] = {}
        self._memo_rl: dict[Word, dict[Word, int]] = {}

    def rule_id(self, pair: tuple[int, int]) -> str:
        a, b = pair
        if a > 0 and b == V1:
            return "R1"
        if a > 0 and b == V2:
            return "R2"
        if (a, b) == (V2, V1):
            return "R3"
        return "R4"

    def reduce_word(self, word: Word, rightmost: bool = False) -> dict[Word, int]:
        """Normal form of a single word as a raw {word: coeff} dict.

        The canonical strategy rewrites the leftmost reducible pair; the
        rightmost strategy exists for the confluence cross-check.  Results
        are memoized per strategy.
        """
        memo = self._memo_rl if rightmost else self._memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        table = self.table
        n = len(word) - 1
        positions = range(n - 1, -1, -1) if rightmost else range(n)
        for i in positions:
            rhs = table.get((word[i], word[i + 1]))
            if rhs is None:
                continue
            prefix, suffix = word[:i], word[i + 2:]
            out = self.reduce_poly({prefix + u + suffix: cu for u, cu in rhs.items()}, rightmost)
            memo[word] = out
            return out
        result = {word: 1}
        memo[word] = result
        return result

    def reduce_poly(
        self, terms: dict[Word, int], rightmost: bool = False
    ) -> dict[Word, int]:
        out: dict[Word, int] = {}
        for w, cw in terms.items():
            _add_scaled(self.p, out, self.reduce_word(w, rightmost), cw)
        return out


def rules_from_params(params: DeformationParams) -> RuleSet:
    """Orient the defining relations of the parameter set into a rule set."""
    return RuleSet(params)


def _add_scaled(p: int, target: dict[Word, int], terms: dict[Word, int], coeff: int = 1) -> None:
    """target += coeff * terms, mod p, dropping words whose coefficient vanishes."""
    for w, c in terms.items():
        c = (target.get(w, 0) + coeff * c) % p
        if c:
            target[w] = c
        else:
            target.pop(w, None)


def reduce(x: NCPolynomial, rules: RuleSet, rightmost: bool = False) -> NCPolynomial:
    """Rewrite to the fixed point; every surviving word is normal.

    Terminates because every rule application strictly lowers the word
    measure (v-degree, g-before-v inversions, v2-before-v1 inversions,
    length) in lexicographic order, also inside any context C*_*D.  So the
    semigroup order on words generated by "C*u*D < C*w*D for each word u on
    the right of a rule with left side w" is well founded and every rule
    lowers it: the termination order the diamond lemma in check_overlaps
    relies on.
    """
    return NCPolynomial(rules.p, rules.reduce_poly(x.terms, rightmost))


def oracle_multiply(x: NormalWord, y: NormalWord, rules: RuleSet) -> NCPolynomial:
    """The induced product: reduce the concatenation of two normal words."""
    return NCPolynomial(rules.p, rules.reduce_word(x.word() + y.word()))


def check_associativity(
    rules: RuleSet, degree_bound: int = 4
) -> tuple[bool, dict | None]:
    """Test reduce((xy)z) == reduce(x(yz)) over all normal-word triples of
    total filtered degree <= degree_bound; returns the first failure.

    Triples are swept in increasing total degree, so a defect (always
    present in low degree for a non-PBW parameter set) is found early.
    """
    if degree_bound < 3:
        raise ValueError(f"degree bound must be >= 3, got {degree_bound}")
    words = normal_words(rules.p, degree_bound)
    by_degree: dict[int, list[NormalWord]] = {}
    for w in words:
        by_degree.setdefault(w.degree, []).append(w)
    for total in range(degree_bound + 1):
        for dx in range(total + 1):
            for dy in range(total - dx + 1):
                dz = total - dx - dy
                for x in by_degree[dx]:
                    xw = x.word()
                    for y in by_degree[dy]:
                        xy = rules.reduce_word(xw + y.word())
                        yw = y.word()
                        for z in by_degree[dz]:
                            zw = z.word()
                            lhs = rules.reduce_poly({w + zw: c for w, c in xy.items()})
                            yz = rules.reduce_word(yw + zw)
                            rhs = rules.reduce_poly({xw + w: c for w, c in yz.items()})
                            if lhs != rhs:
                                return False, _witness(rules.p, xw, yw, zw, lhs, rhs)
    return True, None


def check_overlaps(rules: RuleSet) -> tuple[bool, dict | None]:
    """Resolve every overlap ambiguity of the rule table; returns the first failure.

    For letters x, y, z with (x, y) and (y, z) both left-hand sides, compare
    reduce(rhs(x, y) * z) with reduce(x * rhs(y, z)).  By the diamond lemma
    all of them agree exactly when the normal words are a basis, in every
    degree at once.  The witness names the overlap and its two normal forms.
    """
    table = rules.table
    followers: dict[int, list[int]] = {}
    for y, z in table:
        followers.setdefault(y, []).append(z)
    for (x, y), xy in table.items():
        for z in followers.get(y, ()):
            lhs = rules.reduce_poly({w + (z,): c for w, c in xy.items()})
            rhs = rules.reduce_poly({(x,) + w: c for w, c in table[(y, z)].items()})
            if lhs != rhs:
                return False, _witness(rules.p, (x,), (y,), (z,), lhs, rhs)
    return True, None


def _witness(p: int, x: Word, y: Word, z: Word, lhs: dict, rhs: dict) -> dict:
    return {
        "x": word_to_text(x),
        "y": word_to_text(y),
        "z": word_to_text(z),
        "lhs": NCPolynomial(p, lhs).to_text(),
        "rhs": NCPolynomial(p, rhs).to_text(),
    }


def irreducible_words(rules: RuleSet, max_degree: int) -> list[Word]:
    """Every word irreducible under the rule table, up to filtered degree max_degree.

    Depth-first extension with pruning: a word is extendable only while no
    adjacent pair matches a rule left-hand side.  Since every group letter
    must be final in an irreducible word, the search space stays small.
    """
    letters = [V1, V2] + list(range(1, rules.p))
    out: list[Word] = []

    def extend(word: Word, degree: int) -> None:
        out.append(word)
        for letter in letters:
            deg = degree + (1 if letter < 0 else 0)
            if deg > max_degree:
                continue
            if word and (word[-1], letter) in rules.table:
                continue
            extend(word + (letter,), deg)

    extend((), 0)
    return out


def check_dimension(rules: RuleSet, degree_bound: int) -> tuple[bool, list[dict]]:
    """Compare irreducible-word counts against p * C(d+2, 2) for d <= degree_bound,
    and confirm that reduce fixes each irreducible word."""
    p = rules.p
    words = irreducible_words(rules, degree_bound)
    rows = []
    ok = True
    for d in range(degree_bound + 1):
        count = sum(1 for w in words if word_degree(w) <= d)
        expected = p * (d + 2) * (d + 1) // 2
        idempotent = all(
            rules.reduce_word(w) == {w: 1} for w in words if word_degree(w) <= d
        )
        good = count == expected and idempotent
        ok = ok and good
        rows.append(
            {"degree": d, "count": count, "expected": expected, "passed": good}
        )
    return ok, rows


def trace_reduction(word: Word, rules: RuleSet) -> list[str]:
    """Line-oriented replay of a leftmost normalization, for failure triage.

    Each line is "<word> --<rule>--> <polynomial>"; rewriting proceeds on
    the first non-normal word in canonical order until none remain.
    """
    p = rules.p
    poly = {tuple(word): 1}
    lines: list[str] = []
    while True:
        target = None
        for w, _ in sorted(poly.items(), key=lambda wc: (word_degree(wc[0]), len(wc[0]), wc[0])):
            for i in range(len(w) - 1):
                if (w[i], w[i + 1]) in rules.table:
                    target, pos = w, i
                    break
            if target is not None:
                break
        if target is None:
            return lines
        pair = (target[pos], target[pos + 1])
        rhs = rules.table[pair]
        replacement = {
            target[:pos] + u + target[pos + 2:]: c for u, c in rhs.items()
        }
        lines.append(
            f"{word_to_text(target)} --{rules.rule_id(pair)}--> "
            f"{NCPolynomial(p, replacement).to_text()}"
        )
        _add_scaled(p, poly, replacement, poly.pop(target))
