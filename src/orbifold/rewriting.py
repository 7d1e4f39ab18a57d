"""An independent PBW verifier built on noncommutative rewriting.

The deformed algebra is presented by generators {v1, v2, g^1, ..., g^(p-1)}
and the straightening relations drawn from a parameter set.  This module
orients those relations into rewrite rules

    (R1)  g^m * v1   ->  v1 * g^m + lambda(g^m, v1)
    (R2)  g^m * v2   ->  m * v1 * g^m + v2 * g^m + lambda(g^m, v2)
    (R3)  v2 * v1    ->  v1 * v2 - kappa^C - kappa^L terms
    (R4)  g^m * g^m' ->  g^(m+m' mod p)   (empty word when the sum is 0)

and reduces free words to the normal shape v1^i v2^j g^m.  Rewriting
terminates under a semigroup order that every rule lowers (the argument is in
``RuleSet.reduce_word``), and every left-hand side has length 2, so by
Bergman's diamond lemma (G. Bergman, "The diamond lemma for ring theory",
Adv. Math. 29, 1978) the normal words are a basis,
i.e. the parameter set is PBW, exactly when every overlap word x*y*z with
(x, y) and (y, z) both rules resolves: rewriting it at either pair reaches
the same normal form.  There are (p-1)^3 + 2(p-1)^2 + (p-1) overlaps, but
the (p-1)^3 words g^a*g^b*g^c use R4 alone and resolve for every parameter
set, since the group law is associative; ``check_overlaps`` decides the
2(p-1)^2 + (p-1) that read lambda and kappa, exactly in every degree.
``check_associativity`` sweeps triples of normal words up to a degree bound
instead and stays as its independent cross-check; ``check_dimension`` counts
the irreducible words, in which no adjacent pair is a left-hand side, against
the growth of the undeformed algebra up to a degree bound; the left-hand sides,
and so the counts, are the same for every parameter set of one p.  None of
this shares code with the six-condition checker, so agreement between the
two is evidence, not tautology.

Words are tuples of ints: positive m encodes g^m, V1 and V2 are negative
sentinels, and the empty tuple is the identity.  A linear combination of
words is a {word: coeff} dict with coefficients in [0, p) and no zero
coefficient; ``poly_to_text`` renders one.  lambda values are read
from the stored table for every power of g separately, so a broken
group-compatibility table shows up as an associativity defect instead of
being silently repaired.
"""

from __future__ import annotations

import itertools

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


def _canonical(term: tuple[Word, int]) -> tuple:
    """The canonical order of the terms of a {word: coeff} dict: (degree, length, word)."""
    word = term[0]
    return (word_degree(word), len(word), word)


def poly_to_text(p: int, terms: dict[Word, int]) -> str:
    """A {word: coeff} dict as text, coefficients mod p, in canonical order;
    "0" when every coefficient vanishes."""
    ordered = sorted(((w, c % p) for w, c in terms.items() if c % p), key=_canonical)
    return " + ".join((f"{c}*" if c != 1 else "") + word_to_text(w) for w, c in ordered) or "0"


def normal_words(p: int, max_degree: int) -> list[Word]:
    """All normal words v1^i v2^j g^m of filtered degree <= max_degree, by
    (degree, descending i, m)."""
    return [
        (V1,) * i + (V2,) * (deg - i) + ((m,) if m else ())
        for deg in range(max_degree + 1)
        for i in range(deg, -1, -1)
        for m in range(p)
    ]


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

        Terminates because every rule application strictly lowers the word
        measure (v-degree, g-before-v inversions, v2-before-v1 inversions,
        length) in lexicographic order, also inside any context C*_*D.  So the
        semigroup order on words generated by "C*u*D < C*w*D for each word u on
        the right of a rule with left side w" is well founded and every rule
        lowers it: the termination order the diamond lemma in check_overlaps
        relies on.
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
    by_degree: dict[int, list[Word]] = {}
    for w in normal_words(rules.p, degree_bound):
        by_degree.setdefault(word_degree(w), []).append(w)
    for total in range(degree_bound + 1):
        for dx in range(total + 1):
            for dy in range(total - dx + 1):
                dz = total - dx - dy
                for xw in by_degree[dx]:
                    for yw in by_degree[dy]:
                        xy = rules.reduce_word(xw + yw)
                        for zw in by_degree[dz]:
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

    The overlaps are g^a*g^b*v1 and g^a*g^b*v2 ((p-1)^2 each), g^m*v2*v1
    (p-1 of them), and the (p-1)^3 words g^a*g^b*g^c.  Only the first
    2(p-1)^2 + (p-1) read lambda and kappa, and they are the ones resolved
    here, in table order.  A g^a*g^b*g^c overlap involves R4 alone, so both
    sides reduce to g^(a+b+c mod p) for every parameter set, by associativity
    of the group law; skipping them changes neither the verdict nor which
    failure comes first.
    """
    table = rules.table
    followers: dict[int, list[int]] = {}
    for y, z in table:
        if z < 0:  # a follower z = g^c only overlaps g^a*g^b: a group word
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
        "lhs": poly_to_text(p, lhs),
        "rhs": poly_to_text(p, rhs),
    }


# check_dimension's highest degree from the command line (about 0.5 s at p = 97).
MAX_DIMENSION_DEGREE = 16


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
    """Compare irreducible-word counts against p * C(d+2, 2) for d <= degree_bound.

    A word is irreducible when none of its adjacent pairs is a left-hand side,
    and every RuleSet of one p has the same left-hand sides, so the rows
    depend only on p.  They cannot fail on a parameter file; the overlap
    certificate alone decides PBW.  reduce_word rewrites a word only at a
    left-hand side, so it fixes each of these words and is not run here.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    counts = [0] * (degree_bound + 1)
    for w in irreducible_words(rules, degree_bound):
        counts[word_degree(w)] += 1
    rows = []
    for d, count in enumerate(itertools.accumulate(counts)):
        expected = rules.p * (d + 2) * (d + 1) // 2
        rows.append({"degree": d, "count": count, "expected": expected,
                     "passed": count == expected})
    return all(r["passed"] for r in rows), rows


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
        for w, _ in sorted(poly.items(), key=_canonical):
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
            f"{poly_to_text(p, replacement)}"
        )
        _add_scaled(p, poly, replacement, poly.pop(target))
