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

It does so without the word reducer: ``overlap_forms`` builds both sides of
every overlap as dense arrays over the normal words of degree <= 2, read off
the arrays of R1-R3 that ``RuleSet`` builds once from the parameter tables
(NF(g^a * v_x) is the right side of R1/R2, and right multiplication by g^n
only shifts the exponent of the final group letter).
R1 and R2 put the v-words of NF(g^b * v_x) at g^b, so g^a * NF(g^b * v_x) is
its group part shifted by a plus NF(g^a * v_w) shifted by b (w = v1, v2).  These
are the reducer's normal forms, so the witness text is the same, whatever the
strategy: each word met while reducing an overlap side has exactly one
reducible pair.  Such a word is a normal word with one letter added at one
end, so only the pair at that end can be a left-hand side, and rewriting it
gives normal words or words of the same kind again (g^m*v1*v2 gives
v1*g^m*v2, v2*g^m*v1 gives v2*v1*g^m, then R3*g^m).  Every reduction path is
forced, so no strategy can reach another normal form.

``check_associativity`` sweeps triples of normal words up to a degree bound
instead and stays as its independent cross-check.  ``check_dimension``
reports the number of irreducible words (no adjacent pair a left-hand side)
up to each degree d <= a bound: p * C(d+2, 2), read off the shape of the
left-hand sides (``is_lhs``), which is the same for every parameter set of
one p.  Those rows restate the basis the diamond lemma gives, not a second
test; ``irreducible_words`` lists the words themselves.  The word reducer
reads each right side off the same arrays.  None of
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

import math
from typing import Iterator

import numpy as np

from .group_algebra import shift_index, sum_index
from .params import DeformationParams

V1 = -1
V2 = -2

Word = tuple[int, ...]


def word_degree(word: Word) -> int:
    """Filtered degree: v-letters count 1, group letters count 0."""
    return sum(1 for x in word if x < 0)


def word_to_text(word: Word) -> str:
    return "*".join("v1" if x == V1 else "v2" if x == V2 else f"g^{x}" for x in word) or "1"


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


# The normal words of degree <= 2 as blocks of p: block b holds PREFIXES[b]*g^n
# at column n.  A normal form is an int64 array [..., block, n] with entries
# in [0, p); the first three blocks are the words of degree <= 1.
PREFIXES: tuple[Word, ...] = ((), (V1,), (V2,), (V1, V1), (V1, V2), (V2, V2))


def _terms(form: np.ndarray) -> dict[Word, int]:
    """A [block, n] normal form as a {word: coeff} dict."""
    blocks, ns = np.nonzero(form)
    return {
        PREFIXES[b] + ((n,) if n else ()): int(form[b, n])
        for b, n in zip(blocks.tolist(), ns.tolist())
    }


def is_lhs(x: int, y: int) -> bool:
    """Whether x*y is a left-hand side: a group letter before any letter
    (R1, R2 or R4), or v2*v1 (R3)."""
    return x > 0 or (x, y) == (V2, V1)


class RuleSet:
    """The oriented relations of one parameter set, plus reduction caches.

    R1-R3 are built once from the parameter tables, as arrays in the
    [block, n] layout of PREFIXES: ``forms`` (p, 3, 3, p) holds
    forms[a, w] = NF(g^a * w) for w = 1, v1, v2, and ``r3`` (6, p) the right
    side of R3.  They are the only copy of the rules: ``is_lhs`` says which
    pairs are left-hand sides, and ``rhs`` reads a right side off the arrays
    as a {word: coeff} dict when the word reducer rewrites that pair.
    """

    def __init__(self, params: DeformationParams):
        p = params.p
        self.p = p
        ar = np.arange(p)
        # R1: g^m * v1 -> v1 * g^m + lambda(g^m, v1)
        # R2: g^m * v2 -> m * v1 * g^m + v2 * g^m + lambda(g^m, v2)
        # and g^m * 1 = g^m; at m = 0 forms[m, w] is the word w itself.
        forms = np.zeros((p, 3, 3, p), dtype=np.int64)
        forms[ar, 0, 0, ar] = forms[ar, 1, 1, ar] = forms[ar, 2, 2, ar] = 1
        forms[ar, 2, 1, ar] = ar
        forms[:, 1:, 0] = params.lam
        # R3: v2 * v1 -> v1 * v2 - kappa^C - kappa^L
        r3 = np.zeros((6, p), dtype=np.int64)
        r3[0], r3[1:3], r3[4, 0] = -params.kappaC, -params.kappaL, 1
        r3 %= p
        forms.flags.writeable = r3.flags.writeable = False
        self.forms, self.r3 = forms, r3
        self._letters = frozenset((V1, V2, *range(1, p)))
        self._memo: dict[Word, dict[Word, int]] = {}
        self._memo_rl: dict[Word, dict[Word, int]] = {}

    def rule_id(self, pair: tuple[int, int]) -> str:
        x, y = pair
        return "R3" if x < 0 else {V1: "R1", V2: "R2"}.get(y, "R4")

    def _check_letters(self, word: Word) -> None:
        """Raise ValueError naming a letter of word that is not v1, v2 or g^1..g^(p-1)."""
        if not self._letters.issuperset(word):
            letter = min(set(word) - self._letters)
            raise ValueError(f"group letter g^{letter} is outside 1..{self.p - 1}")

    def rhs(self, x: int, y: int) -> dict[Word, int]:
        """The right side of the rule with left side x*y, read off the arrays;
        R4: g^m * g^m' -> g^(m+m' mod p) is computed, never stored."""
        self._check_letters((x, y))
        if not is_lhs(x, y):
            raise ValueError(f"{word_to_text((x, y))} is not a left-hand side")
        if x < 0:
            return _terms(self.r3)
        if y < 0:
            return _terms(self.forms[x, -y])
        s = (x + y) % self.p
        return {((s,) if s else ()): 1}

    def _rewrite(self, word: Word, i: int) -> dict[Word, int]:
        """word with the rule at letters i, i + 1 applied once."""
        prefix, suffix = word[:i], word[i + 2:]
        return {prefix + u + suffix: c for u, c in self.rhs(word[i], word[i + 1]).items()}

    def reduce_word(self, word: Word, rightmost: bool = False) -> dict[Word, int]:
        """Normal form of a single word as a raw {word: coeff} dict.

        The canonical strategy rewrites the leftmost reducible pair; the
        rightmost strategy exists for the confluence cross-check.  Results are
        memoized per strategy; a word's letters are checked on a memo miss.

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
        self._check_letters(word)
        n = len(word) - 1
        positions = range(n - 1, -1, -1) if rightmost else range(n)
        i = next((i for i in positions if is_lhs(word[i], word[i + 1])), None)
        out = {word: 1} if i is None else self.reduce_poly(self._rewrite(word, i), rightmost)
        memo[word] = out
        return out

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


# Each block of a in the g^a*g^b*v_x family builds arrays (both sides, each
# rolled product) of at most this many entries: 4 MB, 9 values of a at p = 97.
_BLOCK_ENTRIES = 1 << 19


def overlap_forms(
    rules: RuleSet,
) -> Iterator[tuple[list[tuple[int, int, int]], np.ndarray, np.ndarray]]:
    """Both normal forms of every parameter overlap, a piece at a time, in
    check_overlaps' order: (overlaps, lhs, rhs), one [block, n] row per
    overlap x*y*z, lhs = NF(rhs(x, y) * z) and rhs = NF(x * rhs(y, z)).

    Read off the rule arrays alone: N[a, w] = rules.forms[a, w] = NF(g^a * w)
    for w = 1, v1, v2, so NF(g^a * w*g^n) is NF(g^a * w) shifted by n.  R1 and
    R2 put the v-words of N[b, x] at g^b, so g^a * N[b, x] takes two rolled
    gathers of N[a, v1] and N[a, v2], whatever lambda is.  The pieces are
    lazy, so a caller that stops at a failure skips the rest.  Products are
    reduced mod p as they are formed, so no int64 entry exceeds 6p(p-1)^2.
    """
    p, n_forms, r3 = rules.p, rules.forms, rules.r3
    shift = shift_index(p)  # shift[n, k] = k - n
    r3_circ = r3[:, shift]  # r3_circ[w, n, k] = R3[w, k - n]: R3*g^n at column k

    def times_v(y: int) -> np.ndarray:
        """NF(w*g^n * v_y) = w * N[n, y] for w = 1, v1, v2, as [w*p + n, block*p + k]."""
        u = n_forms[:, y]
        out = np.zeros((3, p, 6, p), dtype=np.int64)
        out[0, :, :3] = u
        out[1, :, 1], out[1, :, 3], out[1, :, 4] = u[:, 0], u[:, 1], u[:, 2]
        out[2, :, 2], out[2, :, 5] = u[:, 0], u[:, 2]
        # v2 * v1*g^j is the one product that is not normal: R3 * g^j
        out[2] += (u[:, 1] @ r3_circ.transpose(1, 0, 2).reshape(p, 6 * p)).reshape(p, 6, p)
        return out.reshape(3 * p, 6 * p) % p

    # g^m*v2*v1: N[m, v2] * v1 against g^m * R3.  R3 is v1*v2 plus its
    # blocks w = 1, v1, v2, so g^m * R3 is NF(g^m * v1*v2) = N[m, v1] * v2
    # plus NF(g^m * w) = N[m, w] convolved with the w-block of R3.
    left = n_forms[1:].reshape(p - 1, 3, 3 * p)
    lhs = (left[:, 2] @ times_v(1)) % p
    rhs = (left[:, 1] @ times_v(2)).reshape(p - 1, 6, p) % p
    for w in range(3):
        if r3[w].any():
            rhs[:, :3] += n_forms[1:, w] @ r3_circ[w]
    yield [(m, V2, V1) for m in range(1, p)], lhs.reshape(p - 1, 6, p), rhs % p

    # g^a*g^b*v_x: N[a + b, x] against g^a * N[b, x], in blocks of a: the group
    # part of N[b, x] shifted by a, plus c[b, x, w] * N[a, w] shifted by b.
    after = left[:, 1:].reshape(p - 1, 2, 3, p)  # [b - 1, x, block, n]
    c = after[np.arange(p - 1), :, 1:, np.arange(1, p)]  # [b - 1, x, w - 1]: coeff of v_w*g^b
    step = max(1, _BLOCK_ENTRIES // (6 * p * p))
    for start in range(1, p, step):
        a = np.arange(start, min(p, start + step))
        rhs = np.zeros((len(a), p - 1, 2, 3, p), dtype=np.int64)
        rhs[:, :, :, 0] = after[:, :, 0, shift[a]].transpose(2, 0, 1, 3)
        for w in (1, 2):
            rolled = n_forms[a, w][..., shift[1:]].transpose(0, 2, 1, 3)  # [a, b - 1] = N[a, w]*g^b
            rhs += c[:, :, w - 1, None, None] * rolled[:, :, None]
        lhs = n_forms[sum_index(p)[a, 1:], 1:]
        overlaps = [(int(i), b, x) for i in a for b in range(1, p) for x in (V1, V2)]
        yield overlaps, lhs.reshape(-1, 3, p), rhs.reshape(-1, 3, p) % p


def check_overlaps(rules: RuleSet) -> tuple[bool, dict | None]:
    """Resolve every overlap ambiguity of the rules; returns the first failure.

    For letters x, y, z with (x, y) and (y, z) both left-hand sides, compare
    reduce(rhs(x, y) * z) with reduce(x * rhs(y, z)).  By the diamond lemma
    all of them agree exactly when the normal words are a basis, in every
    degree at once.  The witness names the overlap and its two normal forms.

    The overlaps are g^a*g^b*v1 and g^a*g^b*v2 ((p-1)^2 each), g^m*v2*v1
    (p-1 of them), and the (p-1)^3 words g^a*g^b*g^c.  Only the first
    2(p-1)^2 + (p-1) read lambda and kappa, and they are the ones resolved
    here, in rule order: every g^m*v2*v1 by m, then g^a*g^b*v1 and
    g^a*g^b*v2 by (a, b).  A g^a*g^b*g^c overlap involves R4 alone, so both
    sides reduce to g^(a+b+c mod p) for every parameter set, by associativity
    of the group law; skipping them changes neither the verdict nor which
    failure comes first.  The normal forms come from ``overlap_forms``, as
    dense arrays; no word is reduced.
    """
    for overlaps, lhs, rhs in overlap_forms(rules):
        bad = (lhs != rhs).any(axis=(1, 2))
        if bad.any():
            i = int(bad.argmax())
            x, y, z = overlaps[i]
            return False, _witness(rules.p, (x,), (y,), (z,), _terms(lhs[i]), _terms(rhs[i]))
    return True, None


def _witness(p: int, x: Word, y: Word, z: Word, lhs: dict, rhs: dict) -> dict:
    return {
        "x": word_to_text(x),
        "y": word_to_text(y),
        "z": word_to_text(z),
        "lhs": poly_to_text(p, lhs),
        "rhs": poly_to_text(p, rhs),
    }


# check_dimension's highest degree from the command line: the report sweep pins
# 3..16 as the CLI contract of ``check --degree``.
MAX_DIMENSION_DEGREE = 16


def irreducible_words(rules: RuleSet, max_degree: int) -> list[Word]:
    """Every word irreducible under the rules, up to filtered degree max_degree.

    Depth-first extension with pruning: a word is extended by every letter y
    with which its last letter forms no left-hand side.  Since every group
    letter must be final in an irreducible word, the search space stays small.
    """
    if max_degree < 0:
        raise ValueError(f"degree bound must be >= 0, got {max_degree}")
    letters = [V1, V2] + list(range(1, rules.p))
    follow = {x: [y for y in letters if not is_lhs(x, y)] for x in letters}
    follow[None] = letters  # the empty word
    out: list[Word] = []

    def extend(word: Word, degree: int) -> None:
        out.append(word)
        for letter in follow[word[-1] if word else None]:
            deg = degree + (1 if letter < 0 else 0)
            if deg <= max_degree:
                extend(word + (letter,), deg)

    extend((), 0)
    return out


def check_dimension(rules: RuleSet, degree_bound: int) -> tuple[bool, list[dict]]:
    """The dimension rows: p * C(d+2, 2) irreducible words of degree <= d, for
    d <= degree_bound.

    The number follows from ``is_lhs`` alone, so the rows restate the basis
    that the diamond lemma gives and cannot fail; the overlap certificate
    alone decides PBW:
    - a group letter followed by any letter is a left-hand side (R1, R2, R4),
      so a group letter can only come last;
    - v2*v1 is a left-hand side (R3), and v1*v1, v1*v2 and v2*v2 are not;
    - so the irreducible words of degree d are v1^i*v2^(d-i)*g^m, with
      0 <= i <= d and m in Z/p (m = 0 is no letter): (d+1)*p of them, and
      p * C(d+2, 2) up to degree d;
    - every RuleSet of one p has the same left-hand sides.
    ``irreducible_words`` lists the same words; the tests compare the two.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    counts = (rules.p * math.comb(d + 2, 2) for d in range(degree_bound + 1))
    return True, [{"degree": d, "count": c, "expected": c, "passed": True}
                  for d, c in enumerate(counts)]


def trace_reduction(word: Word, rules: RuleSet) -> list[str]:
    """Line-oriented replay of a leftmost normalization, for failure triage.

    Each line is "<word> --<rule>--> <polynomial>"; rewriting proceeds on
    the first non-normal word in canonical order until none remain.
    """
    p = rules.p
    rules._check_letters(word)
    poly = {tuple(word): 1}
    lines: list[str] = []
    while True:
        found = next((
            (w, i) for w, _ in sorted(poly.items(), key=_canonical)
            for i in range(len(w) - 1) if is_lhs(w[i], w[i + 1])
        ), None)
        if found is None:
            return lines
        target, pos = found
        replacement = rules._rewrite(target, pos)
        lines.append(
            f"{word_to_text(target)} --{rules.rule_id(target[pos:pos + 2])}--> "
            f"{poly_to_text(p, replacement)}"
        )
        _add_scaled(p, poly, replacement, poly.pop(target))
