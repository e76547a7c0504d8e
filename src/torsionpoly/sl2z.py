"""Hyperbolic SL2(Z) conjugacy classes via positive R/L words.

Every hyperbolic class of trace > 2 has a representative that is a positive
word R^a1 L^b1 ... R^ak L^bk in R = [[1,1],[0,1]], L = [[1,0],[1,1]],
unique up to cyclic rotation of the block sequence; trace < -2 classes are
the negatives.  The enumeration is complete because the trace of a positive
word is at least (sum of a_i * b_i) + 2, so the block weights of a
trace-tau word are bounded by tau - 2.  That standard fact is not taken on
faith: the test suite checks the partition against a brute-force
conjugation BFS, an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .laurent import InvariantViolation

Mat2 = tuple[tuple[int, int], tuple[int, int]]

R_MAT: Mat2 = ((1, 1), (0, 1))
L_MAT: Mat2 = ((1, 0), (1, 1))

# Largest trace bound the census sweeps: the number of classes grows like
# its square (157,256 classes at 1,000, swept in 0.3-0.4 s on one core of a
# shared 2-vCPU Xeon host; as a fresh CLI process `sol-census` prints them in
# 2.1-3.0 s at a 35 MB peak, and with `--json` in 4.6-5.3 s at 406 MB).
CENSUS_TRACE_CAP = 1000


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mat_pow(x: Mat2, n: int) -> Mat2:
    out: Mat2 = ((1, 0), (0, 1))
    base = x
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def trace(x: Mat2) -> int:
    return x[0][0] + x[1][1]


def det(x: Mat2) -> int:
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


class RLWord:
    """A hyperbolic conjugacy class: sign * R^a1 L^b1 ... R^ak L^bk.

    Blocks are positive pairs; the canonical form is the lexicographically
    least cyclic rotation of the block sequence.  An immutable value but not
    a tuple, so a list of words stays apart from the (trace, words) pairs of
    :func:`sol_candidates` for a reader that asks whether an entry is a
    tuple, as ``bench/tracing.py`` does.
    """

    __slots__ = ("blocks", "sign")

    def __init__(self, blocks: tuple[tuple[int, int], ...], sign: int = 1):
        if not blocks:
            raise ValueError("an R/L word needs at least one block")
        if any(a < 1 or b < 1 for a, b in blocks):
            raise ValueError("block exponents must be >= 1")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _set_blocks(self, blocks)
        _set_sign(self, sign)

    def __setattr__(self, name, *value):
        raise AttributeError(f"an RLWord is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not RLWord:
            return NotImplemented
        return self.blocks == other.blocks and self.sign == other.sign

    def __hash__(self):
        return hash((self.blocks, self.sign))

    def __repr__(self):
        return f"RLWord(blocks={self.blocks!r}, sign={self.sign!r})"

    def __reduce__(self):
        return RLWord, (self.blocks, self.sign)

    def weight(self) -> int:
        return sum(a * b for a, b in self.blocks)

    def display(self) -> str:
        body = " ".join(
            (f"R^{a}" if a > 1 else "R") + " " + (f"L^{b}" if b > 1 else "L")
            for a, b in self.blocks
        )
        return body if self.sign == 1 else f"-({body})"


_set_blocks, _set_sign = RLWord.blocks.__set__, RLWord.sign.__set__


def _word(blocks: tuple[tuple[int, int], ...], sign: int = 1) -> RLWord:
    """``RLWord(blocks, sign)`` without its checks, which builds every word the
    census sweep makes or derives from a checked word."""
    word = object.__new__(RLWord)
    _set_blocks(word, blocks)
    _set_sign(word, sign)
    return word


def rl_to_matrix(word: RLWord) -> Mat2:
    """sign * product of the blocks R^a L^b = [[1 + ab, a], [b, 1]]; determinant 1."""
    out: Mat2 = ((word.sign, 0), (0, word.sign))
    for a, b in word.blocks:
        out = mat_mul(out, ((1 + a * b, a), (b, 1)))
    return out


def _least_rotation(blocks: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    return min(blocks[i:] + blocks[:i] for i in range(len(blocks)))


def inverse_class(word: RLWord) -> RLWord:
    """Canonical word of the inverse matrix's class.

    M^-1 is conjugate to M^T (by [[0,1],[-1,0]]), and transposition reverses
    the block sequence while swapping each (a, b).
    """
    swapped = tuple((b, a) for a, b in reversed(word.blocks))
    return _word(_least_rotation(swapped), word.sign)


def _positive_words_by_trace(tau_max: int, top_only: bool = False) -> dict[int, list[RLWord]]:
    """Canonical positive words by trace, sorted by blocks, for traces <= tau_max
    (only trace tau_max itself when ``top_only``).

    One depth-first sweep; appending a block strictly increases the trace
    and the trace of a word is monotone in each block exponent, so both the
    recursion and the exponent loops cut off exactly.  ValueError past
    :data:`CENSUS_TRACE_CAP`.

    Necklace prune: a canonical word is the least rotation of its blocks, so
    none of its blocks is below its first one (a block b_i < b_0 would start
    a smaller rotation), and the same holds for each of its prefixes.  The
    sweep therefore extends a prefix only by blocks >= its first block, and
    a word it reaches is kept when it is its own least rotation.  Every
    canonical word is reached exactly once, and in pre-order with blocks
    tried in increasing order, which is the lexicographic order of the block
    tuples; so each trace's list comes out sorted.
    """
    if tau_max > CENSUS_TRACE_CAP:
        raise ValueError(f"trace bound {tau_max} exceeds the census cap of {CENSUS_TRACE_CAP}")
    buckets: dict[int, list[RLWord]] = {}

    def extend(blocks, weight, p00, p01, p10, p11, least):
        # the prefix matrix [[p00, p01], [p10, p11]] times R^a L^b = [[1 + ab, a], [b, 1]]
        a, b = least
        while p00 * (1 + a) + p01 + p10 * a + p11 <= tau_max:
            n11 = p10 * a + p11
            while True:
                n00 = p00 * (1 + a * b) + p01 * b
                tr = n00 + n11
                if tr > tau_max:
                    break
                grown = blocks + ((a, b),)
                if weight + a * b > tr - 2:
                    raise InvariantViolation("positive word exceeds the trace weight bound")
                if (tr == tau_max or not top_only) and _least_rotation(grown) == grown:
                    buckets.setdefault(tr, []).append(_word(grown))
                if tr < tau_max:
                    extend(grown, weight + a * b, n00, p00 * a + p01, p10 * (1 + a * b) + p11 * b, n11,
                           grown[0])
                b += 1
            a, b = a + 1, 1

    extend((), 0, 1, 0, 0, 1, (1, 1))
    return buckets


def classes_with_trace(tau: int) -> list[RLWord]:
    """All hyperbolic conjugacy classes of a given trace, as canonical words.

    Complete by the weight bound: a positive word of trace tau has total
    block weight at most tau - 2 (checked on every word the sweep visits).
    """
    if abs(tau) <= 2:
        raise ValueError(f"trace {tau} is not hyperbolic")
    if tau < 0:
        return [_word(w.blocks, -1) for w in classes_with_trace(-tau)]
    return _positive_words_by_trace(tau, top_only=True).get(tau, [])


def sol_candidates(c) -> list[tuple[int, list[RLWord]]]:
    """Hyperbolic monodromy classes compatible with a root bound c >= 1.

    Both roots of t^2 - tau*t + 1 lie in the annulus [1/c, c] only if
    |tau| <= c + 1/c, so the census covers exactly those traces; an empty
    list results when c + 1/c <= 2 admits no hyperbolic trace.
    """
    c = Fraction(c)
    if c < 1:
        raise ValueError("c must be >= 1")
    top = math.floor(c + 1 / c)
    if top < 3:
        return []
    buckets = _positive_words_by_trace(top)
    out = []
    for tau in range(3, top + 1):
        pos = buckets.get(tau, [])
        out.append((tau, pos))
        out.append((-tau, [_word(w.blocks, -1) for w in pos]))
    return out
