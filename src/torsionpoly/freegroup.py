"""Free-group words, the rational group ring, and Fox free derivatives.

Letters are nonzero integers: ``j + 1`` is the j-th generator (0-based) and
``-(j + 1)`` its inverse.  Words are freely reduced at construction, so
equality and hashing are structural.  Group-ring elements carry exact
``Fraction`` coefficients; no floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


class Word:
    """A freely reduced word in a free group.

    >>> x, y = Word([1]), Word([2])
    >>> x * y * ~y * x == x * x
    True
    >>> ~(x * y)
    Word([-2, -1])
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        stack: list[int] = []
        for a in letters:
            if a == 0:
                raise ValueError("letter 0 is not a generator")
            if stack and stack[-1] == -a:
                stack.pop()
            else:
                stack.append(a)
        object.__setattr__(self, "letters", tuple(stack))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __hash__(self) -> int:
        return hash(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(tuple(-a for a in reversed(self.letters)))

    def max_generator(self) -> int:
        """Largest 0-based generator index appearing, or -1 for the identity."""
        return max((abs(a) for a in self.letters), default=0) - 1

    def __repr__(self) -> str:
        return f"Word({list(self.letters)})"


IDENTITY = Word()


class GroupRingElement:
    """A finite formal sum of words with nonzero ``Fraction`` coefficients.

    Supports exact addition, negation, and multiplication.  Structural
    equality: two elements are equal iff their term mappings are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[w] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "GroupRingElement":
        return cls({w: Fraction(coeff)})

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls.from_word(IDENTITY)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict[Word, Fraction] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                s = out.get(w, Fraction(0)) + a * b
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return GroupRingElement(out)

    def scale(self, r) -> "GroupRingElement":
        r = Fraction(r)
        return GroupRingElement({w: c * r for w, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElement(0)"
        parts = [f"{c}*{w!r}" for w, c in sorted(self.terms.items(), key=lambda t: t[0].letters)]
        return "GroupRingElement(" + " + ".join(parts) + ")"


def fox_derivative(w: Word, gen: int) -> GroupRingElement:
    """The Fox free derivative of ``w`` with respect to generator ``gen``.

    Defining rules: d(x)/dx = 1, d(x^-1)/dx = -x^-1, d(y^±1)/dx = 0 for
    y != x, extended by the product rule d(uv)/dx = du/dx + u * dv/dx.

    >>> x, y = 1, -1  # letter encodings of x and x^-1
    >>> fox_derivative(Word([1]), 0) == GroupRingElement.one()
    True
    """
    pos = gen + 1
    terms: dict[Word, Fraction] = {}
    prefix = IDENTITY
    for a in w:
        if a == pos:
            t, c = prefix, Fraction(1)
        elif a == -pos:
            t, c = prefix * Word([a]), Fraction(-1)
        else:
            prefix = prefix * Word([a])
            continue
        s = terms.get(t, Fraction(0)) + c
        if s:
            terms[t] = s
        else:
            terms.pop(t, None)
        prefix = prefix * Word([a])
    return GroupRingElement(terms)
