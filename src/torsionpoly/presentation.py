"""Finite group presentations: parsing, complexity, and epimorphisms to Z.

The text grammar (described in the README) is one ``gens:`` line followed
by ``rel:`` lines; a lowercase token is a generator, its first-character
uppercased form is the inverse, and ``name^k`` powers are expanded.  The
complexity k of a presentation is the sum of the l1 norms of all Fox
derivatives of its relators, which is the total relator length: in a
freely reduced word each letter contributes one +/-1 term, at a distinct
prefix, so no two terms cancel.  k feeds the root bound 1 + m! * k^m.
Neither quantity is minimized over presentations, so the bound reported
here is an upper bound for the sharpest constant attached to the
underlying group.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from collections import namedtuple
from fractions import Fraction

from .freegroup import Word
from .laurent import LaurentPoly, _integer, solve_scaled

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*$")
_TOKEN_RE = re.compile(r"([A-Za-z][a-z0-9_]*)(?:\^(-?\d+))?$")

_ENUMERATION_CAP = 10**7
# Most letters a presentation may expand to (``x^k`` counts k), checked
# before any power is expanded; also bounds mapping-torus relators.
LETTER_CAP = 10**6
# Most power covers ``mapping-torus --power`` checks, kept here so that the
# CLI parser reads it without importing bundles: --power 32 on [[2, 1],
# [1, 1]] takes 0.09-0.12 s as a fresh CLI process, text or --json, at an
# 18 MB peak (one core of a shared 2-vCPU Xeon host, Python 3.11).
POWER_COVER_CAP = 32


class PresentationError(ValueError):
    pass


class ParseError(PresentationError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class FinitePresentation(namedtuple("FinitePresentation", "generator_names relators")):
    """Generators (distinct names) and freely reduced nonempty relators."""

    __slots__ = ()

    def __new__(cls, generator_names: tuple[str, ...], relators: tuple[Word, ...]):
        if len(set(generator_names)) != len(generator_names):
            raise PresentationError("duplicate generator name")
        for r in relators:
            if not r:
                raise PresentationError("empty relator")
            if r.max_generator() >= len(generator_names):
                raise PresentationError("relator uses an undeclared generator")
        return super().__new__(cls, generator_names, relators)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)


def parse_presentation(text: str) -> FinitePresentation:
    """Parse the presentation grammar; see the module docstring.

    Relators that reduce to the identity are dropped with a warning.
    Raises :class:`ParseError` with line/column on malformed input, and at
    the first token that takes the expanded letter total past
    :data:`LETTER_CAP`.
    """
    names: list[str] | None = None
    index: dict[str, int] = {}
    relators: list[Word] = []
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        col0 = len(line) - len(stripped) + 1
        if stripped.startswith("gens:"):
            if names is not None:
                raise ParseError("duplicate gens line", lineno, col0)
            names = []
            body = stripped[len("gens:"):]
            start = col0 + len("gens:")  # the column where each piece starts
            for piece in body.split(","):
                name = piece.strip()
                col = start + len(piece) - len(piece.lstrip())
                start += len(piece) + 1
                if not name:
                    if body.strip():
                        raise ParseError("empty generator name", lineno, col)
                    continue
                if not _NAME_RE.match(name):
                    raise ParseError(f"bad generator name {name!r}", lineno, col)
                if name in index:
                    raise ParseError(f"duplicate generator name {name!r}", lineno, col)
                index[name] = len(names)
                names.append(name)
        elif stripped.startswith("rel:"):
            letters: list[int] = []
            pos = col0 + len("rel:")
            for tok in stripped[len("rel:"):].split():
                col = line.index(tok, pos - 1) + 1
                pos = col + len(tok)
                m = _TOKEN_RE.match(tok)
                if not m:
                    raise ParseError(f"bad letter token {tok!r}", lineno, col)
                word, exp = m.group(1), m.group(2)
                if word[0].isupper():
                    name, sign = word[0].lower() + word[1:], -1
                else:
                    name, sign = word, 1
                if names is None or name not in index:
                    raise ParseError(f"unknown generator {name!r}", lineno, col)
                k = 1 if exp is None else int(exp)
                if k == 0:
                    raise ParseError("zero exponent", lineno, col)
                if k < 0:
                    sign, k = -sign, -k
                total += k
                if total > LETTER_CAP:
                    raise ParseError(f"the presentation expands to more than {LETTER_CAP} letters",
                                     lineno, col)
                letters.extend([sign * (index[name] + 1)] * k)
            w = Word(letters)
            if w:
                relators.append(w)
            else:
                warnings.warn(f"relator on line {lineno} reduces to the identity; dropped")
        else:
            raise ParseError("expected 'gens:' or 'rel:' line", lineno, col0)
    if names is None:
        raise ParseError("missing gens line", 1, 1)
    return FinitePresentation(tuple(names), tuple(relators))


def serialize_presentation(pres: FinitePresentation) -> str:
    """Canonical text form; parses back to an equal presentation."""
    lines = ["gens: " + ", ".join(pres.generator_names)]
    for r in pres.relators:
        parts = []
        for a in r:
            name = pres.generator_names[abs(a) - 1]
            parts.append(name if a > 0 else name[0].upper() + name[1:])
        lines.append("rel: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def exponent_sum_matrix(pres: FinitePresentation) -> list[list[int]]:
    """Integer matrix (relators x generators) of signed letter counts."""
    m = pres.num_generators
    out = []
    for r in pres.relators:
        row = [0] * m
        for a in r:
            row[abs(a) - 1] += 1 if a > 0 else -1
        out.append(row)
    return out


def epimorphism_values(pres: FinitePresentation, values) -> tuple[int, ...]:
    """``values`` as exact ints, one per generator: an int as it is, an
    integral float or Fraction as its int; ValueError otherwise."""
    v = tuple(_integer(x, "value of psi") for x in values)
    if len(v) != pres.num_generators:
        raise ValueError(
            f"expected {pres.num_generators} values, got {len(v)}"
        )
    return v


def epimorphism_failure(weights, values) -> str | None:
    """None if every relator's weight in ``weights`` is zero and the gcd of
    ``values`` is 1 (surjectivity), else the reason; a relator of nonzero
    weight is reported first."""
    for i, w in enumerate(weights):
        if w:
            return f"kills-relators violated at relator {i}"
    g = math.gcd(*values)
    if g != 1:
        return f"not surjective (gcd = {g})"
    return None


def validate_epimorphism(pres: FinitePresentation, values) -> str | None:
    """None if ``values`` defines an epimorphism to Z, else the reason.

    Valid means every relator has zero weighted exponent sum and the gcd of
    the entries is 1 (surjectivity).
    """
    v = epimorphism_values(pres, values)
    return epimorphism_failure((sum(a * b for a, b in zip(row, v))
                                for row in exponent_sum_matrix(pres)), v)


def _kernel_basis(rows: list[list[int]], m: int) -> list[list[int]]:
    """Basis of the integer kernel lattice of a relators x generators matrix.

    Column reduction by Euclidean operations; the transform columns under
    the zeroed-out part of the echelon form span the kernel.
    """
    # column operations on (a, u), done as row operations on their transposes
    at = [[row[j] for row in rows] for j in range(m)]
    ut = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    lead = 0
    for i in range(len(rows)):
        if lead == m:
            break
        while True:
            nz = [j for j in range(lead, m) if at[j][i]]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                at[lead], at[j] = at[j], at[lead]
                ut[lead], ut[j] = ut[j], ut[lead]
                lead += 1
                break
            j0 = min(nz, key=lambda j: abs(at[j][i]))
            for j in nz:
                if j != j0:
                    q = at[j][i] // at[j0][i]
                    at[j] = [x - q * y for x, y in zip(at[j], at[j0])]
                    ut[j] = [x - q * y for x, y in zip(ut[j], ut[j0])]
    return ut[lead:]


def enumerate_epimorphisms(pres: FinitePresentation, bound: int) -> list[tuple[int, ...]]:
    """All epimorphisms to Z with sup-norm <= bound, one per +/- pair.

    Works in a basis of the kernel lattice of the exponent-sum matrix and
    filters by sup-norm in generator coordinates; representatives have a
    positive first nonzero entry and are sorted lexicographically.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m = pres.num_generators
    basis = _kernel_basis(exponent_sum_matrix(pres), m)
    d = len(basis)
    if d == 0:
        return []
    # rigorous coefficient box: v = B^T x gives x = G^-1 B v (G = B B^T), so
    # |x|_inf <= |G^-1 B|_inf * bound; one fraction-free pass gives the integers
    # p and p * G^-1 B
    gram = [
        [sum(basis[i][k] * basis[j][k] for k in range(m)) for j in range(d)]
        for i in range(d)
    ]
    p, pgb = solve_scaled([[LaurentPoly.constant(x) for x in g + b] for g, b in zip(gram, basis)])
    cbound = max(sum(abs(c) for x in row for c in x.ints) for row in pgb) * bound // abs(p.ints[0])
    if (2 * cbound + 1) ** d > _ENUMERATION_CAP:
        raise PresentationError("epimorphism enumeration box is too large")
    # v = sum_i x_i * basis[i], summed from precomputed multiples of each row;
    # the zero vector has gcd 0
    multiples = [[[c * x for x in row] for c in range(-cbound, cbound + 1)] for row in basis]
    seen = set()
    for parts in itertools.product(*multiples):
        v = tuple(map(sum, zip(*parts)))
        if max(map(abs, v)) > bound or math.gcd(*v) != 1:
            continue
        first = next(x for x in v if x)
        if first < 0:
            v = tuple(-x for x in v)
        seen.add(v)
    return sorted(seen)


def complexity_k(pres: FinitePresentation) -> int:
    """Sum of the l1 norms of all Fox derivatives of the relators.

    Equal to the total relator length (see the module docstring).
    """
    return sum(len(r) for r in pres.relators)


def root_bound(m: int, k: int) -> Fraction:
    """The root-annulus constant 1 + m! * k^m for m generators and
    Fox-Jacobian l1 norm k."""
    return Fraction(1 + math.factorial(m) * k ** m)
