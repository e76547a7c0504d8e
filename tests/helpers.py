"""Shared generators and brute-force oracles for the test suite."""

import itertools
import math

import sympy

from torsionpoly.freegroup import Word
from torsionpoly.presentation import FinitePresentation, exponent_sum_matrix
from torsionpoly.sl2z import mat_mul


# 33 letters; the Q[t] Smith form took minutes on it, the minors a millisecond
SWELL = "gens: x, y, z\nrel: x^-5 z^-5 y^6 y^-4 x^-2 x^7\nrel: x^-3 x^7 z^4 y^-6 z^-2\n"
SWELL_PSI = (-13, -10, -4)


def random_word(rng, num_gens, max_len):
    letters = [
        rng.choice([1, -1]) * rng.randint(1, num_gens)
        for _ in range(rng.randint(1, max_len))
    ]
    return Word(letters)


def random_presentation(rng, max_gens=3, max_relators=3, max_len=12):
    """A random presentation with nonempty freely reduced relators."""
    m = rng.randint(1, max_gens)
    names = tuple("abcdefgh"[:m])
    relators = []
    for _ in range(rng.randint(1, max_relators)):
        w = random_word(rng, m, max_len)
        if w:
            relators.append(w)
    return FinitePresentation(names, tuple(relators))


def brute_force_epimorphisms(pres, bound):
    """Box enumeration of primitive kernel vectors, one per +/- pair."""
    rows = exponent_sum_matrix(pres)
    m = pres.num_generators
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=m):
        if not any(v):
            continue
        if any(sum(a * b for a, b in zip(row, v)) for row in rows):
            continue
        g = 0
        for x in v:
            g = math.gcd(g, abs(x))
        if g != 1:
            continue
        first = next(x for x in v if x)
        out.add(tuple(-x for x in v) if first < 0 else v)
    return sorted(out)


_R = ((1, 1), (0, 1))
_L = ((1, 0), (1, 1))
_RINV = ((1, -1), (0, 1))
_LINV = ((1, 0), (-1, 1))


def random_sl2z_matrix(rng, entry_bound=10):
    """Random determinant-1 integer matrix with entries within the bound,
    built as a product of elementary matrices (and an optional global sign)."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, 12)):
        g = rng.choice([_R, _L, _RINV, _LINV])
        nxt = mat_mul(m, g)
        if max(abs(v) for row in nxt for v in row) > entry_bound:
            break
        m = nxt
    if rng.random() < 0.5:
        m = tuple(tuple(-v for v in row) for row in m)
    return [list(row) for row in m]


def sympy_roots(p):
    """(30-digit root, multiplicity) pairs of a LaurentPoly with integer
    coefficients, from sympy's square-free decomposition."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in reversed(p.dense())], x)
    return [(r, m) for f, m in poly.sqf_list()[1] for r in sympy.Poly(f, x).nroots(n=30)]


def sympy_minor_gcd(jac):
    """Coefficients, ascending, of the canonical GCD of the largest nonzero
    minors of a Jacobian with at most two relators, computed by sympy on
    the entries times one common power of t."""
    x = sympy.Symbol("x")
    lo = min((q.min_exp for row in jac.entries for q in row if q), default=0)
    m = [[sympy.Poly([int(c) for c in reversed(q.dense())] + [0] * (q.min_exp - lo)
                     if q else [0], x) for q in row] for row in jac.entries]
    if len(m) > 2:
        raise ValueError("the oracle takes at most two relators")
    minors = []
    if len(m) == 2:
        minors = [m[0][i] * m[1][j] - m[0][j] * m[1][i]
                  for i, j in itertools.combinations(range(jac.num_generators), 2)]
    if not any(minors):
        minors = [q for row in m for q in row]
    g = sympy.Poly(0, x)
    for d in minors:
        g = g.gcd(d)
    if g.is_zero:
        return [1]
    cs = [int(c) for c in reversed(g.all_coeffs())]
    cs = cs[next(i for i, c in enumerate(cs) if c):]
    sign = 1 if cs[-1] > 0 else -1
    content = math.gcd(*cs)
    return [sign * c // content for c in cs]
