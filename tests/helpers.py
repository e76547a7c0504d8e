"""Shared generators and brute-force oracles for the test suite."""

import itertools
import math
from fractions import Fraction

import mpmath
import sympy

from torsionpoly.freegroup import Word
from torsionpoly.laurent import (
    InvariantViolation, LaurentPoly, RootFindingError, _starts, cauchy_root_radius, complex_roots,
    determinant, reciprocal,
)
from torsionpoly.presentation import (
    FinitePresentation, complexity_k, exponent_sum_matrix, root_bound,
)
from torsionpoly.sl2z import L_MAT, R_MAT, Mat2, RLWord, det, mat_mul, trace
from torsionpoly.torsion import leaves_annulus


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


def minors_by_determinant(entries, r):
    """Every r-minor of ``entries``, one determinant per submatrix, with
    rows and columns in combinations order."""
    return [determinant([[entries[i][j] for j in ci] for i in ri])
            for ri in itertools.combinations(range(len(entries)), r)
            for ci in itertools.combinations(range(len(entries[0])), r)]


def norm_l1(alpha) -> Fraction:
    """Sum of absolute values of the coefficients of a group-ring element;
    subadditive under addition and submultiplicative under multiplication."""
    return sum((abs(c) for c in alpha.terms.values()), Fraction(0))


def root_bound_c(pres: FinitePresentation) -> Fraction:
    """The root-annulus constant ``root_bound(m, k)`` of this presentation."""
    return root_bound(pres.num_generators, complexity_k(pres))


def laurent_mat_mul(a, b):
    """The product of two matrices over Q[t, t^-1] (lists of rows)."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return [[sum((row[k] * b[k][j] for k in range(len(b))), LaurentPoly.zero())
             for j in range(len(b[0]) if b else 0)] for row in a]


def eval_mp(p, z):
    """p(z) by Horner's rule in the global mpmath context."""
    acc = mpmath.mpf(0)
    for c in reversed(p.dense()):
        acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
    return acc * z ** p.min_exp


# -- reference arithmetic on {exponent: Fraction} dicts, the oracle for LaurentPoly --


def _ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _ref_clean(out)


def ref_scale(a, r):
    return _ref_clean({e: c * r for e, c in a.items()})


def ref_shift(a, k):
    return {e + k: c for e, c in a.items()}


def ref_reciprocal(a):
    hi = max(a, default=0)
    return {hi - e: c for e, c in a.items()}


def ref_exact_div(a, b):
    """a / b by long division on Fractions from the top term; raises
    ArithmeticError unless b (nonzero) divides a in Q[t, t^-1]."""
    rem, out = dict(a), {}
    hb, lb = max(b), min(b)
    while rem and max(rem) - min(rem) >= hb - lb:
        e = max(rem)
        q = rem[e] / b[hb]
        out[e - hb] = q
        rem = ref_add(rem, {f + e - hb: -q * c for f, c in b.items()})
    if rem:
        raise ArithmeticError("inexact reference division")
    return out


# -- brute-force SL2(Z) conjugacy, the oracle for the positive-word census --

SAME_CLASS = "same-class"
DISTINCT = "distinct"
INCONCLUSIVE = "inconclusive"


def mat_inv(x: Mat2) -> Mat2:
    """Inverse of a determinant-1 matrix (adjugate)."""
    return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


def _bounded_orbit(start: Mat2, bound: int) -> dict[Mat2, Mat2]:
    """Conjugates reachable from ``start`` through matrices with entries
    bounded by ``bound`` in absolute value, conjugating by R, L and
    inverses.  Maps each reached matrix m to a conjugator g with
    g * start * g^-1 == m."""
    gens = [R_MAT, L_MAT, mat_inv(R_MAT), mat_inv(L_MAT)]
    seen: dict[Mat2, Mat2] = {start: ((1, 0), (0, 1))}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                cand = mat_mul(g, mat_mul(m, mat_inv(g)))
                if cand in seen:
                    continue
                if max(abs(v) for row in cand for v in row) > bound:
                    continue
                seen[cand] = mat_mul(g, seen[m])
                nxt.append(cand)
        frontier = nxt
    return seen


def conjugacy_oracle(a: Mat2, b: Mat2, bound: int) -> str:
    """Brute-force conjugacy test restricted to entries <= bound.

    Trace is an exact class invariant, and a same-class verdict is backed
    by an explicit conjugator found by BFS (checked before returning).
    Disjoint completed bounded orbits are reported as distinct; the verdict
    is inconclusive when an input matrix already violates the bound,
    leaving no room to explore.
    """
    a = tuple(tuple(int(v) for v in row) for row in a)
    b = tuple(tuple(int(v) for v in row) for row in b)
    if trace(a) != trace(b) or det(a) != det(b):
        return DISTINCT
    if a == b:
        return SAME_CLASS
    if max(abs(v) for row in a for v in row) > bound or \
       max(abs(v) for row in b for v in row) > bound:
        return INCONCLUSIVE
    for start, target in ((a, b), (b, a)):
        orbit = _bounded_orbit(start, bound)
        if target in orbit:
            g = orbit[target]
            if mat_mul(g, mat_mul(start, mat_inv(g))) != target:
                raise InvariantViolation("BFS conjugator does not conjugate")
            return SAME_CLASS
    return DISTINCT


def canonicalize(word: RLWord) -> RLWord:
    """The word with its blocks at their lexicographically least cyclic
    rotation: the reference for the canonical words the census keeps."""
    blocks = word.blocks
    return RLWord(min(blocks[i:] + blocks[:i] for i in range(len(blocks))), word.sign)


def census_by_rotation_sets(tau_max: int) -> dict[int, list[RLWord]]:
    """Canonical positive R/L words by trace, for traces <= tau_max: the
    unpruned reference for ``sl2z._positive_words_by_trace``.

    Visits every positive word of trace <= tau_max, adds the least rotation
    of each to its trace's set, and sorts each set by blocks.
    """
    buckets: dict[int, set] = {}

    def extend(blocks, matrix):
        (p00, p01), (p10, p11) = matrix
        a = 1
        while p00 * (1 + a) + p01 + p10 * a + p11 <= tau_max:
            b = 1
            while True:
                tr = p00 * (1 + a * b) + p01 * b + p10 * a + p11
                if tr > tau_max:
                    break
                grown = blocks + ((a, b),)
                buckets.setdefault(tr, set()).add(
                    min(grown[i:] + grown[:i] for i in range(len(grown))))
                if tr < tau_max:
                    extend(grown, mat_mul(matrix, ((1 + a * b, a), (b, 1))))
                b += 1
            a += 1

    extend((), ((1, 0), (0, 1)))
    return {tr: [RLWord(blocks) for blocks in sorted(found)] for tr, found in buckets.items()}


# -- reference forms of the root layer ------------------------------------------


def horner_with_scale(coeffs, z):
    """p(z), p'(z) and the rounding scale sum |c_k| |z|^k (coefficients
    ascending), all by Horner's rule in the arithmetic of z."""
    p = dp = scale = 0
    r = abs(z)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
        scale = scale * r + abs(c)
    return p, dp, scale


def reference_aberth(numbers, f, seed):
    """The Aberth-Ehrlich sweep that sums the scale at every step and the
    pair sum by a generator: ``laurent._aberth`` must return its iterates
    bit for bit, in doubles and in an mpmath context."""
    deg = len(f) - 1
    cs = [numbers.ratio(c, f[-1]) for c in f]
    rev = cs[::-1]
    res_target, step_target = numbers.targets(deg)
    z = _starts(numbers, f, seed)
    moving = range(deg)
    for _ in range(600):
        still = []
        for k in moving:
            zk = z[k]
            if abs(zk) <= 1:
                pv, den, scale = horner_with_scale(cs, zk)
                num = pv
            else:
                y = 1 / zk
                pv, dq, scale = horner_with_scale(rev, y)
                num, den = zk * pv, deg * pv - y * dq
            if pv == 0:
                continue
            try:
                w = num / den
                s = sum(1 / (zk - zj) for j, zj in enumerate(z) if j != k)
            except ZeroDivisionError:
                z[k] += step_target * (1 + abs(zk)) * (1 + 1j)
                still.append(k)
                continue
            denom = 1 - w * s
            delta = w if denom == 0 else w / denom
            z[k] = zk - delta
            if not numbers.finite(z[k]):
                raise OverflowError("Aberth iterate left the double range")
            if abs(pv) >= res_target * scale and abs(delta) >= step_target * max(1, abs(z[k])):
                still.append(k)
        if not still:
            return z
        moving = still
    raise RootFindingError("Aberth iteration did not converge")


def candidate_charpolys_by_roots(beta, n_denominator, c):
    """``enumerate_candidate_charpolys`` with its filter decided by numeric
    roots: a candidate passes the Cauchy certificate, or no root that
    ``complex_roots`` reports leaves [1/c, c] by more than 1e-9."""
    c = Fraction(c)
    denom = n_denominator ** beta
    ranges = []
    for j in range(1, beta):
        top = math.floor(math.comb(beta, beta - j) * c ** (beta - j) * denom)
        ranges.append(range(-top, top + 1))
    found = set()
    for const in (1, -1):
        for nums in itertools.product(*ranges):
            p = LaurentPoly({beta: 1, 0: const, **{j: Fraction(num, denom)
                                                   for j, num in zip(range(1, beta), nums)}})
            if ((cauchy_root_radius(p) <= c and cauchy_root_radius(reciprocal(p)) <= c)
                    or not leaves_annulus([abs(z) for z, _ in complex_roots(p, 1e-10)], c, 1e-10)):
                found.add(p)
    return sorted(found, key=lambda p: tuple(p.dense()))
