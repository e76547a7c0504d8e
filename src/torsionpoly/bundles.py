"""Homology surface bundles: algebraic monodromy, mapping tori, power covers.

A rational-homology product cobordism composed with a gluing matrix gives
an algebraic monodromy Y*X in SL(Q); its characteristic polynomial is the
torsion polynomial of the fiber class of the glued-up bundle.  For torus
fibers this is checked end to end: the mapping-torus presentation is built
group-theoretically, run through the Fox-calculus torsion pipeline, and the
result compared exactly against det(monodromy - tI).  Power covers replace
the monodromy by its n-th power; the induced n-th-power map on roots is
verified exactly through a Sylvester-matrix resultant.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .freegroup import Word
from .laurent import (
    LaurentPoly,
    complex_roots,
    determinant,
    normalize,
    roots_in_annulus,
)
from .presentation import LETTER_CAP, POWER_COVER_CAP, FinitePresentation
from .sl2z import det, mat_pow
from .torsion import specialize_jacobian, torsion_polynomial

CANDIDATE_SEARCH_CAP = 10**7


def _has_det_one(rows) -> bool:
    return determinant([[LaurentPoly.constant(x) for x in row] for row in rows]) == LaurentPoly.one()


def _as_matrix(rows, beta: int) -> tuple[tuple[Fraction, ...], ...]:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(m) != beta or any(len(row) != beta for row in m):
        raise ValueError(f"expected a {beta}x{beta} matrix")
    return m


class HomologyBundleData(namedtuple("HomologyBundleData", "beta x y")):
    """First-homology data of a rational-homology F x I with a gluing.

    ``x`` is the rational matrix of the through-the-cobordism composition
    (det 1 exactly), ``y`` the integral matrix of the gluing (det 1).
    """

    __slots__ = ()

    def __new__(cls, beta: int, x, y):
        if beta < 1:
            raise ValueError("beta must be a positive integer")
        x, y = _as_matrix(x, beta), _as_matrix(y, beta)
        if not _has_det_one(x):
            raise ValueError("x must have determinant 1")
        if not _has_det_one(y):
            raise ValueError("y must have determinant 1")
        if any(v.denominator != 1 for row in y for v in row):
            raise ValueError("y must be integral")
        return super().__new__(cls, int(beta), x, y)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class AlgebraicMonodromy(namedtuple("AlgebraicMonodromy", "matrix")):
    """The composition matrix Y * X; determinant 1 by construction."""

    __slots__ = ()

    def __new__(cls, matrix):
        m = _as_matrix(matrix, len(matrix))
        if not _has_det_one(m):
            raise ValueError("monodromy must have determinant 1")
        return super().__new__(cls, m)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


def monodromy(data: HomologyBundleData) -> AlgebraicMonodromy:
    """Exact product Y * X."""
    b = data.beta
    prod = [
        [sum(data.y[i][k] * data.x[k][j] for k in range(b)) for j in range(b)]
        for i in range(b)
    ]
    return AlgebraicMonodromy(prod)


def charpoly(phi) -> LaurentPoly:
    """Monic characteristic polynomial det(phi - tI) * (-1)^beta.

    Degree beta with constant term +/-1 (determinant 1).  Rational entries
    are kept exact, so coefficient denominators reflect those of phi.
    """
    rows = phi.matrix if isinstance(phi, AlgebraicMonodromy) else _as_matrix(phi, len(phi))
    beta = len(rows)
    t = LaurentPoly.t()
    m = [
        [
            LaurentPoly.constant(rows[i][j]) - (t if i == j else LaurentPoly.zero())
            for j in range(beta)
        ]
        for i in range(beta)
    ]
    p = determinant(m)
    if beta % 2:
        p = -p
    return p


def _sl2z_matrix(a) -> list[list[int]]:
    m = [[int(x) for x in row] for row in a]
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ValueError("expected a 2x2 matrix")
    if det(m) != 1:
        raise ValueError("monodromy must have determinant 1")
    return m


def _power_word(gen: int, k: int) -> Word:
    return Word([(1 if k > 0 else -1) * (gen + 1)] * abs(k))


def mapping_torus_presentation(a) -> tuple[FinitePresentation, tuple[int, int, int]]:
    """Torus-bundle group for a monodromy in SL2(Z), with its fiber map to Z.

    Generators (a, b, s); relators [a,b] and s g s^-1 * phi(g)^-1 with the
    column-action convention phi(a) = a^A11 * b^A21, phi(b) = a^A12 * b^A22.
    The returned epimorphism sends only s to 1 (intersection with the fiber
    class).  ValueError if the entries sum in absolute value past
    :data:`~torsionpoly.presentation.LETTER_CAP`, before any word is built.
    """
    m = _sl2z_matrix(a)
    letters = sum(abs(x) for row in m for x in row)
    if letters > LETTER_CAP:
        raise ValueError(f"the matrix entries need {letters} letters, past the cap of {LETTER_CAP}")
    ga, gb, gs = Word([1]), Word([2]), Word([3])
    commutator = ga * gb * ~ga * ~gb
    phi_a = _power_word(0, m[0][0]) * _power_word(1, m[1][0])
    phi_b = _power_word(0, m[0][1]) * _power_word(1, m[1][1])
    rel_a = gs * ga * ~gs * ~phi_a
    rel_b = gs * gb * ~gs * ~phi_b
    pres = FinitePresentation(("a", "b", "s"), (commutator, rel_a, rel_b))
    return pres, (0, 0, 1)


class MonodromyTorsionReport(NamedTuple):
    """Cross-check of the Fox pipeline against det(phi - tI) for a torus bundle."""

    matrix: tuple[tuple[int, ...], ...]
    torsion: LaurentPoly
    characteristic: LaurentPoly
    ok: bool


def verify_monodromy_torsion(a) -> MonodromyTorsionReport:
    """Torsion polynomial of the mapping torus vs characteristic polynomial.

    Both are computed independently (Fox calculus + minor GCD on one side,
    a 2x2 determinant on the other) and compared exactly after
    normalization.
    """
    pres, psi = mapping_torus_presentation(a)
    delta = torsion_polynomial(specialize_jacobian(pres, psi))
    cp = charpoly([[Fraction(x) for x in row] for row in a])
    ok = normalize(delta) == normalize(cp)
    mat = tuple(tuple(int(x) for x in row) for row in a)
    return MonodromyTorsionReport(mat, delta, cp, ok)


def _resultant_power(p: LaurentPoly, n: int) -> LaurentPoly:
    """Resultant_lambda(p(lambda), lambda^n - t): the monic-up-to-units
    polynomial in t whose roots are the n-th powers of the roots of p."""
    cs = p.dense()
    dp = len(cs) - 1
    # Sylvester matrix of p (degree dp in lambda, constant coefficients) and
    # lambda^n - t (degree n in lambda, coefficients in Q[t]), both descending.
    p_desc = [LaurentPoly.constant(c) for c in reversed(cs)]
    g_desc = [LaurentPoly.zero()] * (n + 1)
    g_desc[0] = LaurentPoly.one()
    g_desc[n] = -LaurentPoly.t()
    size = dp + n
    rows = []
    for i in range(n):
        row = [LaurentPoly.zero()] * size
        row[i : i + dp + 1] = p_desc
        rows.append(row)
    for i in range(dp):
        row = [LaurentPoly.zero()] * size
        row[i : i + n + 1] = g_desc
        rows.append(row)
    return determinant(rows)


class PowerCoverReport(NamedTuple):
    """Root-power check: charpoly(A^n) against {root^n of charpoly(A)}."""

    matrix: tuple[tuple[int, ...], ...]
    n: int
    base: LaurentPoly
    power: LaurentPoly
    composed: LaurentPoly
    exact_ok: bool
    numeric_ok: bool
    ok: bool


def power_cover(a, n: int, tol: float = 1e-10) -> PowerCoverReport:
    """Verify that the roots of charpoly(A^n) are the n-th powers of the
    roots of charpoly(A), exactly via the resultant identity and
    numerically within ``tol``.  ValueError past :data:`POWER_COVER_CAP`."""
    if not 1 <= n <= POWER_COVER_CAP:
        raise ValueError(f"n must lie in 1..{POWER_COVER_CAP}, got {n}")
    m = _sl2z_matrix(a)
    base = charpoly(m)
    power = charpoly(mat_pow(m, n))
    composed = _resultant_power(base, n)
    exact_ok = normalize(composed) == normalize(power)
    powered = sorted(
        (z ** n for z, mult in complex_roots(base, tol) for _ in range(mult)),
        key=lambda w: (w.real, w.imag),
    )
    direct = sorted(
        (z for z, mult in complex_roots(power, tol) for _ in range(mult)),
        key=lambda w: (w.real, w.imag),
    )
    numeric_ok = len(powered) == len(direct) and all(
        abs(u - v) <= tol ** 0.5 * max(1.0, abs(v)) for u, v in zip(powered, direct)
    )
    mat = tuple(tuple(row) for row in m)
    return PowerCoverReport(mat, n, base, power, composed, exact_ok, numeric_ok,
                            exact_ok and numeric_ok)


def enumerate_candidate_charpolys(beta: int, n_denominator: int, c) -> list[LaurentPoly]:
    """All monic degree-beta candidates compatible with the root annulus.

    Coefficients have denominators dividing n_denominator**beta, constant
    term +/-1, elementary-symmetric magnitude bounds C(beta,k)*c^k, and all
    roots of modulus within [1/c, c].  A candidate, unlike a torsion
    polynomial, has no proven annulus, so that condition is decided exactly,
    in integers, by :func:`~torsionpoly.laurent.roots_in_annulus` (the
    Schur-Cohn recursion, with Cohn's theorem for roots on the circle); no
    root is computed.  Output is duplicate-free, sorted by
    coefficient tuple, and closed under the reciprocal map.
    """
    if not (1 <= beta <= 4):
        raise ValueError("beta must be between 1 and 4")
    c = Fraction(c)
    if c < 1:
        raise ValueError("c must be >= 1")
    if n_denominator < 1:
        raise ValueError("denominator bound must be >= 1")
    denom = n_denominator ** beta
    ranges = []
    volume = 2
    for j in range(1, beta):
        k = beta - j  # coefficient of t^j is +/- e_k up to sign
        top = math.floor(math.comb(beta, k) * c ** k * denom)
        ranges.append(range(-top, top + 1))
        volume *= 2 * top + 1
    if volume > CANDIDATE_SEARCH_CAP:
        raise ValueError(f"candidate search volume {volume} exceeds cap")
    found = set()
    for const in (1, -1):
        for nums in itertools.product(*ranges):
            coeffs = {beta: Fraction(1), 0: Fraction(const)}
            for j, num in zip(range(1, beta), nums):
                if num:
                    coeffs[j] = Fraction(num, denom)
            p = LaurentPoly(coeffs)
            if roots_in_annulus(p, c):
                found.add(p)
    return sorted(found, key=lambda p: tuple(p.dense()))
