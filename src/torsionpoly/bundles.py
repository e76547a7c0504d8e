"""Surface bundles over the circle: monodromies, mapping tori, power covers.

The characteristic polynomial of a monodromy is the torsion polynomial of
the bundle's fiber class.  For torus fibers, with monodromy in SL2(Z), this
is checked end to end: the mapping-torus presentation is built
group-theoretically, run through the Fox-calculus torsion pipeline, and the
result compared exactly against det(monodromy - tI).  Power covers replace
the monodromy by its n-th power; the induced n-th-power map on roots is
verified exactly through the resultant with lambda^n - t, reduced first mod
the characteristic polynomial p so that its Sylvester matrix has size at
most 2 deg p - 1 (3 for a 2x2 monodromy) whatever n is.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .freegroup import Word
from .laurent import (
    LaurentPoly,
    _integer,
    _pdivmod,
    _poly,
    complex_roots,
    determinant,
    normalize,
    roots_in_annulus,
)
from .presentation import LETTER_CAP, POWER_COVER_CAP, FinitePresentation
from .sl2z import Mat2, det, mat_pow
from .torsion import specialize_jacobian, torsion_polynomial

CANDIDATE_SEARCH_CAP = 10**7


def charpoly(phi) -> LaurentPoly:
    """Monic characteristic polynomial det(phi - tI) * (-1)^beta of a
    beta x beta matrix of rationals.

    Degree beta with constant term (-1)^beta det(phi), so +/-1 when phi has
    determinant 1.  Rational entries are kept exact, so coefficient
    denominators reflect those of phi.
    """
    rows = [[Fraction(x) for x in row] for row in phi]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    m = [
        [_poly([x.numerator, -x.denominator] if i == j else [x.numerator], x.denominator)
         for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    p = determinant(m)
    return -p if n % 2 else p


def _sl2z_matrix(a) -> Mat2:
    """``a`` as ints; ValueError unless a 2x2 integer matrix of determinant 1."""
    m = tuple(tuple(_integer(x, "matrix entry") for x in row) for row in a)
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ValueError("expected a 2x2 matrix")
    if det(m) != 1:
        raise ValueError("monodromy must have determinant 1")
    return m


def _power_letters(gen: int, k: int) -> list[int]:
    return [(1 if k > 0 else -1) * (gen + 1)] * abs(k)


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
    # s g s^-1 phi(g)^-1, with phi(g)^-1 = b^-A2j a^-A1j for g the j-th of (a, b)
    rels = [Word([3, g, -3, *_power_letters(1, -m[1][j]), *_power_letters(0, -m[0][j])])
            for j, g in enumerate((1, 2))]
    pres = FinitePresentation(("a", "b", "s"), (Word([1, 2, -1, -2]), *rels))
    return pres, (0, 0, 1)


class MonodromyTorsionReport(NamedTuple):
    """Cross-check of the Fox pipeline against det(phi - tI) for a torus bundle."""

    matrix: Mat2
    torsion: LaurentPoly
    characteristic: LaurentPoly
    ok: bool


def verify_monodromy_torsion(a) -> MonodromyTorsionReport:
    """Torsion polynomial of the mapping torus vs characteristic polynomial.

    Both are computed independently (Fox calculus + minor GCD on one side,
    a 2x2 determinant on the other) and compared exactly after
    normalization.
    """
    m = _sl2z_matrix(a)
    pres, psi = mapping_torus_presentation(m)
    delta = torsion_polynomial(specialize_jacobian(pres, psi))
    cp = charpoly(m)
    ok = normalize(delta) == normalize(cp)
    return MonodromyTorsionReport(m, delta, cp, ok)


def _resultant_power(p: LaurentPoly, n: int) -> LaurentPoly:
    """Resultant_lambda(p(lambda), lambda^n - t): the monic-up-to-units
    polynomial in t whose roots are the n-th powers of the roots of p.

    With P = p * den the integer form of p, one pseudo-division gives
    s * lambda^n = q * P + r, so lambda^n - t = h mod P for h = r/s - t, of
    degree e < deg P.  Res(P, lambda^n - t) = lead(P)^(n - e) * Res(P, h)
    (von zur Gathen and Gerhard, ch. 6), and Res(P, s h) = s^deg(P) Res(P, h),
    so one Sylvester determinant of P and s h, of size deg P + e <=
    2 deg P - 1 whatever n is, gives it; p's n rows of the full matrix put
    den^-n on it.
    """
    cs, d = p.ints, len(p.ints) - 1
    s, _, r = _pdivmod([0] * n + [1], cs)
    e = max(len(r) - 1, 0)
    # Sylvester matrix of P (e rows) and s h (d rows), descending in lambda;
    # only the constant coefficient of s h, r_0 - s t, holds t
    p_desc = [_poly((c,)) for c in reversed(cs)]
    h_desc = [_poly((c,)) for c in reversed(r[1:])] + [_poly((r[0] if r else 0, -s))]
    size, zero = d + e, _poly(())
    rows = []
    for i in range(e):
        row = [zero] * size
        row[i : i + d + 1] = p_desc
        rows.append(row)
    for i in range(d):
        row = [zero] * size
        row[i : i + e + 1] = h_desc
        rows.append(row)
    res = determinant(rows)
    scale = cs[-1] ** (n - e)
    return _poly([c * scale for c in res.ints], res.den * s**d * p.den**n, res.lo)


class PowerCoverReport(NamedTuple):
    """Root-power check: charpoly(A^n) against {root^n of charpoly(A)}."""

    matrix: Mat2
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
    numerically within ``tol``.  ValueError past :data:`POWER_COVER_CAP`.

    The resultant (:func:`_resultant_power`) costs one pseudo-division of
    lambda^n, n - 1 steps, and one 3x3 Sylvester determinant; a 2x2 one
    where lambda^n is constant mod charpoly(A), which is where A^n = +-I
    for an elliptic A.
    """
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
    return PowerCoverReport(m, n, base, power, composed, exact_ok, numeric_ok,
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
            p = _poly([const * denom, *nums, denom], denom)
            if roots_in_annulus(p, c):
                found.add(p)
    return sorted(found, key=lambda p: tuple(p.dense()))
