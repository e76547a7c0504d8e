"""The integer kernel of the exact core against sympy as an independent
oracle over QQ: gcd, division with remainder, exact division and the Smith
invariant factors, on seeded inputs with non-unit leading coefficients,
rational coefficients, negative exponents and sparse torus-type entries of
degree over 400."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from torsionpoly.laurent import (
    LaurentPoly,
    divmod_poly,
    exact_div,
    gcd,
    smith_normal_form,
)

X = sympy.Symbol("t")
QQ_T = sympy.QQ[X]


def to_sympy(p, shift=0):
    """t^shift * p as a sympy Poly over QQ; the exponents must end up >= 0."""
    return sympy.Poly.from_dict({(e + shift,): sympy.QQ(c.numerator, c.denominator)
                                 for e, c in p.coeffs.items()}, X, domain=sympy.QQ)


def from_sympy(poly, lo=0):
    """t^lo * poly as a LaurentPoly."""
    return LaurentPoly({lo + e: Fraction(int(c.p), int(c.q))
                        for (e,), c in poly.as_dict().items()})


def random_poly(rng, nonneg=False, terms=7):
    """Up to ``terms`` terms with rational coefficients and a non-unit
    leading one."""
    lo = 0 if nonneg else rng.randint(-4, 2)
    n = rng.randint(1, terms)
    coeffs = {lo + i: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
              for i in range(n) if rng.random() < 0.7}
    coeffs[lo + n] = Fraction(rng.choice([2, 3, -5, 6]), rng.choice([1, 5]))
    return LaurentPoly(coeffs)


def torus_entry(rng, lo=0):
    """A sparse entry c * sum_{i<n} t^(q*i) of degree over 400."""
    q = rng.randint(7, 40)
    n = 400 // q + rng.randint(2, 6)
    c = Fraction(rng.choice([1, -1, 3, -2]), rng.choice([1, 2]))
    return LaurentPoly({lo + q * i: c for i in range(n)})


def pairs(seed, count, nonneg=False):
    """Seeded pairs (a, b); most share a planted common factor."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        if n % 4 == 3:
            f = torus_entry(rng, 0 if nonneg else rng.randint(-3, 0))
            a, b = f * random_poly(rng, nonneg), torus_entry(rng) * random_poly(rng, True)
            if n % 8 == 7:
                b = b * f
        else:
            f = random_poly(rng, nonneg)
            a, b = random_poly(rng, nonneg), random_poly(rng, nonneg)
            if n % 4:
                a, b = a * f, b * f
        out.append((a, b))
    return out


@pytest.mark.parametrize("a, b", pairs(1, 40))
def test_gcd_matches_sympy(a, b):
    g = gcd(a, b)
    # canonical: lowest exponent 0, coprime integers, positive leading coefficient
    cs = g.dense()
    assert g.min_exp == 0 and cs[-1] > 0
    assert all(c.denominator == 1 for c in cs)
    assert math.gcd(*[int(c) for c in cs]) == 1
    # t is a unit in Q[t, 1/t], so shift both to nonzero constant terms
    want = sympy.gcd(to_sympy(a, -a.min_exp), to_sympy(b, -b.min_exp))
    assert to_sympy(g).monic() == want.monic()


@pytest.mark.parametrize("a, b", pairs(2, 40, nonneg=True))
def test_divmod_poly_matches_sympy(a, b):
    q, r = divmod_poly(a, b)
    want_q, want_r = sympy.div(to_sympy(a), to_sympy(b), domain=sympy.QQ)
    assert q == from_sympy(want_q)
    assert r == from_sympy(want_r)


@pytest.mark.parametrize("a, b", pairs(3, 40))
def test_exact_div_matches_sympy(a, b):
    prod = a * b
    want_q, want_r = sympy.div(to_sympy(prod, -prod.min_exp), to_sympy(b, -b.min_exp),
                               domain=sympy.QQ)
    assert want_r.is_zero
    assert exact_div(prod, b) == from_sympy(want_q, prod.min_exp - b.min_exp) == a
    if b.span() and a.span():
        inexact = prod + LaurentPoly.term(1, prod.min_exp)
        _, rem = sympy.div(to_sympy(inexact, -inexact.min_exp), to_sympy(b, -b.min_exp),
                           domain=sympy.QQ)
        if not rem.is_zero:
            with pytest.raises(ArithmeticError):
                exact_div(inexact, b)


def random_matrix(rng):
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
    # few terms per entry: U and V swell quickly (the invariant factors do not)
    m = [[LaurentPoly.zero() if rng.random() < 0.25 else random_poly(rng, terms=3)
          for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        f = random_poly(rng, terms=2)
        m[-1] = [f * e for e in m[0]]  # rank-deficient
    return m


@pytest.mark.parametrize("seed", range(30))
def test_smith_invariant_factors_match_sympy(seed):
    m = random_matrix(random.Random(seed))
    factors, _ = smith_normal_form(m)
    # Smith runs over Q[t] after the shift t^-lo, lo = min(0, smallest exponent)
    lo = min([0] + [e.min_exp for row in m for e in row if e])
    shifted = sympy.Matrix([[to_sympy(e, -lo).as_expr() for e in row] for row in m])
    want = [sympy.Poly(f, X, domain=sympy.QQ).monic()
            for f in invariant_factors(shifted, domain=QQ_T) if f]
    assert [to_sympy(f) for f in factors] == want
