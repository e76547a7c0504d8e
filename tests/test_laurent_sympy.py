"""The integer kernel of the exact core against sympy as an independent
oracle over QQ: gcd, division with remainder, exact division, the Bareiss
determinant and rank, and the Smith invariant factors, on seeded inputs with
non-unit leading coefficients, rational coefficients, negative exponents and
sparse torus-type entries of degree over 400."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import torsionpoly.laurent as laurent_mod
from torsionpoly.laurent import (
    LaurentPoly,
    determinant,
    divmod_poly,
    exact_div,
    gcd,
    rank,
    smith_normal_form,
    solve_scaled,
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


def sympy_matrix(m):
    """t^-lo * m over QQ[t], lo = min(0, smallest exponent), and lo."""
    lo = min([0] + [e.min_exp for row in m for e in row if e])
    return sympy.Matrix([[to_sympy(e, -lo).as_expr() for e in row] for row in m]), lo


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
    shifted, _ = sympy_matrix(m)
    want = [sympy.Poly(f, X, domain=sympy.QQ).monic()
            for f in invariant_factors(shifted, domain=QQ_T) if f]
    assert [to_sympy(f) for f in factors] == want


SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 4), (1, 3), (4, 2), (3, 1)]


def bareiss_matrix(seed):
    """A seeded matrix of one of SHAPES (square, wide and tall): a quarter of
    its entries zero, the rest with rational coefficients whose denominators
    differ from row to row and negative exponents; every third one is rank
    deficient."""
    rng = random.Random(seed)
    nrows, ncols = SHAPES[seed % len(SHAPES)]
    m = [[LaurentPoly.zero() if rng.random() < 0.25 else random_poly(rng, terms=3)
          for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and seed % 3 == 0:
        f, g = random_poly(rng, terms=2), random_poly(rng, terms=2)
        m[-1] = [f * a + g * b for a, b in zip(m[0], m[1])]
    return m


# a zero entry read from a negative global shift is the zero polynomial, not
# a run of zeros that would pass for a pivot
ZERO_UNDER_SHIFT = [
    [LaurentPoly.term(3, -2), LaurentPoly.zero(), LaurentPoly.term(1, 1)],
    [LaurentPoly.zero(), LaurentPoly.t() + LaurentPoly.one(), LaurentPoly.zero()],
    [LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.term(Fraction(1, 2), -1)],
]

# one-row inputs, through the same Bareiss pass: a zero 1x1, a zero row, and a
# 1x1 whose entry has a negative exponent and a denominator
ONE_ROW = [
    [[LaurentPoly.zero()]],
    [[LaurentPoly.zero()] * 3],
    [[LaurentPoly({-2: Fraction(-3, 7), 1: Fraction(5, 2)})]],
]


@pytest.mark.parametrize("m", [bareiss_matrix(seed) for seed in range(45)] + [ZERO_UNDER_SHIFT]
                         + ONE_ROW)
def test_determinant_and_rank_match_sympy(m):
    shifted, lo = sympy_matrix(m)
    dm = DomainMatrix.from_Matrix(shifted)
    assert rank(m) == dm.convert_to(sympy.QQ.frac_field(X)).rank()
    if len(m) == len(m[0]):
        want = sympy.Poly(dm.convert_to(QQ_T).det().as_expr(), X, domain=sympy.QQ)
        # det(t^-lo * rows) = t^(-lo * n) det
        assert to_sympy(determinant(m), -lo * len(m)) == want


def _ints(rows):
    return [[LaurentPoly.constant(x) for x in row] for row in rows]


# row swaps, zero pivot-column entries that the pass leaves alone (pivot equal
# to the previous one) or must scale (pivot not equal to it), and the identity
SOLVE_CASES = [m for m in (bareiss_matrix(seed) for seed in range(45))
               if len(m) == len(m[0]) and determinant(m)] + [ZERO_UNDER_SHIFT] + [
    _ints([[0, 2, 1], [3, 1, 0], [1, 0, 4]]),
    _ints([[1, 0, 2], [0, 1, 3], [4, 5, 1]]),
    _ints([[2, 0, 0], [0, 3, 0], [0, 0, 5]]),
    _ints([[1 if i == j else 0 for j in range(4)] for i in range(4)]),
]


@pytest.mark.parametrize("m", SOLVE_CASES)
def test_solve_scaled_solves_exactly(m):
    rng = random.Random(len(m))
    rhs = [[LaurentPoly.zero() if rng.random() < 0.25 else random_poly(rng, terms=3)
            for _ in range(3)] for _ in m]
    p, sol = solve_scaled([a + b for a, b in zip(m, rhs)])
    assert p and all(e.den == 1 for row in sol for e in row)
    for i, row in enumerate(m):
        for j in range(3):
            acc = LaurentPoly.zero()
            for k, a in enumerate(row):
                acc = acc + a * sol[k][j]
            assert acc == p * rhs[i][j]


def test_solve_scaled_refuses_singular_and_nonsquare():
    with pytest.raises(ZeroDivisionError):
        solve_scaled(_ints([[1, 2, 1], [2, 4, 1]]))
    with pytest.raises(ValueError):
        solve_scaled(_ints([[1], [2]]))


def test_bareiss_matrices_cover_the_cases():
    ms = [bareiss_matrix(seed) for seed in range(45)]
    assert any(len(m) < len(m[0]) for m in ms) and any(len(m) > len(m[0]) for m in ms)
    assert any(rank(m) < min(len(m), len(m[0])) for m in ms)
    assert any(len({math.lcm(*(e.den for e in row)) for row in m}) > 1 for m in ms)
    assert any(not e for m in ms for row in m for e in row)
    assert any(e and e.min_exp < 0 for m in ms for row in m for e in row)


def test_sylvester_determinant_builds_one_polynomial(monkeypatch):
    # resultant_lambda(p(lambda), lambda^4 - t) from its 6x6 Sylvester matrix
    p = [Fraction(2), Fraction(-3, 2), Fraction(1, 3)]  # 2 lambda^2 - 3/2 lambda + 1/3
    g = [LaurentPoly.one()] + [LaurentPoly.zero()] * 3 + [-LaurentPoly.t()]
    rows = []
    for i in range(4):
        rows.append([LaurentPoly.zero()] * i + [LaurentPoly.constant(c) for c in p]
                    + [LaurentPoly.zero()] * (3 - i))
    for i in range(2):
        rows.append([LaurentPoly.zero()] * i + g + [LaurentPoly.zero()] * (1 - i))
    built = []
    real = laurent_mod._poly
    monkeypatch.setattr(laurent_mod, "_poly", lambda *a: built.append(a) or real(*a))
    det = determinant(rows)
    assert len(built) == 1
    lam = sympy.Symbol("lam")
    want = sympy.resultant(sum(sympy.Rational(c.numerator, c.denominator) * lam ** (2 - i)
                               for i, c in enumerate(p)), lam ** 4 - X, lam)
    assert to_sympy(det) == sympy.Poly(want, X, domain=sympy.QQ)
