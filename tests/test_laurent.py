"""Laurent polynomial arithmetic, linear algebra, and root machinery."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eval_mp, laurent_mat_mul
from torsionpoly.laurent import (
    LaurentPoly,
    cauchy_root_radius,
    complex_roots,
    coprime,
    determinant,
    divmod_poly,
    exact_div,
    gcd,
    normalize,
    rank,
    rank_det_mod_p,
    reciprocal,
    smith_normal_form,
    value_mod_p,
)

P = 2**31 - 1

T = LaurentPoly.t()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def lp(*coeffs, start=0):
    return LaurentPoly.from_coeffs(coeffs, start)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.dictionaries(st.integers(-3, 3), small_fracs, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


# -- normalize ---------------------------------------------------------------

def test_normalize_strips_unit():
    p = lp(Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), start=-3)
    assert normalize(p) == lp(1, -1, 1)


def test_normalize_unit_to_one():
    assert normalize(LaurentPoly.term(-3, 5)) == ONE


def test_normalize_zero():
    assert normalize(ZERO) == ZERO


@given(polys)
def test_normalize_idempotent(p):
    assert normalize(normalize(p)) == normalize(p)


@given(nonzero_polys, st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
def test_normalize_kills_units(p, shift, r):
    assert normalize(p.shift(shift).scale(r)) == normalize(p)


# -- gcd ---------------------------------------------------------------------

def test_gcd_worked_example():
    p = T * T - T + ONE
    q = T * T * T + ONE
    g = gcd(p, q)
    assert g == p
    # oracle: divide back and check zero remainder both ways
    for f in (p, q):
        quo, rem = divmod_poly(f, g)
        assert not rem and quo * g == f


def test_gcd_with_zero():
    p = lp(2, -2, start=-1)
    assert gcd(p, ZERO) == normalize(p)
    assert gcd(ZERO, ZERO) == ZERO


def test_gcd_coprime_linears():
    assert gcd(T - ONE, T + ONE) == ONE


@given(polys, polys)
@settings(max_examples=60)
def test_gcd_commutative(p, q):
    assert gcd(p, q) == gcd(q, p)


@given(polys, polys, polys)
@settings(max_examples=40)
def test_gcd_associative_up_to_associates(p, q, r):
    assert gcd(gcd(p, q), r) == gcd(p, gcd(q, r))


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_divides_both(p, q):
    g = gcd(p, q)
    for f in (p, q):
        assert not divmod_poly(normalize(f), g)[1]


# -- determinant and rank ----------------------------------------------------

def test_det_1x1():
    p = T * T + ONE
    assert determinant([[p]]) == p


def test_det_2x2():
    assert determinant([[T, ONE], [ONE, T]]) == T * T - ONE


def test_det_units_diagonal():
    d = determinant([[LaurentPoly.term(1, 3), ZERO], [ZERO, LaurentPoly.constant(-2)]])
    assert d == LaurentPoly.term(-2, 3)


def _cofactor_det(m):
    n = len(m)
    if n == 0:
        return ONE
    if n == 1:
        return m[0][0]
    total = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_matches_cofactor_on_random_3x3():
    rng = random.Random(7)
    for _ in range(25):
        m = [
            [
                LaurentPoly(
                    {e: Fraction(rng.randint(-3, 3)) for e in range(rng.randint(-2, 0), rng.randint(0, 3))}
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        assert determinant(m) == _cofactor_det(m)


def test_det_multiplicative_on_block_triangular():
    rng = random.Random(17)
    for _ in range(10):
        def rand_poly():
            return LaurentPoly({e: Fraction(rng.randint(-2, 2)) for e in range(-1, 3)})

        a = [[rand_poly() for _ in range(2)] for _ in range(2)]
        c = [[rand_poly() for _ in range(2)] for _ in range(2)]
        b = [[rand_poly() for _ in range(2)] for _ in range(2)]
        block = [
            a[0] + b[0],
            a[1] + b[1],
            [ZERO, ZERO] + c[0],
            [ZERO, ZERO] + c[1],
        ]
        assert determinant(block) == determinant(a) * determinant(c)


def test_det_singular_only_after_elimination():
    # no zero row or column; the first Bareiss step leaves a zero pivot
    # column, so the pass finds fewer than 3 pivots and the determinant is 0
    m = [[ONE, T, ONE], [T, T * T, T], [ONE, ONE, T]]
    assert determinant(m) == ZERO


def test_rank_skips_zero_leading_column():
    assert rank([[ZERO, T, ONE], [ZERO, ONE, T]]) == 2


def test_rank_zero_matrix():
    assert rank([[ZERO, ZERO], [ZERO, ZERO]]) == 0
    assert rank([]) == 0


def test_rank_trefoil_row():
    p = ONE - T + T * T
    assert rank([[p, -p]]) == 1


def test_rank_diagonal():
    m = [
        [T, ZERO, ZERO],
        [ZERO, T - ONE, ZERO],
        [ZERO, ZERO, ZERO],
    ]
    assert rank(m) == 2


# -- Smith normal form -------------------------------------------------------

def _associate(p, q):
    return normalize(p) == normalize(q)


def test_snf_already_diagonal():
    a = (T - ONE) * (T - ONE)
    factors, _ = smith_normal_form([[T - ONE, ZERO], [ZERO, a]])
    assert factors == [T - ONE, a]


def test_snf_unit_entries():
    factors, _ = smith_normal_form([[T.scale(2), ZERO], [ZERO, LaurentPoly.constant(3)]])
    assert factors == [ONE, T]


def test_snf_keeps_factors_of_t():
    # Smith runs over Q[t], where t is not a unit: entries already in Q[t]
    # are not shifted down, so the factors keep their powers of t
    assert smith_normal_form([[T]])[0] == [T]
    factors, _ = smith_normal_form([[T, ZERO], [ZERO, T * T]])
    assert factors == [T, T * T]


def test_snf_zero_matrix():
    factors, _ = smith_normal_form([[ZERO, ZERO], [ZERO, ZERO]])
    assert factors == []


def _random_matrix(rng, nrows, ncols, degree=3):
    return [
        [
            LaurentPoly({e: Fraction(rng.randint(-2, 2)) for e in range(degree + 1)})
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def _minor_gcds(m, r):
    acc = ZERO
    for ri in itertools.combinations(range(len(m)), r):
        for ci in itertools.combinations(range(len(m[0])), r):
            acc = gcd(acc, determinant([[m[i][j] for j in ci] for i in ri]))
    return acc


def test_snf_certificate_and_minor_bridge():
    rng = random.Random(11)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, nrows, ncols)
        factors, (u, v) = smith_normal_form(m)
        # certificate: U*A*V diagonal with diagonal associate to the factors
        d = laurent_mat_mul(laurent_mat_mul(u, m), v)
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert not d[i][j]
                elif i < len(factors):
                    assert _associate(d[i][j], factors[i])
                else:
                    assert not d[i][j]
        assert determinant(u).is_unit() and determinant(v).is_unit()
        # divisibility chain in Q[t]
        for f, g in zip(factors, factors[1:]):
            assert not divmod_poly(g, f)[1]
        # determinantal divisors: product of first r factors ~ gcd of r-minors
        r = rank(m)
        assert len(factors) == r
        prod = ONE
        for i in range(r):
            prod = prod * factors[i]
            assert _associate(prod, _minor_gcds(m, i + 1))


# -- Cauchy radius and numeric roots ----------------------------------------

def test_cauchy_radius_examples():
    assert cauchy_root_radius(T * T - T.scale(3) + ONE) == 5
    assert cauchy_root_radius(LaurentPoly.term(1, 5)) == 1
    assert cauchy_root_radius(T * T - T + ONE) == 3


def test_cauchy_radius_rejects_zero():
    with pytest.raises(ValueError):
        cauchy_root_radius(ZERO)


def test_roots_quadratic_golden():
    p = T * T - T.scale(3) + ONE
    roots = complex_roots(p, 1e-10)
    assert len(roots) == 2
    vals = sorted(z.real for z, _ in roots)
    assert abs(vals[0] - 0.3819660112501051) < 1e-10
    assert abs(vals[1] - 2.618033988749895) < 1e-10
    for z, _ in roots:
        assert abs(eval_mp(p, z)) < 1e-9


def test_roots_unit_circle_pair():
    roots = complex_roots(T * T - T + ONE, 1e-10)
    assert len(roots) == 2
    for z, mult in roots:
        assert mult == 1
        assert abs(abs(z) - 1.0) < 1e-10


def test_roots_double_root():
    p = (T - ONE) * (T - ONE)
    roots = complex_roots(p, 1e-10)
    assert len(roots) == 1
    z, mult = roots[0]
    assert mult == 2
    assert abs(z - 1) < 1e-8


def test_roots_strips_t_powers():
    p = (T - ONE).shift(-4).scale(Fraction(1, 3))
    roots = complex_roots(p, 1e-10)
    assert len(roots) == 1 and abs(roots[0][0] - 1) < 1e-12


def test_roots_validates_inputs():
    with pytest.raises(ValueError):
        complex_roots(ZERO, 1e-10)
    with pytest.raises(ValueError):
        complex_roots(T, 1e-3)


@given(nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_roots_respect_cauchy_bound_and_degree(p):
    radius = cauchy_root_radius(p)
    roots = complex_roots(p, 1e-10)
    cs = p.dense()
    assert sum(m for _, m in roots) == len(cs) - 1
    for z, _ in roots:
        assert abs(z) <= float(radius) + 1e-10


def test_reciprocal_inverts_roots():
    p = T * T - T.scale(3) + ONE  # roots r, 1/r
    assert normalize(reciprocal(p)) == normalize(p)
    q = (T - LaurentPoly.constant(2)) * (T - LaurentPoly.constant(3))
    got = sorted(z.real for z, _ in complex_roots(reciprocal(q), 1e-10))
    assert abs(got[0] - 1 / 3) < 1e-10 and abs(got[1] - 1 / 2) < 1e-10


def test_exact_div_raises_on_inexact():
    with pytest.raises(ArithmeticError):
        exact_div(T + ONE, T - ONE)


# -- arithmetic mod p = 2^31 - 1 ----------------------------------------------


def test_coprime_never_misled_by_the_prime():
    h = lp(1, P)  # P t + 1 vanishes mod p, so h is invisible there
    assert not coprime([h, h * lp(3, 1)])
    assert coprime([lp(1, P), lp(2, P)])  # no leading coefficient is a unit mod p
    assert coprime([lp(1, 1), lp(1 + P, 1)])  # equal mod p, coprime over Q
    assert not coprime([lp(1, 1), lp(1, 1) * lp(-2, 0, 1), ZERO])
    assert coprime([lp(1, 1, start=-3), lp(2, 1, start=5)])
    assert coprime([lp(Fraction(1, 2), 1), lp(-1, 1)])


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(1, 10**12))
def test_value_mod_p_is_evaluation(p, a):
    a = a % P or 1
    expected = sum(c * Fraction(a) ** e for e, c in p.coeffs.items())
    assert value_mod_p(p, a) == expected.numerator * pow(expected.denominator, -1, P) % P


def test_rank_det_mod_p_matches_bareiss():
    rng = random.Random(5)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            m[-1] = [2 * x for x in m[0]]
        polys_m = [[LaurentPoly.constant(x) for x in row] for row in m]
        det = int(determinant(polys_m).coeffs.get(0, 0)) % P if nrows == ncols else 0
        assert rank_det_mod_p(m) == (rank(polys_m), det)
