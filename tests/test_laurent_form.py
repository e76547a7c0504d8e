"""The stored form of LaurentPoly: (lo, ints, den), canonical after every
operation, against reference arithmetic on {exponent: Fraction} dicts; and
the exact quotient of its integer kernel on both of its routes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionpoly.laurent as laurent_mod
from helpers import (
    ref_add, ref_exact_div, ref_mul, ref_reciprocal, ref_scale, ref_shift,
)
from torsionpoly.laurent import LaurentPoly, _convolve, _exact_quotient, exact_div, reciprocal

T = LaurentPoly.t()
ONE = LaurentPoly.one()

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
terms = st.dictionaries(st.integers(-4, 4), st.one_of(small_fracs, st.integers(-4, 4)), max_size=5)
OPS = ("+", "-", "*", "scale", "shift", "exact_div", "reciprocal", "drop_lowest", "drop_highest")
steps = st.lists(st.tuples(st.sampled_from(OPS), terms, small_fracs, st.integers(-5, 5)),
                 max_size=6)


def assert_canonical(p):
    assert type(p.ints) is tuple and all(type(c) is int for c in p.ints)
    if not p.ints:
        assert (p.lo, p.ints, p.den) == (0, (), 1)
        return
    assert p.ints[0] and p.ints[-1]
    assert p.den > 0 and math.gcd(p.den, *p.ints) == 1


def assert_same(p, ref):
    """p is canonical, has the reference coefficients, and compares and
    hashes equal to the polynomial rebuilt from its own view and from ref."""
    assert_canonical(p)
    assert p.coeffs == ref
    for again in (LaurentPoly(p.coeffs), LaurentPoly(ref)):
        assert again == p and hash(again) == hash(p)
        assert (again.lo, again.ints, again.den) == (p.lo, p.ints, p.den)


def apply(op, p, ref, q, qref, r, k):
    if op == "+":
        return p + q, ref_add(ref, qref)
    if op == "-":
        return p - q, ref_add(ref, ref_scale(qref, -1))
    if op == "*":
        return p * q, ref_mul(ref, qref)
    if op == "scale":
        return p.scale(r), ref_scale(ref, r)
    if op == "shift":
        return p.shift(k), ref_shift(ref, k)
    if op == "reciprocal":
        return reciprocal(p), ref_reciprocal(ref)
    if op.startswith("drop"):  # cancel an end term, which the form must strip
        if not p:
            return p, ref
        e = p.lo if op == "drop_lowest" else p.lo + len(p.ints) - 1
        c = Fraction(p.ints[e - p.lo], p.den)
        return p - LaurentPoly.term(c, e), ref_add(ref, {e: -ref[e]})
    if not q:  # exact_div needs a nonzero divisor: divide p * t^k back by t^k
        q, qref = T ** abs(k), {abs(k): Fraction(1)}
    return exact_div(p * q, q), ref_exact_div(ref_mul(ref, qref), qref)


@settings(max_examples=300, deadline=None)
@given(terms, steps)
def test_form_stays_canonical_and_matches_reference(start, chain):
    p, ref = LaurentPoly(start), ref_add({}, start)
    assert_same(p, ref)
    for op, qterms, r, k in chain:
        p, ref = apply(op, p, ref, LaurentPoly(qterms), ref_add({}, qterms), r, k)
        assert_same(p, ref)


@settings(max_examples=200, deadline=None)
@given(terms)
def test_every_route_builds_the_same_fields(start):
    p = LaurentPoly(start)
    dense = LaurentPoly.from_coeffs(p.dense(), p.min_exp) if p else LaurentPoly.zero()
    summed = sum((LaurentPoly.term(c, e) for e, c in start.items()), LaurentPoly.zero())
    den = math.lcm(*(Fraction(c).denominator for c in start.values()))
    scaled = LaurentPoly({e: Fraction(c) * den for e, c in start.items()}).scale(Fraction(1, den))
    twice_reversed = reciprocal(reciprocal(p)).shift(p.lo)
    for other in (dense, summed, scaled, -(-p), p.shift(3).shift(-3), twice_reversed):
        assert other == p and hash(other) == hash(p)


def test_half_of_t_plus_one_has_one_form():
    half = Fraction(1, 2)
    routes = [
        (T + ONE).scale(half),
        LaurentPoly({0: half, 1: half}),
        LaurentPoly({0: Fraction(2, 4), 1: Fraction(3, 6)}),
        LaurentPoly.from_coeffs([half, half]),
        T.scale(half) + ONE.scale(half),
        exact_div((T * T - ONE).scale(half), T - ONE),
    ]
    for p in routes:
        assert (p.lo, p.ints, p.den) == (0, (1, 1), 2)
        assert p == routes[0] and hash(p) == hash(routes[0])
    assert len(set(routes)) == 1


def test_exponents_are_read_as_integers():
    for build in (lambda: LaurentPoly({1.5: 1}), lambda: LaurentPoly({Fraction(1, 2): 3}),
                  lambda: LaurentPoly.term(1, 2.5), lambda: T.shift(0.5)):
        with pytest.raises(ValueError, match="expected an integer exponent"):
            build()
    # an integral float or Fraction is its int, so the form stays canonical
    for e in (2.0, Fraction(2)):
        for p in (LaurentPoly({e: 1}), LaurentPoly.term(1, e), T.shift(e - 1)):
            assert (p.lo, p.ints, p.den) == (2, (1,), 1) and type(p.lo) is int
            assert p == T * T and p.display() == "t^2"


def test_zero_has_one_form():
    zeros = [LaurentPoly(), LaurentPoly({3: 0}), T - T, T.scale(0), (T - T).shift(5),
             LaurentPoly.from_coeffs([0, 0]), reciprocal(LaurentPoly.zero())]
    for z in zeros:
        assert (z.lo, z.ints, z.den) == (0, (), 1)
        assert z == LaurentPoly.zero() and hash(z) == hash(LaurentPoly.zero())


# -- the exact quotient: packed at 2^k past the crossover, else sparse ---------

MAGNITUDES = (1, 3, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**70)
int_polys = st.builds(
    lambda cs, w: [c * w for c in cs[:-1]] + [(cs[-1] or 1) * w],
    st.lists(st.integers(-3, 3), min_size=1, max_size=48),
    st.sampled_from(MAGNITUDES[:5]),
)


def packed(num, den):
    """Whether _exact_quotient(num, den) tries the packed route first."""
    nq, nnz = len(num) - len(den) + 1, len(den) - list(den).count(0)
    return nq * nnz >= laurent_mod._PACKED_MIN_STEPS


def laurent(ints, den=1, lo=0):
    return LaurentPoly({lo + i: Fraction(c, den) for i, c in enumerate(ints)})


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys, st.integers(1, 9), st.integers(-6, 6), st.integers(1, 5))
def test_products_divide_back_on_both_routes(q, den, d, lo, scale):
    num = _convolve(q, den)
    assert _exact_quotient(num, den) == q
    a, b = laurent(q, d, lo), laurent(den, scale, -lo)
    if len(q) * len(den) <= 400:
        assert exact_div(a * b, b).coeffs == ref_exact_div(ref_mul(a.coeffs, b.coeffs), b.coeffs)
    assert exact_div(a * b, b) == a


@settings(max_examples=150, deadline=None)
@given(int_polys, int_polys, st.lists(st.integers(-5, 5), min_size=1, max_size=47),
       st.integers(-6, 6))
def test_inexact_divisions_raise_on_both_routes(q, den, r, lo):
    den[0] = den[0] or 1  # a factor t of den would be a unit in Q[t, t^-1]
    r = r[:len(den) - 1]
    if not any(r):  # r must be nonzero and of lower degree than den
        return
    num = _convolve(q, den)
    num[:len(r)] = [x + y for x, y in zip(num, r)]
    assert _exact_quotient(num, den) is None
    b = laurent(den, 1, lo)
    with pytest.raises(ArithmeticError):
        ref_exact_div(laurent(num, 1, lo + 3).coeffs, b.coeffs)
    with pytest.raises(ArithmeticError):
        exact_div(laurent(num, 1, lo + 3), b)


def _spy_sparse(monkeypatch):
    calls = []
    real = laurent_mod._pdivmod
    monkeypatch.setattr(laurent_mod, "_pdivmod", lambda a, b: calls.append(1) or real(a, b))
    return calls


@pytest.mark.parametrize("width", MAGNITUDES)
def test_slot_boundaries(monkeypatch, width):
    # num = q * (t + 1) has coefficients exactly +-width; past 2^63 - 1 no
    # slot holds num or proves q, so the sparse loop divides
    q = [0] * 80
    q[0], q[3], q[40], q[-1] = width, -width, width, -width
    den = [1, 1]
    num = _convolve(q, den)
    assert max(map(abs, num)) == width and packed(num, den)
    calls = _spy_sparse(monkeypatch)
    assert _exact_quotient(num, den) == q
    bad = num[:]
    bad[1] += 1
    assert _exact_quotient(bad, den) is None
    assert len(calls) == (2 if width >= 2**63 - 1 else 0)


def test_wide_divisor_and_quotient_digits_take_wider_slots(monkeypatch):
    calls = _spy_sparse(monkeypatch)
    den = [2**40, -3, 2**40 + 1] * 20
    q = [(-1) ** i * (i + 2**12) for i in range(30)]
    assert _exact_quotient(_convolve(q, den), den) == q
    q = [(-1) ** i * 2**61 for i in range(30)]  # digits past what ||den||_1 allows at 64 bits
    assert _exact_quotient(_convolve(q, den), den) == q
    assert len(calls) == 1


def test_non_primitive_and_negative_divisors():
    big = laurent([3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9, -7, 9, 3] * 3)
    two_t_plus_two = laurent([2, 2])
    cases = [
        (big, two_t_plus_two * big),
        (big.scale(Fraction(5, 3)).shift(-7), -(two_t_plus_two * big).shift(4)),
        (laurent([1, 1] * 40, 6, -2), laurent([-2, 0, -4, 6] * 5, 3, 5)),
        (big * big, big.scale(-2)),
    ]
    for a, b in cases:
        assert exact_div(a * b, b) == a
        assert exact_div(a * b, a) == b
        assert exact_div(a * b, b).coeffs == ref_exact_div(ref_mul(a.coeffs, b.coeffs), b.coeffs)
        with pytest.raises(ArithmeticError):
            exact_div(a * b + LaurentPoly.term(1, (a * b).lo + 1), b)


def _values_divide_at_2_16():
    # num = (t + 1) g + e with e(-1) = 65537 = 2^16 + 1: at 2^16 the packed
    # values divide, yet t + 1 does not divide num; the digits of the packed
    # quotient are too wide to prove a quotient at 16 bits, and at 32 bits
    # the remainder is nonzero
    g = [(-1) ** i * (i % 7) for i in range(90)] + [1]
    num = _convolve(g, [1, 1])
    num[:5] = [x + y for x, y in zip(num, [21846, 0, 21846, 0, 21845])]
    return num, [1, 1]


def _bound_at_the_slot_edge():
    # den = -(1 + t), so ||den||_1 = 2, q has digits -2^14 and num reaches
    # the slot edge -2^15: num = q * den - (2^16 t^5 - t^6), so at 2^16 the
    # packed values divide and one coefficient of q * den - num is exactly
    # 2^16; only a strict bound rejects q
    q = [1] * 70
    q[4] = q[5] = -(2**14)
    num = _convolve(q, [-1, -1])
    assert num[5] == 2**15 and _exact_quotient(num, [-1, -1]) == q
    num[5] -= 2**16
    num[6] += 1
    assert max(map(abs, num)) == 2**15
    return num, [-1, -1]


@pytest.mark.parametrize("case", [_values_divide_at_2_16, _bound_at_the_slot_edge])
def test_packed_values_that_divide_do_not_prove_a_quotient(case):
    num, den = case()
    value = sum(c << 16 * i for i, c in enumerate(num))
    assert value % sum(c << 16 * i for i, c in enumerate(den)) == 0 and packed(num, den)
    assert sum(c * (-1) ** i for i, c in enumerate(num)) == 2**16 + 1  # num(-1): den does not divide num
    assert _exact_quotient(num, den) is None
    with pytest.raises(ArithmeticError):
        exact_div(laurent(num), laurent(den))
    with pytest.raises(ArithmeticError):
        ref_exact_div(laurent(num).coeffs, laurent(den).coeffs)
