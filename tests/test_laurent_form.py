"""The stored form of LaurentPoly: (lo, ints, den), canonical after every
operation, against reference arithmetic on {exponent: Fraction} dicts."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ref_add, ref_exact_div, ref_mul, ref_reciprocal, ref_scale, ref_shift,
)
from torsionpoly.laurent import LaurentPoly, exact_div, reciprocal

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


def test_zero_has_one_form():
    zeros = [LaurentPoly(), LaurentPoly({3: 0}), T - T, T.scale(0), (T - T).shift(5),
             LaurentPoly.from_coeffs([0, 0]), reciprocal(LaurentPoly.zero())]
    for z in zeros:
        assert (z.lo, z.ints, z.den) == (0, (), 1)
        assert z == LaurentPoly.zero() and hash(z) == hash(LaurentPoly.zero())
