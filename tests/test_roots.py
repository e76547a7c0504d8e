"""Numeric roots against sympy as an independent oracle, the exact
cyclotomic split, the residual certificate in doubles and in integers,
distinct roots reported apart however close, the mpmath fallback of
:func:`complex_roots`, and its kernels: closed-form roots of unity against
mpmath, fixed-point Newton steps against exact ones, Newton-polygon start
points, real and imaginary-axis roots proved by a sign change, one polish
and certificate per conjugate pair, the Aberth sweep against its plain
reference, and a guard on the largest full report the degree budget
admits."""

import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionpoly.laurent as laurent_mod
from helpers import horner_with_scale, reference_aberth, sympy_roots
from torsionpoly.laurent import LaurentPoly, RootFindingError, complex_roots
from torsionpoly.presentation import parse_presentation
from torsionpoly.torsion import annulus_certify

T = LaurentPoly.t()
ONE = LaurentPoly.one()
TOL = 1e-10


def lp(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


def certified(p, z, tol):
    """|phat(z)| <= tol * ||phat||_1 * max(1, |z|)^deg for the monic phat,
    squared and decided in exact rationals at the returned double z."""
    cs = p.dense()
    monic = [c / cs[-1] for c in cs]
    zr, zi = Fraction(z.real), Fraction(z.imag)
    vr = vi = Fraction(0)
    for c in reversed(monic):
        vr, vi = vr * zr - vi * zi + c, vr * zi + vi * zr
    norm1 = sum(abs(c) for c in monic)
    return vr * vr + vi * vi <= (Fraction(tol) * norm1) ** 2 * max(1, zr * zr + zi * zi) ** (len(cs) - 1)


def match_oracle(p, roots):
    """Pair every returned root with a distinct oracle root; multiplicities
    must agree and each root lie within 1e-12 * max(1, |z|) of its match."""
    ref = [(complex(r), m) for r, m in sympy_roots(p)]
    assert sum(m for _, m in roots) == sum(m for _, m in ref) == len(p.dense()) - 1
    for z, mult in roots:
        i = min(range(len(ref)), key=lambda i: abs(ref[i][0] - z))
        w, m = ref.pop(i)
        assert abs(w - z) <= 1e-12 * max(1.0, abs(z)), (p.display(), z, w)
        assert mult == m, (p.display(), z, mult, m)
    assert not ref


def cleaned(roots):
    """Roots with components below 1e-15 * max(1, |z|) set to 0."""
    def clean(x, z):
        return x if abs(x) >= 1e-15 * max(1.0, abs(z)) else 0.0
    return [(complex(clean(z.real, z), clean(z.imag, z)), m) for z, m in roots]


def random_case(rng):
    """A random integer polynomial of degree <= 20, usually with a planted
    repeated factor."""
    deg = rng.randint(1, 12)
    base = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
    base[0] = base[0] or 1
    p = LaurentPoly.from_coeffs(base)
    if rng.random() < 0.7:
        planted = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]
        planted[0] = planted[0] or 1
        p = p * LaurentPoly.from_coeffs(planted) ** rng.randint(2, 3)
    return p


def test_random_polys_match_sympy():
    rng = random.Random(20260101)
    repeated = 0
    for _ in range(60):
        p = random_case(rng)
        assert p.span() <= 20
        roots = complex_roots(p, TOL)
        match_oracle(p, roots)
        assert all(certified(p, z, TOL) for z, _ in roots)
        repeated += any(m > 1 for _, m in roots)
    assert repeated >= 20


def test_multiplicities_pinned():
    p = (T - ONE) ** 3 * lp(1, -1, 1) ** 2 * (T + lp(2))
    roots = dict((z, m) for z, m in complex_roots(p, TOL))
    omega = complex(0.5, math.sqrt(3) / 2)
    assert roots == {complex(1, 0): 3, omega: 2, omega.conjugate(): 2, complex(-2, 0): 1}
    one = next(z for z in roots if z.real == 1.0)
    assert one.imag == 0.0


def spy_mp(monkeypatch):
    """Count the mpmath contexts that complex_roots creates."""
    made = []
    real = laurent_mod._MpNumbers

    def spy(dps):
        made.append(dps)
        return real(dps)

    monkeypatch.setattr(laurent_mod, "_MpNumbers", spy)
    return made


def test_double_stage_needs_no_fallback(monkeypatch):
    made = spy_mp(monkeypatch)
    complex_roots((T - ONE) ** 2 * lp(1, -3, 1) * lp(-7, 0, 0, 0, 0, 1), TOL)
    assert made == []


def test_fallback_on_double_overflow(monkeypatch):
    # coefficient 10^310 is past the double range; the roots +-10^155 are not
    p = T * T - lp(10**310)
    made = spy_mp(monkeypatch)
    roots = complex_roots(p, TOL)
    assert made == [60]
    assert [m for _, m in roots] == [1, 1]
    assert [z.real for z, _ in roots] == [-1e155, 1e155]
    assert all(certified(p, z, TOL) for z, _ in roots)


def collapsed(real, only=None):
    """An _aberth that moves every iterate onto the first one (in the
    number context ``only``, or in every context)."""
    def run(numbers, f, seed):
        z = real(numbers, f, seed)
        return [z[0]] * len(z) if only in (None, numbers) else z
    return run


def test_fallback_on_perturbed_double_stage(monkeypatch):
    p = lp(1, -3, 1) * (T - ONE) ** 2 * lp(5, 1, 0, 1)
    expected = complex_roots(p, TOL)
    monkeypatch.setattr(laurent_mod, "_aberth",
                        collapsed(laurent_mod._aberth, only=laurent_mod._DOUBLES))
    made = spy_mp(monkeypatch)
    roots = complex_roots(p, TOL)
    assert made == [60]
    assert cleaned(roots) == cleaned(expected)
    assert all(certified(p, z, TOL) for z, _ in roots)
    match_oracle(p, roots)


def test_raises_when_iterates_collapse(monkeypatch):
    monkeypatch.setattr(laurent_mod, "_aberth", collapsed(laurent_mod._aberth))
    with pytest.raises(RootFindingError, match="same root"):
        complex_roots(lp(1, -3, 1), TOL)


def test_raises_when_no_stage_certifies(monkeypatch):
    monkeypatch.setattr(laurent_mod, "_polish", lambda f, z: z + 1e-3)
    made = spy_mp(monkeypatch)
    with pytest.raises(RootFindingError, match="exceeds bound"):
        complex_roots(lp(1, -3, 1), TOL)
    assert made == [60]


def test_polishing_settles_ill_conditioned_roots(monkeypatch):
    # the roots of prod (t - k), k <= 20, move by up to 1e-2 under rounding
    # of the coefficients; Newton steps from the double stage do not settle
    # on them, and the mpmath stage at 2 * 19 + 30 digits (t - 1 is split off
    # as Phi_1) lands on the integers
    p = ONE
    for k in range(1, 21):
        p = p * (T - lp(k))
    made = spy_mp(monkeypatch)
    roots = complex_roots(p, TOL)
    assert made == [68]
    assert [z.real for z, _ in roots] == list(range(1, 21))
    assert all(abs(z.imag) < 1e-30 for z, _ in roots)
    match_oracle(p, roots)


def test_fallback_decides_a_mignotte_polynomial(monkeypatch):
    # t^20 - 2(10t - 1)^2 has two real roots 1.4e-11 apart next to 1/10,
    # which Newton steps from the double stage do not settle on
    p = T**20 - lp(2) * lp(-1, 10) ** 2
    made = spy_mp(monkeypatch)
    roots = complex_roots(p, TOL)
    assert made == [70]
    match_oracle(p, roots)


def test_fallback_decides_a_close_rational_pair(monkeypatch):
    # the roots 1 - 10^-8 and 10^8 / (10^8 + 1) lie 1e-16 apart, about an ulp
    p = lp(-10**8 + 1, 10**8) * lp(-10**8, 10**8 + 1)
    made = spy_mp(monkeypatch)
    roots = complex_roots(p, TOL)
    assert made == [60]
    match_oracle(p, roots)


def test_reports_distinct_close_roots_apart():
    # multiplicities come from the exact square-free split only, so roots
    # closer than any numeric radius are still two roots of multiplicity 1
    p = (T - ONE) * (T - lp(Fraction(1000001, 1000000)))
    assert complex_roots(p, TOL) == [(1 + 0j, 1), (1.000001 + 0j, 1)]
    p = lp(-999, 1000) * lp(-1000, 1001)
    roots = complex_roots(p, TOL)
    assert roots == [(0.999 + 0j, 1), (0.999000999000999 + 0j, 1)]
    match_oracle(p, roots)


def test_imaginary_axis_roots_do_not_depend_on_the_seed():
    # f(iy) = A(y) + iB(y); a sign change of gcd(A, B) proves each root
    # purely imaginary, so its real part is +0.0 and the order is fixed
    for p in (T * T + lp(2), T**4 + lp(3) * T * T + ONE):
        roots = complex_roots(p, TOL, 0)
        for seed in range(1, 6):
            assert complex_roots(p, TOL, seed) == roots
        assert all(math.copysign(1.0, z.real) == 1.0 and z.real == 0.0 for z, _ in roots)
        assert [z.imag for z, _ in roots] == sorted(z.imag for z, _ in roots)
        match_oracle(p, roots)


def test_degree_60_planted_square_runs_yun():
    # a random degree-60 polynomial with a squared factor: the mod-p test
    # sees the repeated factor, so Yun's gcds over the integer kernel run
    rng = random.Random(60)
    def rand(deg):
        cs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.choice([2, 3, -5])]
        cs[0] = cs[0] or 1
        return LaurentPoly.from_coeffs(cs)
    f, g = rand(15), rand(30)
    p = f * f * g
    q = [int(c) for c in p.dense()]
    assert p.span() == 60 and not laurent_mod._squarefree_mod_p(q)
    assert [m for _, m in laurent_mod._squarefree_factors(q)] == [1, 2]
    roots = complex_roots(p, TOL)
    match_oracle(p, roots)
    assert sorted(m for _, m in roots) == [1] * 30 + [2] * 15


def test_certificate_is_a_backward_error_bound():
    # t^2 - 10^200 has roots +-1e100; far points must not pass however large
    # the coefficients are, while the roots and the double nearest sqrt(2) do
    q = [-10**200, 0, 1]
    assert not laurent_mod._certified(q, 7e99 + 0j, TOL)
    assert not laurent_mod._certified(q, 3.5e199 + 0j, TOL)
    assert laurent_mod._certified(q, 1e100 + 0j, TOL)
    assert laurent_mod._certified(q, -1e100 + 0j, TOL)
    assert laurent_mod._certified([-2, 0, 1], complex(math.sqrt(2)), TOL)
    assert not laurent_mod._certified([-2, 0, 1], complex(math.sqrt(2) * (1 + 1e-9)), TOL)


# -- exact cyclotomic split ---------------------------------------------------

LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def ints(p):
    return [int(c) for c in p.dense()]


def sympy_split(q):
    """(Counter of (n, m), rest) for the integer polynomial q (ascending), from
    sympy's factorization over Z and ``Poly.is_cyclotomic``."""
    x = sympy.Symbol("x")
    content, factors = sympy.Poly(list(reversed(q)), x).factor_list()
    found, rest = Counter(), sympy.Poly(content, x)
    for f, m in factors:
        if f.is_cyclotomic:
            n = next(n for n in itertools.count(1) if sympy.Poly(sympy.cyclotomic_poly(n, x), x) == f)
            found[n, m] += 1
        else:
            rest *= f ** m
    return found, [int(c) for c in reversed(rest.all_coeffs())]


def test_cyclotomic_split_matches_sympy(monkeypatch):
    rng = random.Random(7)
    for _ in range(40):
        p = LaurentPoly.from_coeffs([rng.randint(-4, 4) or 1 for _ in range(rng.randint(1, 7))]
                                    + [rng.choice([1, 2, -3])])
        for n in rng.sample(range(1, 31), rng.randint(1, 4)):
            p = p * LaurentPoly.from_coeffs(laurent_mod._cyclotomic(n)) ** rng.randint(1, 3)
        q = [int(c) for c in laurent_mod.normalize(p).dense()]
        found, rest = laurent_mod._cyclotomic_split(q)
        assert (Counter(found), rest) == sympy_split(q), p.display()
    # the Delta of T(7, 15), Phi_21 Phi_35 Phi_105, times Lehmer's polynomial
    # and Phi_12^2: degree 102, and most divisions are packed (sympy takes
    # 60-90 s to factor a torus Delta of degree 420)
    p = lp(*LEHMER) * lp(*laurent_mod._cyclotomic(12)) ** 2
    for n in (21, 35, 105):
        p = p * lp(*laurent_mod._cyclotomic(n))
    divisions, sparse = [], []
    real_quotient, real_sparse = laurent_mod._exact_quotient, laurent_mod._pdivmod
    monkeypatch.setattr(laurent_mod, "_exact_quotient",
                        lambda a, b: divisions.append(1) or real_quotient(a, b))
    monkeypatch.setattr(laurent_mod, "_pdivmod", lambda a, b: sparse.append(1) or real_sparse(a, b))
    found, rest = laurent_mod._cyclotomic_split(ints(p))
    assert (Counter(found), rest) == sympy_split(ints(p))
    assert found == [(12, 2), (21, 1), (35, 1), (105, 1)] and rest == LEHMER
    assert len(sparse) <= len(divisions) - 5


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 121):
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(laurent_mod._cyclotomic(n)) == [int(c) for c in reversed(ref)]


def test_salem_factors_stay_in_rest():
    # Lehmer's polynomial and t^4 - t^3 - t^2 - t + 1 are self-reciprocal with
    # roots on the unit circle, but no root of unity among them
    salem = [1, -1, -1, -1, 1]
    for q in (LEHMER, salem, [1, -3, 1]):
        assert laurent_mod._cyclotomic_split(q) == ([], q)
    p = lp(*LEHMER) * lp(*salem) * lp(*laurent_mod._cyclotomic(7)) * lp(*laurent_mod._cyclotomic(12)) ** 2
    found, rest = laurent_mod._cyclotomic_split(ints(p))
    assert found == [(7, 1), (12, 2)]
    assert rest == ints(lp(*LEHMER) * lp(*salem))
    match_oracle(p, complex_roots(p, TOL))


def test_exact_division_alone_decides_the_split(monkeypatch):
    # with the filter accepting every n, only zero remainders strip; the last
    # case vanishes at 2, through the stevedore knot's 2t^2 - 5t + 2
    cases = [lp(*LEHMER) * (T**12 - ONE), (T**30 - ONE) * (T - ONE) ** 2 * lp(5, 1, 0, 1),
             lp(1, -3, 1) * lp(-2, 0, 1), T**7 - ONE, lp(2, -5, 2) * (T**15 - ONE) * (T + ONE)]
    expected = [(laurent_mod._cyclotomic_split(ints(p)), complex_roots(p, TOL)) for p in cases]
    monkeypatch.setattr(laurent_mod, "_may_divide", lambda rest, v, n, at_2: True)
    for p, (split, roots) in zip(cases, expected):
        assert laurent_mod._cyclotomic_split(ints(p)) == split
        assert complex_roots(p, TOL) == roots


def phi_table(bound):
    return {entry[0]: entry for entry in laurent_mod._phi_at_most(bound)}


def test_phi_at_2_filter_agrees_with_exact_division():
    # at degree 300 the filter accepts each planted Phi_n, n <= 75, and rules
    # out every n whose division fails but n = 3, where 7 = Phi_3(2) happens
    # to divide r(2); the split's exact division rejects that n
    rng = random.Random(11)
    r = [1] + [rng.randint(-3, 3) for _ in range(299)] + [1]
    table, by_chance = phi_table(512), []
    for n in range(1, 76):
        phi_n = list(laurent_mod._cyclotomic(n))
        at_2 = laurent_mod._cyclotomic_at_2(table[n])
        q = laurent_mod._convolve(r, phi_n)
        for f in (q, r):
            divides = not laurent_mod._pdivmod(f, phi_n)[2]
            assert divides == (f is q), n
            accepted = laurent_mod._may_divide(f, laurent_mod._value_at_2(f), n, at_2)
            assert accepted or not divides, n
            if accepted and not divides:
                by_chance.append(n)
        assert laurent_mod._cyclotomic_split(q) == ([(n, 1)], r), n
    assert by_chance == [3] and laurent_mod._value_at_2(r) % 7 == 0


def test_cyclotomic_values_at_2_match_sympy():
    x = sympy.Symbol("x")
    table = phi_table(512)
    for n in range(1, 301):
        assert laurent_mod._cyclotomic_at_2(table[n]) == sympy.cyclotomic_poly(n, x).subs(x, 2), n


def divisions_in_split(monkeypatch, q):
    """The (num, n) of each exact division the split of q runs."""
    by_den = {laurent_mod._cyclotomic(n): n for n, phi, _ in laurent_mod._phi_at_most(len(q))
              if phi < len(q)}
    seen, real = [], laurent_mod._exact_quotient
    with monkeypatch.context() as m:
        m.setattr(laurent_mod, "_exact_quotient",
                  lambda num, den: seen.append((list(num), by_den[tuple(den)])) or real(num, den))
        laurent_mod._cyclotomic_split(q)
    return seen


def value_at_2_off_root_2(q):
    """q(2) once the factors t - 2 of q are divided out."""
    while not sum(c << i for i, c in enumerate(q)):
        q = laurent_mod._pdivmod(q, [-2, 1])[1]
    return sum(c << i for i, c in enumerate(q))


def test_exact_quotient_runs_only_where_the_filter_accepts(monkeypatch):
    # every division the split runs is one that Phi_n(2) | rest(2), rest(1) = 0
    # or rest(-1) = 0 allows, each checked here from the dividend itself, and
    # at most one division fails per Phi_n stripped; with (2t^2 - 5t + 2)^2,
    # rest(2) = 0, so the filter reads rest / (t - 2)^2 at 2
    rng = random.Random(5)
    cases = [ints(lp(*LEHMER) * lp(*laurent_mod._cyclotomic(12)) ** 2 * (T**15 - ONE)),
             ints(lp(2, -5, 2) ** 2 * (T**30 - ONE) * lp(*LEHMER))]
    for _ in range(12):
        p = LaurentPoly.from_coeffs([rng.randint(-4, 4) or 1 for _ in range(rng.randint(2, 9))])
        for n in rng.sample(range(1, 41), 3):
            p = p * lp(*laurent_mod._cyclotomic(n)) ** rng.randint(1, 2)
        cases.append(ints(laurent_mod.normalize(p)))
    for q in cases:
        seen = divisions_in_split(monkeypatch, q)
        stripped = sum(m for _, m in laurent_mod._cyclotomic_split(q)[0])
        assert 4 <= stripped <= len(seen) <= 2 * stripped
        for num, n in seen:
            if n > 2:
                phi_2 = sum(c << i for i, c in enumerate(laurent_mod._cyclotomic(n)))
                assert laurent_mod._value_at_2(num) == value_at_2_off_root_2(num)
                assert value_at_2_off_root_2(num) % phi_2 == 0, n
            else:
                assert sum(c * (-1) ** (i * (n - 1)) for i, c in enumerate(num)) == 0, n


def test_phi_1_and_phi_2_are_decided_exactly(monkeypatch):
    # Phi_1(2) = 1 divides every rest(2), so n = 1 and n = 2 are decided by
    # rest(1) and rest(-1): divided exactly when those vanish, never otherwise
    stevedore = [2, -5, 2]  # vanishes at 2
    for q, found in [(ints(lp(-1, 1) ** 3 * lp(1, -3, 1)), [(1, 3)]),
                     (ints(lp(1, 1) ** 2 * lp(*stevedore)), [(2, 2)]),
                     (ints(lp(-1, 1) * lp(1, 1) ** 3 * lp(*LEHMER)), [(1, 1), (2, 3)]),
                     (stevedore, []), (LEHMER, []), ([1, -3, 1], [])]:
        split = laurent_mod._cyclotomic_split(q)
        assert split[0] == found and Counter(split[0]) == sympy_split(q)[0], q
        divided = [n for _, n in divisions_in_split(monkeypatch, q)]
        for n in (1, 2):
            assert divided.count(n) == dict(found).get(n, 0), (q, n)


def test_unit_roots_are_the_correctly_rounded_roots_of_unity():
    for n in (1, 2, 3, 4, 5, 8, 12, 30, 97):
        roots = laurent_mod._unit_roots(n)
        assert len(roots) == len(laurent_mod._cyclotomic(n)) - 1
        for z in roots:
            k = round(cmath.phase(z) * n / (2 * math.pi)) % n
            with mpmath.workdps(40):
                exact = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            assert math.gcd(k, n) == 1
            assert z == complex(float(exact.real), float(exact.imag))


# -- the certificate in doubles ---------------------------------------------


def exact_certified(q, z, tol, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(laurent_mod, "_certified_in_doubles", lambda q, z, tol: False)
        return laurent_mod._certified(q, z, tol)


def test_double_certificate_accepts_only_what_the_exact_one_does(monkeypatch):
    # random points, the roots, and points where |q(z)| is f * tol * S to
    # first order (S = sum |c_k| |z|^k), f in [1/2, 2] or in [1/16, 1/2]
    rng = random.Random(11)
    accepted, decided = 0, Counter()
    for _ in range(60):
        q = [rng.randint(-50, 50) for _ in range(rng.randint(1, 25))] + [rng.randint(1, 9)]
        q[0] = q[0] or 1
        tol = rng.choice([1e-10, 1e-7, 1e-4])
        roots = [r for r, _ in complex_roots(LaurentPoly.from_coeffs(q), 1e-10)]
        points = roots + [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        near = []
        for r in roots:
            _, slope, scale = horner_with_scale(q, r)
            for f in (rng.uniform(0.5, 2), rng.uniform(1 / 16, 1 / 2)):
                near.append(r + cmath.rect(f * tol * scale / abs(slope), rng.uniform(0, 2 * math.pi)))
        for z in points + near:
            exact = exact_certified(q, z, tol, monkeypatch)
            if laurent_mod._certified_in_doubles(q, z, tol):
                accepted += 1
                assert exact, (q, z, tol)
            if z in near:
                decided[exact] += 1
    assert accepted > 1000 and decided[True] > 800 and decided[False] > 400


def test_large_coefficients_take_the_exact_path():
    q = [-10**200, 0, 1]
    assert not laurent_mod._certified_in_doubles(q, 1e100 + 0j, TOL)
    assert laurent_mod._certified(q, 1e100 + 0j, TOL)
    assert not laurent_mod._certified(q, 7e99 + 0j, TOL)
    # past the degree the rounding bound allows at this tol, doubles decline too
    assert not laurent_mod._certified_in_doubles([1] * 20 + [-1], 1 + 0j, 1e-15)
    assert laurent_mod._certified_in_doubles([-2, 0, 1], complex(math.sqrt(2)), TOL)


# -- cost guard ---------------------------------------------------------------


def test_high_degree_cyclotomic_inputs_are_fast():
    start = time.perf_counter()
    roots = complex_roots(T**420 - ONE, TOL)
    assert time.perf_counter() - start < 5
    assert len(roots) == 420 and all(m == 1 for _, m in roots)
    pres = parse_presentation("gens: x, y\nrel: x^13 y^-30\n")
    start = time.perf_counter()
    rep = annulus_certify(pres, (30, 13))
    assert time.perf_counter() - start < 5
    assert rep.verdict == "pass" and sum(m for _, m in rep.roots) == 348


# -- closed-form roots of unity -------------------------------------------------


def mpmath_unit_roots(n):
    """The list ``_unit_roots(n)`` should return, from mpmath's cos and sin
    of pi x at 170 bits (51 digits), each rounded to the nearest double: for
    each k < n/2 prime to n, e^(2 pi i k/n) and its conjugate."""
    if n <= 2:
        return [complex(1 if n == 1 else -1)]
    out, prec, nearest = [], 170, mpmath.libmp.round_nearest
    for k in range(1, (n + 1) // 2):
        if math.gcd(k, n) == 1:
            c, s = mpmath.libmp.mpf_cos_sin_pi(mpmath.libmp.from_rational(2 * k, n, prec), prec)
            z = complex(mpmath.libmp.to_float(c, rnd=nearest), mpmath.libmp.to_float(s, rnd=nearest))
            out += [z, z.conjugate()]
    return out


def test_closed_form_unit_roots_match_mpmath():
    for n in itertools.chain(range(1, 2001), (6480, 9900, 19740)):
        assert laurent_mod._unit_roots(n) == mpmath_unit_roots(n), n


def test_ambiguous_rounding_falls_back_to_exact_polish(monkeypatch):
    ns = list(range(1, 40)) + [97, 360]
    expected = {n: laurent_mod._unit_roots(n) for n in ns}
    polished = []
    real = laurent_mod._polish

    def spy(f, z):
        polished.append(z)
        return real(f, z)

    monkeypatch.setattr(laurent_mod, "_polish", spy)
    monkeypatch.setattr(laurent_mod, "_UNIT_ROOT_SLACK", 1 << laurent_mod._FIX)
    for n in ns:
        assert laurent_mod._unit_roots(n) == expected[n], n
    # every root but +-1 and +-i now goes through the polish, once per conjugate pair
    assert len(polished) == sum(len(expected[n]) // 2 for n in ns if n not in (1, 2, 4))


def test_proven_roots_of_unity_are_not_recertified(monkeypatch):
    calls = []
    real = laurent_mod._certified

    def spy(q, z, tol):
        calls.append(z)
        return real(q, z, tol)

    monkeypatch.setattr(laurent_mod, "_certified", spy)
    roots = complex_roots(T**60 - ONE, TOL)
    assert len(roots) == 60 and calls == []
    # beside a root of unity, only the Aberth root is certified, and once
    p = (T - ONE) * (T - lp(Fraction(1000001, 1000000)))
    roots = complex_roots(p, TOL)
    assert calls == [1.000001 + 0j] and roots == [(1 + 0j, 1), (1.000001 + 0j, 1)]


# -- fixed-point Newton steps ---------------------------------------------------


def test_fixed_point_newton_step_is_the_exact_one():
    # near roots and off them, with 100-bit coefficients or small ones: a
    # decided fixed-point step is the exact step, bit for bit
    rng = random.Random(13)
    decided = undecided = 0
    for trial in range(60):
        deg = rng.randint(1, 40)
        big = 10**30 if trial % 3 == 0 else 3
        f = [rng.randint(-big, big) for _ in range(deg)] + [rng.choice([1, 2, -7])]
        f[0] = f[0] or 1
        for r in laurent_mod._aberth(laurent_mod._DOUBLES, f, trial):
            for z in (r, r * (1 + 1e-7j), complex(rng.uniform(-3, 3), rng.uniform(-3, 3))):
                step = laurent_mod._newton_fixed(f, z)
                if step is None:
                    undecided += 1
                else:
                    decided += 1
                    assert repr(step) == repr(laurent_mod._newton_exact(f, z)), (f, z)
            # the noise on a real root is left to the exact step; a real point is not
            assert laurent_mod._newton_fixed(f, complex(r.real, r.real * 1e-20)) is None
            step = laurent_mod._newton_fixed(f, complex(r.real))
            assert step is None or repr(step) == repr(laurent_mod._newton_exact(f, complex(r.real)))
    assert decided > 4 * undecided


def test_undecided_fixed_point_steps_fall_back_to_exact_ones(monkeypatch):
    p = generic_poly(60, 7) * lp(-2, 0, 1) * (T - lp(3)) ** 2
    expected = complex_roots(p, TOL)
    exact, fixed, polishes = [], [], []
    real_exact, real_polish = laurent_mod._newton_exact, laurent_mod._polish

    def exact_spy(f, z):
        exact.append(z)
        return real_exact(f, z)

    def polish_spy(f, z):
        before = len(fixed), len(exact)
        out = real_polish(f, z)
        polishes.append((len(f), len(fixed) - before[0], len(exact) - before[1]))
        return out

    monkeypatch.setattr(laurent_mod, "_newton_exact", exact_spy)
    monkeypatch.setattr(laurent_mod, "_newton_fixed", lambda f, z: fixed.append(z))
    monkeypatch.setattr(laurent_mod, "_polish", polish_spy)
    assert complex_roots(p, TOL) == expected
    # every polish stepped exactly, and past _FIXED_STEP_LENGTH coefficients
    # each of its steps was first tried in fixed point and fell back
    assert polishes and all(steps >= 1 for _, _, steps in polishes)
    long = [(tried, steps) for n, tried, steps in polishes if n > laurent_mod._FIXED_STEP_LENGTH]
    assert long and all(tried == steps for tried, steps in long)


# -- Newton-polygon starts ------------------------------------------------------


def start_radii(f):
    return Counter(round(abs(z), 12) for z in laurent_mod._starts(laurent_mod._DOUBLES, f, 0))


def test_starts_lie_on_the_newton_polygon_radii():
    # t^2 - 7t + 1: hull (0, 0), (1, log 7), (2, 0); its roots are 0.146 and 6.85
    assert start_radii([1, -7, 1]) == Counter({round(1 / 7, 12): 1, 7.0: 1})
    # t^5 + 1000 t^3 + 1: edges 0 -> 3 and 3 -> 5, so 3 points at 0.1 and 2 at sqrt(1000)
    assert start_radii([1, 0, 0, 1000, 0, 1]) == Counter({0.1: 3, round(1000**0.5, 12): 2})
    # collinear points are dropped from the hull: t^4 + 2 t^2 + 4 is one edge of radius sqrt(2)
    assert start_radii([4, 0, 2, 0, 1]) == Counter({round(2**0.5, 12): 4})


def generic_poly(deg, seed):
    """An integer polynomial with coefficients drawn from +-1, +-2 and end coefficients 1."""
    rng = random.Random(seed)
    return LaurentPoly.from_coeffs([1] + [rng.choice([1, -1, 2, -2]) for _ in range(deg - 1)] + [1])


class CountingDoubles(laurent_mod._Doubles):
    """Machine ``complex`` that counts the Aberth updates it checks."""

    def __init__(self):
        self.steps = 0

    def finite(self, z):
        self.steps += 1
        return cmath.isfinite(z)


def test_newton_polygon_starts_cut_the_aberth_sweeps(monkeypatch):
    # one circle at 0.7 times the Cauchy radius took about 64 sweeps at degree 200
    for seed in (3, 4, 5):
        counting = CountingDoubles()
        monkeypatch.setattr(laurent_mod, "_DOUBLES", counting)
        roots = complex_roots(generic_poly(200, seed), TOL)
        assert sum(m for _, m in roots) == 200
        assert 0 < counting.steps < 64 * 200, seed


# -- real roots ------------------------------------------------------------------


def test_real_roots_are_real_only_where_a_sign_change_proves_it():
    r2 = math.sqrt(2)
    assert laurent_mod._polished([-2, 0, 1], complex(r2, 1e-30)) == complex(r2)
    # 10^40 (t - 1)^2 + 1 has no real root: no sign change at 1, so the pair stays complex
    f = [10**40 + 1, -2 * 10**40, 10**40]
    assert laurent_mod._polished(f, complex(1, 1e-20)) == complex(1, 1e-20)
    for seed in range(6):
        roots = complex_roots(lp(1, -4, 1) * lp(-2, 0, 0, 1), TOL, seed)
        assert sum(z.imag == 0 for z, _ in roots) == 3, seed


# -- one polish per conjugate pair, and the lean Aberth sweep -------------------


def polished_or_unsettled(f, z):
    try:
        return laurent_mod._polished(f, z)
    except RootFindingError:
        return None


@st.composite
def polys_and_points(draw, lengths):
    """An integer polynomial with a given range of coefficient counts, and a
    point at one of its Aberth iterates, moved by a small relative step."""
    n = draw(st.integers(*lengths))
    f = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    f[0], f[-1] = f[0] or 1, f[-1] or 1
    iterates = laurent_mod._aberth(laurent_mod._DOUBLES, f, 0)
    z = complex(iterates[draw(st.integers(0, len(iterates) - 1))])
    step = draw(st.sampled_from([0, 1e-14, 1e-9, 1e-5]))
    return f, z * complex(1 + step, draw(st.sampled_from([0, step, -step])))


@pytest.mark.parametrize("lengths", [(2, laurent_mod._FIXED_STEP_LENGTH),
                                     (laurent_mod._FIXED_STEP_LENGTH + 1, 45)],
                         ids=["exact-steps", "fixed-point-steps"])
def test_polish_commutes_with_conjugation(lengths):
    @settings(max_examples=40, deadline=None)
    @given(polys_and_points(lengths))
    def check(case):
        f, z = case
        up, down = polished_or_unsettled(f, z), polished_or_unsettled(f, z.conjugate())
        assert down == (None if up is None else up.conjugate()), (f, z)

    check()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=12), st.booleans(),
       st.sampled_from([0, 1e-13, 1e-10, 1e-7]), st.sampled_from([1e-10, 1e-7, 1e-4]), st.data())
def test_certificate_commutes_with_conjugation(q, wide, step, tol, data):
    # a wide q has coefficients past 2^53, which only the exact branch takes
    q[0], q[-1] = q[0] or 1, q[-1] or 1
    if wide:
        q = [c << 60 for c in q]
    roots = [z for z, _ in complex_roots(LaurentPoly.from_coeffs(q), TOL)]
    z = data.draw(st.sampled_from(roots)) * complex(1 + step, step)
    assert laurent_mod._certified(q, z.conjugate(), tol) == laurent_mod._certified(q, z, tol)
    if wide:
        assert not laurent_mod._certified_in_doubles(q, z, tol)


def seeded_polys(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        deg = rng.randint(2, 60)
        f = [rng.randint(-20, 20) for _ in range(deg)] + [rng.choice([1, 2, -3])]
        f[0] = f[0] or 1
        out.append(f)
    return out


def test_aberth_iterates_match_the_reference_sweep():
    # the inline Horner's rule, the skipped scale sums and the list pair sum
    # leave every iterate bit for bit where the plain sweep puts it
    for i, f in enumerate(seeded_polys(40, 2024)):
        got = laurent_mod._aberth(laurent_mod._DOUBLES, f, i)
        assert [repr(z) for z in got] == [repr(z) for z in reference_aberth(laurent_mod._DOUBLES, f, i)]
    for deg in (2, 5, 13, 31, 60):
        rng = random.Random(deg)
        f = [rng.randint(-20, 20) or 1 for _ in range(deg)] + [1]
        got = laurent_mod._aberth(laurent_mod._MpNumbers(60), f, deg)
        assert got == reference_aberth(laurent_mod._MpNumbers(60), f, deg), deg


def test_one_polish_per_conjugate_pair(monkeypatch):
    # the roots reported are those of polishing every Aberth iterate, while
    # polishing runs once per real root and once per conjugate pair
    calls = []
    real = laurent_mod._polished
    monkeypatch.setattr(laurent_mod, "_polished", lambda f, z: calls.append(z) or real(f, z))
    for i, f in enumerate(seeded_polys(30, 7)):
        assert laurent_mod._squarefree_mod_p(f)
        every = sorted((real(f, complex(z)) for z in laurent_mod._aberth(laurent_mod._DOUBLES, f, i)),
                       key=lambda z: (z.real, z.imag))
        calls.clear()
        roots = laurent_mod._located_roots(laurent_mod._DOUBLES, LaurentPoly.from_coeffs(f), f,
                                           [(f, 1)], TOL, i)
        assert sorted((z for z, _ in roots), key=lambda z: (z.real, z.imag)) == every
        assert len(calls) == sum(z.imag >= 0 for z in every) <= len(f) - 1
        assert sum(z.imag > 0 for z in every) == sum(z.imag < 0 for z in every)


def test_near_real_clusters_are_polished_from_both_iterates(monkeypatch):
    # two real roots 1.4e-32 apart next to 1/100 share one double; from the
    # mpmath stage's two iterates the polish lands on 0.01 - 1.1e-27i and
    # 0.01 + 5.6e-28i, not a conjugate pair, so neither may be mirrored
    p = T**30 - lp(2) * lp(-1, 100) ** 2 * lp(1, 1, 1)
    made = spy_mp(monkeypatch)
    roots = [z for z, _ in complex_roots(p, TOL)]
    assert made == [90]
    f = list(laurent_mod.normalize(p).ints)
    every = sorted((laurent_mod._polished(f, complex(z))
                    for z in laurent_mod._aberth(laurent_mod._MpNumbers(90), f, 0)),
                   key=lambda z: (z.real, z.imag))
    assert roots == every
    assert [z for z in roots if abs(z - 0.01) < 1e-20] == [0.01 - 1.1267229584780643e-27j,
                                                          0.01 + 5.633614792390304e-28j]


# -- hang guard ------------------------------------------------------------------

_FULL_REPORT = "import sys; from torsionpoly.cli import main; sys.exit(main(sys.argv[1:]))"


def test_largest_admitted_full_report_finishes():
    # T(140,141) has degree 19,460, the largest torus knot DEGREE_BUDGET admits
    src = os.path.dirname(os.path.dirname(os.path.abspath(laurent_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FULL_REPORT, "torsion", "--pres", "-",
                           "--psi", "141,140", "--json"], input="gens: x, y\nrel: x^140 y^-141\n",
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "pass"
    assert sum(r["mult"] for r in doc["roots"]) == len(doc["delta"]["coeffs"]) - 1 == 19460
    assert all(r["modulus"] == "1" for r in doc["roots"])
