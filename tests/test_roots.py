"""Numeric roots against sympy as an independent oracle, the exact residual
certificate, and the mpmath fallback of :func:`complex_roots`."""

import math
import random
from fractions import Fraction

import pytest

import torsionpoly.laurent as laurent_mod
from helpers import sympy_roots
from torsionpoly.laurent import LaurentPoly, RootFindingError, complex_roots

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


def test_polishing_settles_ill_conditioned_roots():
    # the roots of prod (t - k), k <= 20, move by up to 1e-2 under rounding
    # of the coefficients; exact Newton steps still land on the integers
    p = ONE
    for k in range(1, 21):
        p = p * (T - lp(k))
    roots = complex_roots(p, TOL)
    assert [z.real for z, _ in roots] == list(range(1, 21))
    assert all(abs(z.imag) < 1e-30 for z, _ in roots)


def test_reports_cluster_centroid_within_tol_sqrt():
    # distinct roots 1 and 1 + 1e-6 are closer than tol**0.5 = 1e-5
    p = (T - ONE) * (T - lp(Fraction(1000001, 1000000)))
    roots = complex_roots(p, TOL)
    assert len(roots) == 1 and roots[0][1] == 2
    assert abs(roots[0][0] - (1 + 5e-7)) < 1e-12
    assert certified(p, roots[0][0], TOL)


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
