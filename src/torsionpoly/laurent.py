"""Exact arithmetic and linear algebra over the ring Q[t, t^-1].

The ring of rational Laurent polynomials is a principal ideal domain whose
units are the monomials r*t^i (r a nonzero rational).  :class:`LaurentPoly`
holds ``Fraction`` coefficients, but the exact core computes on an integer
kernel: a polynomial is read once into a dense list of Python ints over a
common denominator, and division, gcd, normalization, Cauchy radii and the
Smith row steps run on such lists.  Division is one sparse pseudo-division
that visits only the divisor's nonzero coefficients, and the gcd is a
primitive polynomial remainder sequence over Z.  ``Fraction``s are built
only for the coefficients of a returned ``LaurentPoly``, so every result
equals that of plain rational arithmetic.

Only :func:`complex_roots` is inexact.  It splits the polynomial exactly
into square-free factors, locates the roots of each by the Aberth-Ehrlich
iteration in machine ``complex``, polishes every root by Newton steps
evaluated exactly, and certifies each reported value against a residual
bound in exact arithmetic.  Only when that fails does the same route run
in a private mpmath context at elevated precision; mpmath is imported
there and nowhere else.

Conventions
-----------
* The canonical associate produced by :func:`normalize` has lowest exponent
  0, coprime integer coefficients, and positive leading coefficient; units
  normalize to 1.
* Smith normal form invariant factors are reported monic in Q[t] (each
  divides the next there); they are only defined up to units anyway.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction


class RootFindingError(RuntimeError):
    """Raised when the simultaneous iteration fails to certify all roots."""


class InvariantViolation(AssertionError):
    """A proven invariant failed (a bug, not bad input); raised even under -O."""


class LaurentPoly:
    """A Laurent polynomial with exact rational coefficients.

    Stored sparsely as ``{exponent: coefficient}`` with no zero
    coefficients; the zero polynomial is the empty mapping.

    >>> t, one = LaurentPoly.t(), LaurentPoly.one()
    >>> (t - one) * (t + one) == t**2 - one
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: Fraction(1)})

    @classmethod
    def constant(cls, r) -> "LaurentPoly":
        return cls({0: Fraction(r)})

    @classmethod
    def term(cls, coeff, exp: int) -> "LaurentPoly":
        return cls({exp: Fraction(coeff)})

    @classmethod
    def t(cls) -> "LaurentPoly":
        return cls({1: Fraction(1)})

    @classmethod
    def from_coeffs(cls, seq, start: int = 0) -> "LaurentPoly":
        """Build from an ascending coefficient list starting at exponent ``start``."""
        return cls({start + i: Fraction(c) for i, c in enumerate(seq)})

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_unit(self) -> bool:
        """True iff this is r*t^i with r != 0."""
        return len(self.coeffs) == 1

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def span(self) -> int:
        """max_exp - min_exp; 0 for units and (by convention) for zero."""
        if not self.coeffs:
            return 0
        return self.max_exp - self.min_exp

    def dense(self) -> list[Fraction]:
        """Ascending coefficients after shifting the lowest exponent to 0.

        The zero polynomial yields ``[]``; otherwise the constant entry is
        nonzero by construction.
        """
        if not self.coeffs:
            return []
        lo, hi = self.min_exp, self.max_exp
        out = [Fraction(0)] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            out[e - lo] = c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        da, db = _common_den(self), _common_den(other)
        right = [(e, c.numerator * (db // c.denominator)) for e, c in other.coeffs.items()]
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            n1 = c1.numerator * (da // c1.denominator)
            for e2, n2 in right:
                e = e1 + e2
                out[e] = out.get(e, 0) + n1 * n2
        return _from_terms(out.items(), da * db)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only exist for units")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, r) -> "LaurentPoly":
        r = Fraction(r)
        return LaurentPoly({e: c * r for e, c in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def norm_l1(self) -> Fraction:
        """Sum of absolute values of the coefficients."""
        d = _common_den(self)
        return Fraction(sum(abs(c.numerator) * (d // c.denominator) for c in self.coeffs.values()), d)

    def eval_mp(self, z, ctx=None):
        """Evaluate at an mpmath (or complex) number via Horner; ``ctx``
        defaults to the global mpmath context."""
        if ctx is None:
            import mpmath

            ctx = mpmath.mp
        cs = self.dense()
        if not cs:
            return ctx.mpf(0)
        acc = ctx.mpf(0)
        for c in reversed(cs):
            acc = acc * z + ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
        return acc * z ** self.min_exp

    def __repr__(self) -> str:
        return f"LaurentPoly({self.display()})"

    def display(self, var: str = "t") -> str:
        """Human form in descending powers, e.g. ``t^2 - 3*t + 1``."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                pw = var if e == 1 else f"{var}^{e}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


# -- the integer kernel: normalization, division, gcd, root bounds ------------
# A polynomial is a dense ascending list of ints with no trailing zeros (the
# zero polynomial is []), read from a LaurentPoly over a common denominator.


def _common_den(*polys) -> int:
    """The least common multiple of the coefficient denominators."""
    d = 1
    for p in polys:
        for c in p.coeffs.values():
            if c.denominator != 1:
                d = math.lcm(d, c.denominator)
    return d


def _scaled_ints(p: LaurentPoly, d: int, lo: int) -> list[int]:
    """The integer coefficients of d * p, ascending from exponent lo <= p.min_exp."""
    if not p.coeffs:
        return []
    out = [0] * (max(p.coeffs) - lo + 1)
    for e, c in p.coeffs.items():
        out[e - lo] = c.numerator * (d // c.denominator)
    return out


def _int_form(p: LaurentPoly) -> list[int]:
    """The integer coefficients of p over its common denominator, ascending
    from p.min_exp; a positive rational multiple of ``p.dense()``."""
    return _scaled_ints(p, _common_den(p), p.min_exp) if p else []


def _from_terms(terms, d: int = 1) -> LaurentPoly:
    """The polynomial with coefficient c / d at exponent e for each pair
    (e, c) of ``terms``; every coefficient the kernel returns is built here."""
    if d == 1:
        return LaurentPoly({e: Fraction(c) for e, c in terms if c})
    return LaurentPoly({e: Fraction(c, d) for e, c in terms if c})


def _canonical(cs: list[int]) -> LaurentPoly:
    """The canonical associate of the nonzero integer polynomial cs."""
    lo = next(i for i, c in enumerate(cs) if c)
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return _from_terms(enumerate(c // g for c in cs[lo:]))


def _primitive(cs: list[int]) -> list[int]:
    """cs divided by the gcd of its coefficients."""
    g = math.gcd(*cs)
    return cs if g in (0, 1) else [c // g for c in cs]


def _pdivmod(num: list[int], den: list[int]) -> tuple[int, list[int], list[int]]:
    """Pseudo-division of integer polynomials: (s, q, r) with
    s * num == q * den + r, s > 0 and len(r) < len(den).

    Only the nonzero coefficients of ``den`` are visited.  A quotient term
    is exact when the leading coefficient divides the running coefficient;
    otherwise the running remainder, the quotient so far and s are first
    multiplied by the least factor that makes it divide.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    if len(num) <= dn:
        return 1, [], list(num)
    lead = den[-1]
    tail = [(i, c) for i, c in enumerate(den[:-1]) if c]
    rem = list(num)
    quo = [0] * (len(num) - dn)
    s = 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = rem[k]
        if not c:
            continue
        q, r = divmod(c, lead)
        if r:
            m = abs(lead) // math.gcd(c, lead)
            s *= m
            rem = [x * m for x in rem[:k]]
            quo = [x * m for x in quo]
            q = c * m // lead
        off = k - dn
        quo[off] = q
        for i, d in tail:
            rem[off + i] -= q * d
    rem = rem[:dn]
    while rem and not rem[-1]:
        rem.pop()
    return s, quo, rem


def normalize(p: LaurentPoly) -> LaurentPoly:
    """The canonical associate of ``p``.

    Lowest exponent 0, coprime integer coefficients, positive leading
    coefficient.  Associates normalize identically and units normalize to 1.
    """
    return _canonical(_int_form(p)) if p else LaurentPoly.zero()


def _divide(a: LaurentPoly, b: LaurentPoly, lo_a: int, lo_b: int):
    """(q, r, d) from one pseudo-division of the integer forms of a and b,
    read from exponents lo_a and lo_b: the quotient is q / d and the
    remainder r / d."""
    da, db = _common_den(a), _common_den(b)
    s, q, r = _pdivmod(_scaled_ints(a, da, lo_a), _scaled_ints(b, db, lo_b))
    return [c * db for c in q], r, s * da


def divmod_poly(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division with remainder in Q[t] (deg r < deg b).

    Both arguments must have nonnegative exponents.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if (a and a.min_exp < 0) or b.min_exp < 0:
        raise ValueError("polynomial division requires nonnegative exponents")
    q, r, d = _divide(a, b, 0, 0)
    return _from_terms(enumerate(q), d), _from_terms(enumerate(r), d)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a/b in Q[t, t^-1]; raises if b does not divide a."""
    if not a:
        return LaurentPoly.zero()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q, r, d = _divide(a, b, a.min_exp, b.min_exp)
    if r:
        raise ArithmeticError("inexact Laurent division")
    return _from_terms(enumerate(q, a.min_exp - b.min_exp), d)


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Normalized greatest common divisor in the PID Q[t, t^-1].

    ``gcd(p, 0) == normalize(p)`` and the result is the canonical associate.
    It is computed as a primitive polynomial remainder sequence over Z:
    each pseudo-remainder is divided by its content before the next step.
    """
    a, b = _primitive(_int_form(p)), _primitive(_int_form(q))
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[2])
    return _canonical(a) if a else LaurentPoly.zero()


def reciprocal(p: LaurentPoly) -> LaurentPoly:
    """The polynomial with reversed coefficients; its nonzero roots are the
    inverses of the nonzero roots of ``p``."""
    if not p:
        return LaurentPoly.zero()
    hi = p.max_exp
    return LaurentPoly({hi - e: c for e, c in p.coeffs.items()})


def cauchy_root_radius(p: LaurentPoly) -> Fraction:
    """Exact Cauchy-type root bound 1 + sum |b_i|.

    Here t^s + b_{s-1} t^{s-1} + ... + b_0 is the monic polynomial with the
    same nonzero roots as ``p``; every nonzero root z of ``p`` satisfies
    |z| <= the returned rational.  Units yield 1 (no nonzero roots).
    """
    if not p:
        raise ValueError("the zero polynomial has no root radius")
    cs = _int_form(p)
    lead = abs(cs[-1])
    return 1 + Fraction(sum(map(abs, cs)) - lead, lead)


# -- numeric roots: square-free split, Aberth, exact polishing ---------------


def _derivative(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly({e - 1: e * c for e, c in p.coeffs.items()})


_SQUAREFREE_PRIME = 2**31 - 1
_POLISH_STEPS = 8


def _squarefree_mod_p(q: list[int]) -> bool:
    """True if gcd(q mod p, q' mod p) is a unit for p = 2^31 - 1.

    Then q is square-free over Q: when p > deg q does not divide the
    leading coefficient, a repeated factor of q survives reduction mod p.
    """
    p = _SQUAREFREE_PRIME
    if len(q) > p or q[-1] % p == 0:
        return False
    a = [c % p for c in q]
    b = [i * c % p for i, c in enumerate(q)][1:]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            r = a[-1] * inv % p
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - r * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _squarefree_factors(q: list[int]) -> list[tuple[list[int], int]]:
    """Square-free decomposition of an integer polynomial q (ascending, with
    nonzero constant term): pairs (f_i, i) with q associate to the product
    of the f_i^i, each f_i primitive, square-free and of positive degree.

    Yun's algorithm over Q (Yun, SYMSAC 1976) runs only when the test mod
    p cannot rule out repeated factors.
    """
    if _squarefree_mod_p(q):
        return [(q, 1)]
    f = LaurentPoly.from_coeffs(q)
    a = gcd(f, _derivative(f))
    b = exact_div(f, a)
    d = exact_div(_derivative(f), a) - _derivative(b)
    out = []
    i = 1
    while b.span():
        a = gcd(b, d)
        if a.span():
            out.append(([int(c) for c in a.dense()], i))
        b = exact_div(b, a)
        d = exact_div(d, a) - _derivative(b)
        i += 1
    return out


class _Doubles:
    """Machine ``complex`` for :func:`_aberth`; an overflow raises."""

    @staticmethod
    def ratio(n: int, d: int) -> float:
        return n / d  # correctly rounded; OverflowError past the double range

    @staticmethod
    def polar(r, turns):
        return cmath.rect(r, 2 * math.pi * turns)

    @staticmethod
    def targets(deg: int):
        """(backward error, relative step) at which a root has converged:
        the rounding noise of Horner's rule, and a few units in the last place."""
        return 4 * deg * 2.0**-53, 2.0**-50

    finite = staticmethod(cmath.isfinite)


class _MpNumbers:
    """A private mpmath context at ``dps`` digits for :func:`_aberth`."""

    def __init__(self, dps: int):
        from mpmath.ctx_mp import MPContext  # only the fallback loads mpmath

        self.ctx = MPContext()
        self.ctx.dps = dps

    def ratio(self, n: int, d: int):
        return self.ctx.mpf(n) / self.ctx.mpf(d)

    def polar(self, r, turns):
        return r * self.ctx.expjpi(2 * turns)

    def targets(self, deg: int):
        dps = self.ctx.dps
        return self.ctx.mpf(10) ** (-(dps // 2)), self.ctx.mpf(10) ** (-(dps - 10))

    @staticmethod
    def finite(z) -> bool:
        return True


_DOUBLES = _Doubles()


def _horner(coeffs, z):
    """p(z), p'(z) and the rounding scale sum |c_k| |z|^k (coefficients
    ascending)."""
    p = dp = scale = 0
    r = abs(z)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
        scale = scale * r + abs(c)
    return p, dp, scale


def _aberth(numbers, f: list[int], seed: int) -> list:
    """Aberth-Ehrlich simultaneous iteration for the roots of the integer
    polynomial f, in the number context ``numbers``.

    Start points are seeded on a circle inside the Cauchy radius.  A root
    has converged, and stops moving, once |p(z)| / sum |c_k| |z|^k (its
    backward error) or its relative step is below the context's targets.
    Outside the unit disk p and p' are evaluated through the reversed
    polynomial at 1/z, so no power of |z| is formed.
    """
    deg = len(f) - 1
    cs = [numbers.ratio(c, f[-1]) for c in f]
    rev = cs[::-1]
    res_target, step_target = numbers.targets(deg)
    rng = random.Random(seed)
    radius = 1 + max(abs(c) for c in cs)
    offset = rng.uniform(0.1, 0.4)
    z = [numbers.polar(0.7 * radius, (k + offset) / deg) for k in range(deg)]
    moving = range(deg)
    for _ in range(600):
        still = []
        for k in moving:
            zk = z[k]
            if abs(zk) <= 1:
                pv, den, scale = _horner(cs, zk)
                num = pv
            else:
                y = 1 / zk
                pv, dq, scale = _horner(rev, y)  # p(z) / z^deg
                num, den = zk * pv, deg * pv - y * dq  # p'(z) / z^(deg-1) in den
            if pv == 0:
                continue
            try:
                w = num / den
                s = sum(1 / (zk - zj) for j, zj in enumerate(z) if j != k)
            except ZeroDivisionError:  # a critical point, or two iterates collided
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
    raise RootFindingError(
        f"Aberth iteration did not converge for {LaurentPoly.from_coeffs(f).display()}"
    )


def _dyadic(z: complex) -> tuple[int, int, int]:
    """(a, b, e) with z == (a + ib) / 2^e exactly."""
    (an, ad), (bn, bd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    e = max(ad, bd).bit_length() - 1
    return an << (e - ad.bit_length() + 1), bn << (e - bd.bit_length() + 1), e


def _scaled_horner(f: list[int], a: int, b: int, e: int):
    """Gaussian-integer Horner's rule at z = (a + ib) / 2^e.

    Returns 2^(e*d) f(z) and 2^(e*(d-1)) f'(z), d = deg f, as (re, im) pairs
    of integers, so no rounding happens.
    """
    gr, gi, hr, hi = f[-1], 0, 0, 0
    shift = 0
    for c in reversed(f[:-1]):
        shift += e
        hr, hi = hr * a - hi * b + gr, hr * b + hi * a + gi
        gr, gi = gr * a - gi * b + (c << shift), gr * b + gi * a
    return (gr, gi), (hr, hi)


def _newton_exact(f: list[int], z: complex) -> complex:
    """One Newton step z - f(z)/f'(z), evaluated exactly and rounded once
    to the nearest double in each component."""
    a, b, e = _dyadic(z)
    (gr, gi), (hr, hi) = _scaled_horner(f, a, b, e)
    if not (hr or hi):
        return z
    # z - f/f' = (Z*H - G) / (H * 2^e) with Z = a + ib
    nr, ni = a * hr - b * hi - gr, a * hi + b * hr - gi
    den = (hr * hr + hi * hi) << e
    return complex((nr * hr + ni * hi) / den, (ni * hr - nr * hi) / den)


def _polish(f: list[int], z: complex) -> complex:
    """Exact Newton steps from z until one moves it by at most a unit in the
    last place of |z|, which then holds the correctly rounded root.

    An iterate of the double stage settles in one step; an ill-conditioned
    root (such as those of prod (t - k), k <= 20) takes a few more.
    """
    for _ in range(_POLISH_STEPS):
        nxt = _newton_exact(f, z)
        settled = abs(nxt - z) <= 2.0**-52 * abs(nxt)
        z = nxt
        if settled:
            return z
    raise RootFindingError(
        f"exact Newton steps did not settle for {LaurentPoly.from_coeffs(f).display()}"
    )


def _certified(q: list[int], z: complex, tol: float) -> bool:
    """The residual certificate |q(z)| <= tol * ||q||_1 * max(1, |z|)^deg,
    squared and decided in integers; it is invariant under scaling q, so
    it holds for q exactly when it holds for the monic normalization."""
    a, b, e = _dyadic(z)
    (gr, gi), _ = _scaled_horner(q, a, b, e)
    t = Fraction(tol)
    norm1 = sum(abs(c) for c in q)
    return ((gr * gr + gi * gi) * t.denominator**2
            <= (t.numerator * norm1) ** 2 * max(1 << 2 * e, a * a + b * b) ** (len(q) - 1))


def _located_roots(numbers, p, q, factors, tol, seed):
    """The roots of p through one number context: Aberth per square-free
    factor, exact Newton polishing of each root, clustering at tol**0.5,
    and the exact residual certificate on every reported value."""
    found = []
    for f, mult in factors:
        polished = [_polish(f, complex(z)) for z in _aberth(numbers, f, seed)]
        if len(set(polished)) < len(polished):
            raise RootFindingError(f"two iterates reached the same root of {p.display()}")
        found += [(z, mult) for z in polished]
    out = _cluster(found, tol ** 0.5)
    for z, _ in out:
        if not _certified(q, z, tol):
            raise RootFindingError(f"root residual at {z} exceeds bound for {p.display()}")
    return out


def complex_roots(p: LaurentPoly, tol: float, seed: int = 0) -> list[tuple[complex, int]]:
    """All nonzero roots of ``p`` with multiplicities, sorted by (re, im).

    Factors of t and the rational content are stripped, and the primitive
    integer polynomial q is split exactly into square-free factors f_i of
    multiplicity i, so multiplicities come from algebra.  The roots of each
    f_i are located by the Aberth-Ehrlich iteration in machine ``complex``.
    A Newton step on f_i, evaluated exactly at the double iterate and
    rounded once to the nearest double, gives the reported value; it is
    repeated (at most 8 times) until a step moves the value by at most a
    unit in the last place, which takes one step unless the root is
    ill-conditioned.  Roots within tol**0.5 of each other are clustered (a
    cluster reports its centroid and summed multiplicity), and each
    reported value z is certified exactly against
    ``|phat(z)| <= tol * ||phat||_1 * max(1, |z|)^deg`` for the monic
    normalization phat.

    On a float overflow, non-convergence or a failed certificate the same
    route runs again in a private mpmath context at max(60, 2*deg + 30)
    digits; :class:`RootFindingError` is raised if that fails too.
    """
    if not p:
        raise ValueError("cannot extract roots of the zero polynomial")
    if not (0 < tol <= 1e-4):
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    q = [int(c) for c in normalize(p).dense()]
    deg = len(q) - 1
    if deg == 0:
        return []
    factors = _squarefree_factors(q)
    try:
        out = _located_roots(_DOUBLES, p, q, factors, tol, seed)
    except (OverflowError, RootFindingError):
        try:
            out = _located_roots(_MpNumbers(max(60, 2 * deg + 30)), p, q, factors, tol, seed)
        except OverflowError as exc:
            raise RootFindingError(f"a root of {p.display()} lies outside the double range") from exc
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _cluster(roots, radius):
    """Single-linkage clustering of (point, multiplicity) pairs; a cluster
    reports its weighted centroid and summed multiplicity."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i][0] - roots[j][0]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    out = []
    for members in groups.values():
        if len(members) == 1:
            out.append(members[0])
        else:
            mult = sum(m for _, m in members)
            out.append((sum(z * m for z, m in members) / mult, mult))
    return out


# -- matrices over Q[t, t^-1] ------------------------------------------------


def mat_identity(n: int) -> list[list[LaurentPoly]]:
    return [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
        for i in range(n)
    ]


def mat_mul(a: list[list[LaurentPoly]], b: list[list[LaurentPoly]]) -> list[list[LaurentPoly]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    out = []
    for row in a:
        out.append(
            [
                sum((row[k] * b[k][j] for k in range(len(b))), LaurentPoly.zero())
                for j in range(len(b[0]) if b else 0)
            ]
        )
    return out


def _global_shift(rows):
    """min(0, smallest exponent over all nonzero entries): the shift into
    Q[t] that leaves entries already there, and so factors of t, alone."""
    lo = 0
    for row in rows:
        for e in row:
            if e:
                lo = min(lo, e.min_exp)
    return lo


def _bareiss(rows, stop_at_missing_pivot: bool):
    """Fraction-free Bareiss elimination; returns (pivots, row-swap sign, lo).

    Negative exponents are cleared by the global t-power t^-lo first; every
    division performed during elimination is exact in Q[t].  A column with
    no pivot is skipped, or ends the pass if ``stop_at_missing_pivot``.
    """
    lo = _global_shift(rows)
    m = [[e.shift(-lo) for e in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    sign = 1
    prev = LaurentPoly.one()
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            if stop_at_missing_pivot:
                break
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = exact_div(m[i][j] * m[r][c] - m[i][c] * m[r][j], prev)
            m[i][c] = LaurentPoly.zero()
        prev = m[r][c]
        pivots.append(prev)
        if len(pivots) == nrows:
            break
    return pivots, sign, lo


def determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant: the last Bareiss pivot, or 0 at the first
    column without a pivot."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if n == 0:
        return LaurentPoly.one()
    pivots, sign, lo = _bareiss(rows, stop_at_missing_pivot=True)
    if len(pivots) < n:
        return LaurentPoly.zero()
    det = pivots[-1] if sign > 0 else -pivots[-1]
    return det.shift(lo * n)


def rank(rows: list[list[LaurentPoly]]) -> int:
    """Rank over the fraction field Q(t): the number of Bareiss pivots."""
    if not rows or not rows[0]:
        return 0
    return len(_bareiss(rows, stop_at_missing_pivot=False)[0])


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _row_ints(a, u, i):
    """Row i of ``a`` followed by row i of ``u`` as integer polynomials from
    exponent 0 over one common denominator d; returns (polynomials, d)."""
    row = a[i] + u[i]
    d = _common_den(*row)
    return [_scaled_ints(e, d, 0) for e in row], d


def _sub_mul(s: int, x: list[int], q: list[int], y: list[int]) -> list[int]:
    """The integer polynomial s * x - q * y."""
    out = [s * c for c in x]
    if q and y:
        out.extend([0] * (len(q) + len(y) - 1 - len(out)))
        ys = [(j, c) for j, c in enumerate(y) if c]
        for i, qc in enumerate(q):
            if qc:
                for j, c in ys:
                    out[i + j] -= qc * c
    while out and not out[-1]:
        out.pop()
    return out


def _reduce_row(a, u, i, k, pos=None):
    """One row step in ``a`` and ``u``: row_i <- s * row_i - q * row_k on the
    integer forms of both rows, over common denominators d_i and d_k.

    s * a_i = q * a_k + r is the pseudo-division of the integer forms of the
    entries at column ``pos``, so the step is Euclid's; without ``pos``,
    s = d_k and q = -d_i, which adds row k to row i.  Row i of both is then
    divided by the content of row i of ``a``, which tames coefficient swell.
    As s > 0, the result is that of the rational row step followed by the
    same division.
    """
    ri, di = _row_ints(a, u, i)
    rk, dk = _row_ints(a, u, k)
    if pos is None:
        s, q = dk, [-di]
    else:
        s, q, _ = _pdivmod(ri[pos], rk[pos])
    new = [_sub_mul(s, x, q, y) for x, y in zip(ri, rk)]
    n = len(a[i])
    g = math.gcd(*(c for cs in new[:n] for c in cs)) or s * di
    a[i] = [_from_terms(enumerate(cs), g) for cs in new[:n]]
    u[i] = [_from_terms(enumerate(cs), g) for cs in new[n:]]


def _clear_column(a, u, pos):
    """Euclidean row steps below the pivot a[pos][pos], mirrored on ``u``;
    True if a nonzero remainder (of smaller degree) became the pivot."""
    for i in range(pos + 1, len(a)):
        if a[i][pos]:
            _reduce_row(a, u, i, pos, pos)
            if a[i][pos]:
                a[pos], a[i] = a[i], a[pos]
                u[pos], u[i] = u[i], u[pos]
                return True
    return False


def smith_normal_form(
    rows: list[list[LaurentPoly]],
) -> tuple[list[LaurentPoly], tuple[list[list[LaurentPoly]], list[list[LaurentPoly]]]]:
    """Smith normal form over the PID Q[t] (after clearing t-denominators).

    Returns ``(factors, (U, V))`` where the invariant factors are monic with
    each dividing the next, and U * A * V is diagonal with i-th diagonal
    entry associate to ``factors[i]`` (U, V unimodular over Q[t, t^-1]).
    The product of the first r factors is associate to the GCD of the
    r-rowed minors for every r up to the rank.

    Column operations on A and V are carried out as row operations on
    their transposes, so one reduction step serves both sides.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    u = mat_identity(nrows)
    if nrows == 0 or ncols == 0:
        return [], (u, mat_identity(ncols))
    vt = mat_identity(ncols)
    lo = _global_shift(rows)
    a = [[e.shift(-lo) for e in row] for row in rows]

    d = min(nrows, ncols)
    for pos in range(d):
        # pivot of least degree in the remaining block
        best = None
        for i in range(pos, nrows):
            for j in range(pos, ncols):
                if a[i][j] and (best is None or a[i][j].max_exp < a[best[0]][best[1]].max_exp):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[pos], a[i] = a[i], a[pos]
        u[pos], u[i] = u[i], u[pos]
        at = _transpose(a)
        at[pos], at[j] = at[j], at[pos]
        vt[pos], vt[j] = vt[j], vt[pos]
        a = _transpose(at)
        while True:
            if _clear_column(a, u, pos):
                continue
            at = _transpose(a)
            dirty = _clear_column(at, vt, pos)
            a = _transpose(at)
            if dirty:
                continue
            # pivot now divides its row and column exactly; enforce that it
            # divides the rest of the block, else absorb the offending row
            offender = None
            for i in range(pos + 1, nrows):
                for j in range(pos + 1, ncols):
                    if a[i][j]:
                        _, r = divmod_poly(a[i][j], a[pos][pos])
                        if r:
                            offender = i
                            break
                if offender is not None:
                    break
            if offender is None:
                break
            _reduce_row(a, u, pos, offender)

    factors = []
    for pos in range(d):
        piv = a[pos][pos]
        if not piv:
            break
        lead = piv.coeffs[piv.max_exp]
        scale = LaurentPoly.constant(1 / lead)
        a[pos] = [scale * e for e in a[pos]]
        u[pos] = [scale * e for e in u[pos]]
        factors.append(a[pos][pos])
    return factors, (u, _transpose(vt))
