"""Exact arithmetic and linear algebra over the ring Q[t, t^-1].

The ring of rational Laurent polynomials is a principal ideal domain whose
units are the monomials r*t^i (r a nonzero rational).  A
:class:`LaurentPoly` stores the form the integer kernel computes on: a
lowest exponent, a dense tuple of Python ints and one positive common
denominator (the layout of FLINT's ``fmpq_poly``).  Arithmetic, division,
gcd, normalization, Cauchy radii, evaluation mod p, the Bareiss pass and
the Smith row steps all read and build that form, so no ``Fraction`` is
made per coefficient and every result equals that of plain rational
arithmetic.  An exact quotient (:func:`exact_div`, each Bareiss pivot
division, the division by Phi_n) is found by Kronecker substitution: both
operands packed as their values at 2^k, one integer division, and the
quotient's digits proved by a coefficient bound, as no nonzero polynomial
with coefficients below 2^k vanishes at 2^k.  Small divisions, and
operands too wide for 64-bit slots, go to one sparse
pseudo-division that visits only the divisor's nonzero coefficients, which
also gives the remainders of the gcd, a primitive polynomial remainder
sequence over Z.  :func:`determinant` and :func:`rank` run one
Bareiss pass.  :class:`Minors` reads every minor of size the rank off one
fraction-free Gauss-Jordan pass, by Cramer's rule and Sylvester's
identity, and below full row rank off a second one, through the rank-one
compound.
:func:`roots_in_annulus` decides that every nonzero root lies in
[1/c, c] in integers too, by the Schur-Cohn recursion and Cohn's theorem.

Only :func:`complex_roots` is inexact.  It strips cyclotomic factors by
exact division and reports their roots of unity in closed form (a
fixed-point sine and cosine, correctly rounded), splits the rest exactly
into square-free factors whose roots the Aberth-Ehrlich iteration locates
in machine ``complex`` from start points on the Newton polygon, polishes
such roots by Newton steps that round as the exact step does (in fixed
point where its error bound decides, else exactly), reports a root as
real where a sign change proves it, and certifies them against a
backward-error bound, in doubles where a rounding-error bound proves it,
else exactly.  Each conjugate pair is polished and certified once: the
conjugate of a certified root of a real polynomial is certified.
Multiplicities come from the exact split alone,
so each root is reported once and distinct roots are never merged.  Only
when locating or certifying fails does the rest run in a private mpmath
context; mpmath is imported there only.

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
import functools
import math
from fractions import Fraction


class RootFindingError(RuntimeError):
    """Raised when the simultaneous iteration fails to certify all roots."""


class InvariantViolation(AssertionError):
    """A proven invariant failed (a bug, not bad input); raised even under -O."""


_set = object.__setattr__


def _integer(x, what: str) -> int:
    """x as an exact int: an integral float or Fraction is its int, else ValueError."""
    if type(x) is int:
        return x
    r = Fraction(x)
    if r.denominator != 1:
        raise ValueError(f"expected an integer {what}, got {x}")
    return r.numerator


class LaurentPoly:
    """A Laurent polynomial with exact rational coefficients.

    Stored as ``lo``, a tuple ``ints`` and a positive ``den``: the
    coefficient of t^(lo+i) is ints[i] / den.  The form is canonical, so
    equal polynomials have equal fields: the first and last entries of
    ``ints`` are nonzero, gcd(den, *ints) == 1, and zero is (0, (), 1).
    ``coeffs`` and :meth:`dense` are computed ``Fraction`` views.

    >>> t, one = LaurentPoly.t(), LaurentPoly.one()
    >>> (t - one) * (t + one) == t**2 - one
    True
    >>> half = (t + one).scale(Fraction(1, 2))
    >>> half.lo, half.ints, half.den
    (0, (1, 1), 2)
    """

    __slots__ = ("lo", "ints", "den")

    def __new__(cls, coeffs=None):
        """The polynomial sum c * t^e over the pairs (e, c) of ``coeffs``."""
        terms = {_integer(e, "exponent"): c if type(c) in (int, Fraction) else Fraction(c)
                 for e, c in (coeffs or {}).items() if c}
        if not terms:
            return _poly(())
        den, lo = math.lcm(*(c.denominator for c in terms.values())), min(terms)
        ints = [0] * (max(terms) - lo + 1)
        for e, c in terms.items():
            ints[e - lo] = c.numerator * (den // c.denominator)
        return _poly(ints, den, lo)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _poly(())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _poly((1,))

    @classmethod
    def constant(cls, r) -> "LaurentPoly":
        return cls.term(r, 0)

    @classmethod
    def term(cls, coeff, exp: int) -> "LaurentPoly":
        r = coeff if isinstance(coeff, int) else Fraction(coeff)
        return _poly((r.numerator,), r.denominator, _integer(exp, "exponent"))

    @classmethod
    def t(cls) -> "LaurentPoly":
        return _poly((1,), 1, 1)

    @classmethod
    def from_coeffs(cls, seq, start: int = 0) -> "LaurentPoly":
        """Build from an ascending coefficient list starting at exponent ``start``."""
        return cls(dict(enumerate(seq, start)))

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.ints)

    def is_unit(self) -> bool:
        """True iff this is r*t^i with r != 0."""
        return len(self.ints) == 1

    @property
    def min_exp(self) -> int:
        if not self.ints:
            raise ValueError("zero polynomial has no exponents")
        return self.lo

    @property
    def max_exp(self) -> int:
        if not self.ints:
            raise ValueError("zero polynomial has no exponents")
        return self.lo + len(self.ints) - 1

    def span(self) -> int:
        """max_exp - min_exp; 0 for units and (by convention) for zero."""
        return max(len(self.ints) - 1, 0)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The nonzero coefficients as ``{exponent: Fraction}``."""
        return {self.lo + i: Fraction(c, self.den) for i, c in enumerate(self.ints) if c}

    def dense(self) -> list[Fraction]:
        """Ascending coefficients after shifting the lowest exponent to 0.

        The zero polynomial yields ``[]``; otherwise the constant entry is
        nonzero by construction.
        """
        return [Fraction(c, self.den) for c in self.ints]

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.lo == other.lo
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.lo, self.ints, self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.ints:
            return self
        if not self.ints:
            return other
        den = math.lcm(self.den, other.den)
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(self.ints), other.lo + len(other.ints)) - lo)
        for p in (self, other):
            f, off = den // p.den, p.lo - lo
            for i, c in enumerate(p.ints, off):
                out[i] += c * f
        return _poly(out, den, lo)

    def __neg__(self) -> "LaurentPoly":
        return _poly(tuple(-c for c in self.ints), self.den, self.lo)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _poly(_convolve(self.ints, other.ints), self.den * other.den, self.lo + other.lo)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only exist for units")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, r) -> "LaurentPoly":
        r = Fraction(r)
        return _poly([c * r.numerator for c in self.ints], self.den * r.denominator, self.lo)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        return _poly(self.ints, self.den, self.lo + _integer(k, "exponent"))

    def norm_l1(self) -> Fraction:
        """Sum of absolute values of the coefficients."""
        return Fraction(sum(map(abs, self.ints)), self.den)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.display()})"

    def display(self) -> str:
        """Human form in descending powers, e.g. ``t^2 - 3*t + 1``."""
        if not self.ints:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                pw = "t" if e == 1 else f"t^{e}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def _poly(ints, den: int = 1, lo: int = 0) -> LaurentPoly:
    """The canonical form of sum ints[i] / den * t^(lo+i), for den > 0;
    every LaurentPoly is built here."""
    hi = len(ints)
    while hi and not ints[hi - 1]:
        hi -= 1
    start = 0
    while start < hi and not ints[start]:
        start += 1
    ints = tuple(ints[start:hi])
    if not ints:
        lo, den = 0, 1
    elif den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            ints, den = tuple(c // g for c in ints), den // g
    p = object.__new__(LaurentPoly)
    _set(p, "lo", lo + start)
    _set(p, "ints", ints)
    _set(p, "den", den)
    return p


# -- the integer kernel: normalization, division, gcd, root bounds ------------
# A polynomial is a dense ascending sequence of ints with no trailing zeros
# (the zero polynomial is empty): the ``ints`` of a LaurentPoly, padded with
# zeros below where an operation reads it from a lower exponent.


def _convolve(x, y) -> list[int]:
    """The integer polynomial x * y; only nonzero coefficients are visited."""
    if not (x and y):
        return []
    out = [0] * (len(x) + len(y) - 1)
    ys = [(j, c) for j, c in enumerate(y) if c]
    for i, xc in enumerate(x):
        if xc:
            for j, c in ys:
                out[i + j] += xc * c
    return out


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


# An exact quotient is packed from this many steps of the sparse loop
# (quotient length times nonzero terms of the divisor) on: measured, as
# _FIXED_STEP_LENGTH was, the packed quotient is the faster there.
_PACKED_MIN_STEPS = 128


def _exact_quotient(num, den) -> list[int] | None:
    """q with q * den == num in Z[t], or None when den does not divide num
    there; den is nonzero.

    The sparse loop of :func:`_pdivmod` divides when it would take fewer
    than _PACKED_MIN_STEPS steps.  Else (Kronecker substitution) num and
    den are packed in k-bit signed slots, k = 16, 32 or 64 the narrowest
    that holds them, as their values N and D at 2^k, and one integer
    divmod gives Q = N // D.  A nonzero remainder proves that den does not
    divide num, as q * den == num would give Q * D == N.  Else the balanced
    base-2^k digits of Q are the candidate q, accepted only when each lies
    in [-2^(m-1), 2^(m-1)), where ||den||_1 < 2^(k-m).  Then
    ||q||_inf ||den||_1 < 2^(k-1) and ||num||_inf <= 2^(k-1), so
    q * den - num vanishes at 2^k and has every coefficient below 2^k in
    absolute value; it is zero, or its lowest nonzero coefficient would be
    a nonzero multiple of 2^k.  Operands too wide for 64-bit slots, and
    quotients that no width proves, go to the sparse loop.
    """
    nq, nnz = len(num) - len(den) + 1, len(den) - den.count(0)
    if nq * nnz >= _PACKED_MIN_STEPS:
        import struct  # only a packed division loads it

        norm = sum(map(abs, den))
        for code, k in (("h", 16), ("i", 32), ("q", 64)):
            m = k - norm.bit_length()
            if m < 1:
                continue
            try:
                packed = [struct.pack(f"<{len(x)}{code}", *x) for x in (num, den)]
            except struct.error:
                continue
            # bias holds 2^(k-1) in each of len(num) slots (in fewer, shifted
            # right); slot by slot, (x ^ b) - b turns the unsigned reading of
            # signed slots into their values, and (x + b) ^ b turns back
            bias = int.from_bytes((bytes(k // 8 - 1) + b"\x80") * len(num), "little")
            b = bias >> k * (nq - 1)
            quo, rem = divmod((int.from_bytes(packed[0], "little") ^ bias) - bias,
                              (int.from_bytes(packed[1], "little") ^ b) - b)
            if rem:
                return None
            b = bias >> k * (len(den) - 1)
            low = b >> k - m
            digits = quo + low  # digit i of Q plus 2^(m-1), in slot i if below 2^m
            if digits < 0 or digits >> k * nq or digits & 2 * (b - low):
                continue
            raw = ((quo + b) ^ b).to_bytes(k // 8 * nq, "little")
            return list(struct.unpack(f"<{nq}{code}", raw))
    s, q, r = _pdivmod(num, den)
    return q if s == 1 and not r else None


def normalize(p: LaurentPoly) -> LaurentPoly:
    """The canonical associate of ``p``.

    Lowest exponent 0, coprime integer coefficients, positive leading
    coefficient.  Associates normalize identically and units normalize to 1.
    """
    if not p:
        return p
    g = math.gcd(*p.ints) if p.ints[-1] > 0 else -math.gcd(*p.ints)
    return _poly([c // g for c in p.ints])


def _padded(p: LaurentPoly, lo: int):
    """The ints of p read from exponent lo <= p.lo."""
    return [0] * (p.lo - lo) + list(p.ints) if p.lo > lo else p.ints


def divmod_poly(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division with remainder in Q[t] (deg r < deg b).

    Both arguments must have nonnegative exponents.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if (a and a.min_exp < 0) or b.min_exp < 0:
        raise ValueError("polynomial division requires nonnegative exponents")
    s, q, r = _pdivmod(_padded(a, 0), _padded(b, 0))
    return _poly([c * b.den for c in q], s * a.den), _poly(r, s * a.den)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a/b in Q[t, t^-1]; raises if b does not divide a.

    The ints of b are divided by their content g first; by Gauss's lemma
    the quotient by that primitive form lies in Z[t] if it exists, so one
    :func:`_exact_quotient` decides."""
    if not a:
        return LaurentPoly.zero()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    g = math.gcd(*b.ints)
    q = _exact_quotient(a.ints, b.ints if g == 1 else [c // g for c in b.ints])
    if q is None:
        raise ArithmeticError("inexact Laurent division")
    return _poly([c * b.den for c in q] if b.den != 1 else q, a.den * g, a.lo - b.lo)


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Normalized greatest common divisor in the PID Q[t, t^-1].

    ``gcd(p, 0) == normalize(p)`` and the result is the canonical associate.
    It is computed as a primitive polynomial remainder sequence over Z:
    each pseudo-remainder is divided by its content before the next step.
    """
    a, b = _primitive(p.ints), _primitive(q.ints)
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[2])
    return normalize(_poly(a))


_PRIME = 2**31 - 1  # the prime p of every computation mod p


def _gcd_mod_p(a: list[int], b: list[int]) -> list[int]:
    """Euclid's gcd over F_p of residue lists with nonzero leading terms."""
    p = _PRIME
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
    return a


def coprime(polys: list[LaurentPoly]) -> bool:
    """True iff the nonzero ``polys`` have no common non-unit factor.

    A common factor keeps its degree mod p in each integer form whose
    leading coefficient p does not divide, so a constant gcd of those mod
    p decides; otherwise the exact gcd does, and no prime misleads."""
    forms = [[c % _PRIME for c in f.ints] for f in polys if f and f.ints[-1] % _PRIME]
    if forms and len(functools.reduce(_gcd_mod_p, forms)) == 1:
        return True
    return functools.reduce(gcd, polys, LaurentPoly.zero()).is_unit()


def value_mod_p(f: LaurentPoly, a: int) -> int:
    """f(a) mod p, for a unit a mod p and a denominator prime to p: Horner's
    rule on the ints, times a^lo / den."""
    p = _PRIME
    v = 0
    for c in reversed(f.ints):
        v = (v * a + c) % p
    return v * pow(a, f.lo, p) * pow(f.den, -1, p) % p


def rank_det_mod_p(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, determinant) over F_p of a nonempty integer matrix by Gaussian
    elimination, which ends at the last row's pivot; the determinant is 0
    unless the matrix is square."""
    p = _PRIME
    m = [[x % p for x in row] for row in rows]
    rk, det = 0, 1
    for c in range(len(m[0])):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is not None:
            m[rk], m[piv] = m[piv], m[rk]
            top = m[rk]
            det = det * (top[c] if piv == rk else -top[c]) % p
            rk += 1
            if rk == len(m):
                break
            inv = pow(top[c], -1, p)
            for i in range(rk, len(m)):
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
    return rk, det if rk == len(m) == len(m[0]) else 0


def reciprocal(p: LaurentPoly) -> LaurentPoly:
    """The polynomial with reversed coefficients; its nonzero roots are the
    inverses of the nonzero roots of ``p``."""
    return _poly(p.ints[::-1], p.den)


def cauchy_root_radius(p: LaurentPoly) -> Fraction:
    """Exact Cauchy-type root bound 1 + sum |b_i| = ||p||_1 / |lead|.

    Here t^s + b_{s-1} t^{s-1} + ... + b_0 is the monic polynomial with the
    same nonzero roots as ``p``; every nonzero root z of ``p`` satisfies
    |z| <= the returned rational.  Units yield 1 (no nonzero roots).
    """
    if not p:
        raise ValueError("the zero polynomial has no root radius")
    return Fraction(sum(map(abs, p.ints)), abs(p.ints[-1]))


def _in_closed_unit_disk(q: list[int]) -> bool:
    """Whether every root of the nonzero integer polynomial q lies in |z| <= 1.

    g = gcd(q, q*), q* the reversal, holds the roots of q on the circle and
    every pair of roots w, 1/conj(w).  g is self-inversive, so by Cohn's
    theorem (Marden, *Geometry of Polynomials*, 1966, 45.1) all its roots lie
    on the circle iff all roots of g' lie in the closed disk.  q/g has no
    root on the circle, and the Schur-Cohn recursion (Henrici, *Applied and
    Computational Complex Analysis* I, 6.8) decides that all its roots lie
    inside: iff |a_0| < |a_n| and (a_n q - a_0 q*)/z, of one degree less and
    by Rouche's theorem with one root fewer inside, passes again."""
    g = gcd(_poly(q), _poly(q[::-1])).ints
    if len(g) > 1:
        if not _in_closed_unit_disk([k * c for k, c in enumerate(g)][1:]):
            return False
        q = _exact_quotient(q, list(g))
    while len(q) > 1:
        if abs(q[0]) >= abs(q[-1]):
            return False
        q = _primitive([q[-1] * x - q[0] * y for x, y in zip(q, reversed(q))][1:])
    return True


def roots_in_annulus(p: LaurentPoly, c) -> bool:
    """Whether every nonzero root z of ``p`` has 1/c <= |z| <= c, decided
    exactly for a rational c > 0: with c = u/v and d the degree of p's ints,
    the roots of Q(z) = v^d p(uz/v), and of the Q of the reversal, must lie
    in the closed unit disk (:func:`_in_closed_unit_disk`)."""
    if not p:
        raise ValueError("the zero polynomial has no root annulus")
    c = Fraction(c)
    u, v, d = c.numerator, c.denominator, len(p.ints) - 1
    return all(_in_closed_unit_disk([a * u**k * v**(d - k) for k, a in enumerate(ints)])
               for ints in (p.ints, p.ints[::-1]))


# -- numeric roots: square-free split, Aberth, exact polishing ---------------


def _derivative(p: LaurentPoly) -> LaurentPoly:
    return _poly([e * c for e, c in enumerate(p.ints, p.lo)], p.den, p.lo - 1)


_POLISH_STEPS = 8
_FIXED_STEP_LENGTH = 21  # coefficients past which a fixed-point Newton step beats the exact one


def _squarefree_mod_p(q: list[int]) -> bool:
    """True if gcd(q mod p, q' mod p) is a unit for p = 2^31 - 1.

    Then q is square-free over Q: when p > deg q does not divide the
    leading coefficient, a repeated factor of q survives reduction mod p.
    """
    p = _PRIME
    if len(q) > p or q[-1] % p == 0:
        return False
    return len(_gcd_mod_p([c % p for c in q], [i * c % p for i, c in enumerate(q)][1:])) == 1


def _squarefree_factors(q: list[int]) -> list[tuple[list[int], int]]:
    """Square-free decomposition of an integer polynomial q (ascending, with
    nonzero constant term): pairs (f_i, i) with q associate to the product
    of the f_i^i, each f_i primitive, square-free and of positive degree.

    Yun's algorithm over Q (Yun, SYMSAC 1976) runs only when the test mod
    p cannot rule out repeated factors.
    """
    if _squarefree_mod_p(q):
        return [(q, 1)]
    f = _poly(q)
    a = gcd(f, _derivative(f))
    b = exact_div(f, a)
    d = exact_div(_derivative(f), a) - _derivative(b)
    out = []
    i = 1
    while b.span():
        a = gcd(b, d)
        if a.span():
            out.append((list(a.ints), i))
        b = exact_div(b, a)
        d = exact_div(d, a) - _derivative(b)
        i += 1
    return out


@functools.lru_cache(maxsize=16)
def _phi_at_most(bound: int) -> tuple[tuple, ...]:
    """The triples (n, phi(n), up) with Euler's phi(n) <= bound, by ascending
    n, built from phi(prod p^a) = prod p^(a-1) (p - 1) over sieved primes;
    ``up`` the triple of n/p, p the largest prime of n."""
    sieve = bytearray([1]) * (bound + 2)
    for p in range(2, math.isqrt(bound + 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    primes = [p for p in range(2, bound + 2) if sieve[p]]
    out = [(1, 1, None)]
    def extend(start, up):
        for j in range(start, len(primes)):
            p, f = primes[j], up[1] * (primes[j] - 1)
            if f > bound:
                return
            entry = up
            while f <= bound:
                entry = (entry[0] * p, f, entry)
                out.append(entry)
                extend(j + 1, entry)
                f *= p
    extend(0, out[0])
    return tuple(sorted(out))


@functools.lru_cache(maxsize=512)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, ascending: Phi_1 = t - 1 and, for the least prime p of n = p m,
    Phi_n(t) = Phi_m(t^p) if p divides m, else Phi_m(t^p) / Phi_m(t)."""
    if n == 1:
        return (-1, 1)
    p = next(d for d in range(2, n + 1) if n % d == 0)
    inner = _cyclotomic(n // p)
    stretched = [0] * ((len(inner) - 1) * p + 1)
    stretched[::p] = inner
    if n // p % p == 0:
        return tuple(stretched)
    quo = _exact_quotient(stretched, inner)
    if quo is None:
        raise InvariantViolation(f"Phi_{n // p}(t^{p}) is not divisible by Phi_{n // p}")
    return tuple(quo)


@functools.lru_cache(maxsize=512)
def _cyclotomic_at_2(entry: tuple) -> int:
    """Phi_n(2) = Phi_r(2^(n/r)) for an entry of :func:`_phi_at_most`, r the
    product of the primes of n, by Phi_(m p)(x) = Phi_m(x^p) / Phi_m(x)."""
    ps, (n, _, up) = [], entry
    while up:  # n's primes, descending
        p = entry[0] // up[0]
        if p not in ps:
            ps.append(p)
        entry, up = up, up[2]
    def at(i, e):  # Phi_(prod ps[i:])(2^e)
        if i == len(ps):
            return (1 << e) - 1
        if ps[i] == 2:
            return (1 << e) + 1
        return at(i + 1, e * ps[i]) // at(i + 1, e)
    return at(0, n // math.prod(ps))


def _value_at_2(q: list[int]) -> int:
    """(q / (t - 2)^k)(2) = q^(k)(2) / k! for q != 0, k the multiplicity of 2."""
    k = 0
    while True:
        v = 0
        for c in reversed(q):
            v += v + c
        if v or not q:
            return v // math.factorial(k)
        q, k = [i * c for i, c in enumerate(q)][1:], k + 1


def _may_divide(rest: list[int], v: int, n: int, at_2: int) -> bool:
    """False only if Phi_n (monic) does not divide ``rest``: else at_2 =
    Phi_n(2) divides v = _value_at_2(rest).  n <= 2 test rest(+-1)."""
    if n > 2:
        return not v % at_2
    return sum(rest[::2]) == (-1) ** n * sum(rest[1::2])


def _cyclotomic_split(q: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Pairs (n, m) and ``rest`` with q == prod Phi_n^m * rest, no Phi_n
    dividing ``rest``.  Each n with phi(n) <= deg q that :func:`_may_divide`
    cannot rule out is divided exactly (:func:`_exact_quotient`); only an
    exact quotient strips Phi_n."""
    found, rest, v = [], q, _value_at_2(q)
    for entry in _phi_at_most(1 << (len(q) - 1).bit_length()):  # a power of two: few tables
        n, phi, _ = entry
        if phi >= len(rest):
            continue
        at_2, m = _cyclotomic_at_2(entry), 0
        while phi < len(rest) and _may_divide(rest, v, n, at_2):
            quo = _exact_quotient(rest, _cyclotomic(n))
            if quo is None:
                break
            rest, v, m = quo, v // at_2, m + 1
        if m:
            found.append((n, m))
    if v != _value_at_2(rest):
        raise InvariantViolation("the cyclotomic split lost track of rest at 2")
    return found, rest


_FIX = 100  # fractional bits of the fixed-point sine and cosine
_PI_FIX = 0x3243F6A8885A308D313198A2E0  # floor(pi * 2^100)
_UNIT_ROOT_SLACK = 64  # bound on their error, in units of 2^-100


def _sin_cos_turns(num: int, den: int) -> tuple[float, float] | None:
    """sin and cos of 2 pi num/den, 0 < num/den <= 1/8, correctly rounded,
    or None when the error interval holds a rounding boundary.

    In fixed point with T = 2^100: theta = floor(2 num _PI_FIX / den) is
    within 1.25 of 2 pi T num/den (< 0.79 T).  Each Taylor term of the sine
    is floored from the last through sq = floor(theta^2 / T), which keeps its
    error below 1.3; at most 15 terms and the alternating remainder (below
    the first term that floors to 0) leave s within 24 of T sin.  The cosine
    isqrt(T^2 - s^2) adds at most 1 + 24 tan(pi/4).  Both lie well inside
    _UNIT_ROOT_SLACK, and int / int division rounds correctly, so equal ends
    give the correctly rounded value."""
    one = 1 << _FIX
    theta = 2 * _PI_FIX * num // den
    sq = theta * theta >> _FIX
    s = term = theta
    j = 1
    while term:
        term = (term * sq >> _FIX) // ((j + 1) * (j + 2))
        s += -term if j % 4 == 1 else term
        j += 2
    c = math.isqrt(one * one - s * s)
    lo = ((s - _UNIT_ROOT_SLACK) / one, (c - _UNIT_ROOT_SLACK) / one)
    hi = ((s + _UNIT_ROOT_SLACK) / one, (c + _UNIT_ROOT_SLACK) / one)
    return lo if lo == hi else None


def _unit_roots(n: int) -> list[complex]:
    """The primitive n-th roots of unity e^(2 pi i k/n), correctly rounded:
    +-1 and +-i exact, the rest for 0 < k < n/2 and conjugated.

    Symmetry takes k/n into [0, 1/8] (``_sin_cos_turns``); only when that
    cannot decide the rounding is the root polished on Phi_n by exact Newton
    steps.  Exact division already proved these roots, so none is certified."""
    if n <= 2:
        return [complex(1 if n == 1 else -1)]
    out = []
    for k in range(1, (n + 1) // 2):
        if math.gcd(k, n) != 1:
            continue
        if 4 * k == n:
            z = 1j
        else:
            num, den = (n - 2 * k, 2 * n) if 4 * k > n else (k, n)  # fold into [0, 1/4]
            swap = 8 * num > den
            if swap:
                num, den = den - 4 * num, 4 * den  # 1/4 - num/den
            sc = _sin_cos_turns(num, den)
            if sc is None:
                z = _polish(list(_cyclotomic(n)), cmath.rect(1.0, 2 * math.pi * k / n))
            else:
                c, s = sc if swap else sc[::-1]
                z = complex(-c if 4 * k > n else c, s)
        out += [z, z.conjugate()]
    return out


class _Doubles:
    """Machine ``complex`` for :func:`_aberth`; an overflow raises."""

    @staticmethod
    def ratio(n: int, d: int) -> float:
        return n / d  # correctly rounded; OverflowError past the double range

    @staticmethod
    def polar(log_r, turns):
        return cmath.rect(math.exp(log_r), 2 * math.pi * turns)

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

    def polar(self, log_r, turns):
        return self.ctx.exp(log_r) * self.ctx.expjpi(2 * turns)

    def targets(self, deg: int):
        dps = self.ctx.dps
        return self.ctx.mpf(10) ** (-(dps // 2)), self.ctx.mpf(10) ** (-(dps - 10))

    @staticmethod
    def finite(z) -> bool:
        return True


_DOUBLES = _Doubles()


def _starts(numbers, f: list[int], seed: int) -> list:
    """Aberth start points on the Newton polygon of the integer polynomial f
    (Bini, Numer. Algorithms 13, 1996): each edge from i to j of the upper
    convex hull of the points (i, log |f_i|) gets j - i points, evenly spaced
    from a seeded angle, on the circle of radius (|f_i| / |f_j|)^(1/(j - i)).
    The angle's offset in [0.1, 0.4) turns is a Fibonacci hash of the seed."""
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(f):
        if c:
            b = (i, math.log(abs(c)))
            while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (b[1] - hull[-2][1])
                                     >= (hull[-1][1] - hull[-2][1]) * (b[0] - hull[-2][0])):
                hull.pop()  # on or below the chord from hull[-2] to b
            hull.append(b)
    offset, deg = 0.1 + 0.3 * (seed * 0x9E3779B97F4A7C15 % 2**64) / 2**64, len(f) - 1
    return [numbers.polar((li - lj) / (j - i), (k + offset) / (j - i) + i / deg)
            for (i, li), (j, lj) in zip(hull, hull[1:]) for k in range(j - i)]


def _aberth(numbers, f: list[int], seed: int) -> list:
    """Aberth-Ehrlich simultaneous iteration for the roots of the integer
    polynomial f, in the number context ``numbers``, from :func:`_starts`.

    A root has converged, and stops moving, once |p(z)| / sum |c_k| |z|^k
    (its backward error) or its relative step is below the context's targets.
    Outside the unit disk p and p' are evaluated through the reversed
    polynomial at w = 1/z, so no power of |z| is formed.  Horner's rule runs
    inline, on the |c_k| taken once in each order.  The scale
    sum |c_k| |w|^k is summed only when |w| > 1 or |p| is below the target
    times sum |c_k|: for |w| <= 1 the scale, summed in the same order, is at
    most that sum, as rounding is monotone, so the stopping decision is the
    one the full sum gives.  The pair sum over j != k runs in ascending j.
    """
    deg = len(f) - 1
    cs = [numbers.ratio(c, f[-1]) for c in f]
    orders = []
    for coeffs in (cs[::-1], cs):  # Horner's order of p at z, and of the reversal at 1/z
        mags, total = [abs(c) for c in coeffs], 0
        for m in mags:  # the scale at |w| = 1; not sum(), which compensates from Python 3.12
            total += m
        orders.append((coeffs, mags, total))
    inner, outer = orders
    res_target, step_target = numbers.targets(deg)
    z = _starts(numbers, f, seed)
    moving = range(deg)
    for _ in range(600):
        still = []
        for k in moving:
            zk = z[k]
            r = abs(zk)
            outside = r > 1
            if outside:
                w = 1 / zk
                r = abs(w)
                coeffs, mags, total = outer
            else:
                w, (coeffs, mags, total) = zk, inner
            pv = dp = 0
            for c in coeffs:
                dp = dp * w + pv
                pv = pv * w + c
            if pv == 0:
                continue
            if outside:  # pv is p(z) / z^deg, and den p'(z) / z^(deg-1)
                num, den = zk * pv, deg * pv - w * dp
            else:
                num, den = pv, dp
            try:
                step = num / den
                s = sum([1 / (zk - zj) for zj in z[:k] + z[k + 1:]])
            except ZeroDivisionError:  # a critical point, or two iterates collided
                z[k] += step_target * (1 + abs(zk)) * (1 + 1j)
                still.append(k)
                continue
            denom = 1 - step * s
            delta = step if denom == 0 else step / denom
            z[k] = zk - delta
            if not numbers.finite(z[k]):
                raise OverflowError("Aberth iterate left the double range")
            res = abs(pv)
            if r > 1 or res < res_target * total:
                scale = 0
                for m in mags:
                    scale = scale * r + m
                large = res >= res_target * scale
            else:
                large = True
            if large and abs(delta) >= step_target * max(1, abs(z[k])):
                still.append(k)
        if not still:
            return z
        moving = still
    raise RootFindingError(
        f"Aberth iteration did not converge for {_poly(f).display()}"
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


def _newton_fixed(f: list[int], z: complex) -> complex | None:
    """The step of :func:`_newton_exact` from fixed-point values, or None
    when their error bound cannot decide its rounding.

    For z = (a + ib) / 2^e, Horner's rule keeps G ~ 2^P f(z) and
    H ~ 2^P f'(z) as Gaussian integers, P = e + 64 + bits(deg), flooring
    each product by z.  A floor errs by less than 1 per component, so with
    R = isqrt(a^2 + b^2) + 1 >= 2^e |z| the errors obey
    eg' <= eg R / 2^e + 2 and eh' <= eh R / 2^e + 2 + eg, the recurrences
    below rounded up.  Then |f/f' - G/H| <= (eg |H| + |G| eh) / ((|H| - eh) |H|),
    and when both ends of that interval round to the same double in each
    component, so does the exact step; for real z both steps are real.  A
    nonzero component below 2^-40 |z|, such as the noise left on a real
    root, shrinks past what P resolves; such a z is left to the exact step
    at once."""
    if z.imag and min(abs(z.real), abs(z.imag)) < 2.0**-40 * abs(z):
        return None
    a, b, e = _dyadic(z)
    p = e + 64 + len(f).bit_length()
    rad = math.isqrt(a * a + b * b) + 1
    gr, gi, hr, hi, eg, eh = f[-1] << p, 0, 0, 0, 0, 0
    for c in reversed(f[:-1]):
        hr, hi = ((hr * a - hi * b) >> e) + gr, ((hr * b + hi * a) >> e) + gi
        eh = ((eh * rad) >> e) + 3 + eg
        gr, gi = ((gr * a - gi * b) >> e) + (c << p), (gr * b + gi * a) >> e
        eg = ((eg * rad) >> e) + 3
    norm = hr * hr + hi * hi
    habs = math.isqrt(norm)
    if habs <= eh:
        return None
    # z - G/H = (Z*H - G*2^e) / (H * 2^e) with Z = a + ib, as for the exact step
    nr, ni = a * hr - b * hi - (gr << e), a * hi + b * hr - (gi << e)
    den = norm << e
    err = eg * (habs + 1) + (math.isqrt(gr * gr + gi * gi) + 1) * eh
    w = -(-err * den // ((habs - eh) * habs))
    out = []
    for num, slack in ((nr * hr + ni * hi, w), (ni * hr - nr * hi, w if b else 0)):
        lo, up = (num - slack) / den, (num + slack) / den
        if lo != up or (lo == 0 and slack):  # an interval about 0 could hide the sign of a zero
            return None
        out.append(lo)
    return complex(*out)


def _polish(f: list[int], z: complex) -> complex:
    """Newton steps from z until one moves it by at most a unit in the last
    place of |z|, which then holds the correctly rounded root.  Past degree
    20 each step is evaluated in fixed point (:func:`_newton_fixed`), or
    exactly where that cannot decide the rounding, and is the exactly
    rounded step either way; below it the exact step is the cheaper.

    An iterate of the double stage settles in one step.  From the double
    stage's iterates the steps do not settle on ill-conditioned roots, such
    as those of prod (t - k), k <= 20; :class:`RootFindingError` then sends
    the factor to the mpmath stage of :func:`complex_roots`.
    """
    for _ in range(_POLISH_STEPS):
        nxt = _newton_fixed(f, z) if len(f) > _FIXED_STEP_LENGTH else None
        if nxt is None:
            nxt = _newton_exact(f, z)
        settled = abs(nxt - z) <= 2.0**-52 * abs(nxt)
        z = nxt
        if settled:
            return z
    raise RootFindingError(
        f"Newton steps did not settle for {_poly(f).display()}"
    )


def _certified_in_doubles(q: list[int], z: complex, tol: float) -> bool:
    """True only if |q(z)| <= tol * S, S = sum |c_k| |z|^k, provably holds.

    Let d = deg q, u = 2^-53 and g_k = k u / (1 - k u), and require every
    |c_k| <= 2^53 (exact doubles), c_0 c_d != 0 (so S >= max(1, |z|)^d),
    2^-500 <= max(|Re z|, |Im z|) <= 2^500 and g_(5d+2) <= tol / 8.  Then
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1):
    * r = sqrt(x^2 + y^2) in doubles is |z| (1 + e), |e| <= g_3.
    * Horner's rule on |c_k| at r gives S' with |S' / S - 1| <= g_(5d+1):
      (1 + g_3)^d from r, g_(2d) from rounding, at most u S from underflow.
    * Horner's rule on c_k at z gives P with |P - q(z)| <= g_(4d+2) S: a
      complex product rounds by at most sqrt(2) g_2 <= (1 + u)^3 - 1 (Lemma
      3.5, also with a fused multiply-add), adding the real c_k rounds the
      real part only, and underflow adds at most d 2^-1072 max(1, |z|)^d.
    * An overflow leaves an infinity or a NaN in P or S', which refuses.
    So |Re P| + |Im P| <= tol S' / 2, each side rounded within 1 +- u,
    gives |q(z)| <= |P| + g S <= (0.51 + 0.125) tol S."""
    deg, x, y = len(q) - 1, abs(z.real), abs(z.imag)
    if ((80 * deg + 32) * 2.0**-53 > tol or not (q[0] and q[-1]) or max(map(abs, q)) > 2**53
            or not 2.0**-500 <= max(x, y) <= 2.0**500):
        return False
    r = math.sqrt(x * x + y * y)
    pv, scale = 0j, 0.0
    for c in reversed(q):
        pv = pv * z + c
        scale = scale * r + abs(c)
    return (cmath.isfinite(pv) and math.isfinite(scale)
            and abs(pv.real) + abs(pv.imag) <= 0.5 * tol * scale)


def _certified(q: list[int], z: complex, tol: float) -> bool:
    """The backward-error certificate |q(z)| <= tol * sum |c_k| |z|^k, in
    doubles where :func:`_certified_in_doubles` proves it, else in integers:
    for z = (a + ib) / 2^e and n = a^2 + b^2, 2^(e*deg) times the sum is
    E + O sqrt(n), E and O summing the even and odd k."""
    if _certified_in_doubles(q, z, tol):
        return True
    a, b, e = _dyadic(z)
    (gr, gi), _ = _scaled_horner(q, a, b, e)
    t = Fraction(tol)
    n, deg = a * a + b * b, len(q) - 1
    parts, w = [0, 0], 1
    for k, c in enumerate(q):
        parts[k % 2] += abs(c) * w << e * (deg - k)
        if k % 2:
            w *= n
    even, odd = parts
    # (gr^2 + gi^2) * den^2 <= num^2 * (E^2 + n O^2 + 2 E O sqrt(n))
    excess = (gr * gr + gi * gi) * t.denominator**2 - t.numerator**2 * (even**2 + n * odd**2)
    cross = 2 * t.numerator**2 * even * odd
    return excess <= 0 or excess * excess <= cross * cross * n


def _sign_at(f: list[int], x: float) -> int:
    """The sign of f(x), exactly: that of den^deg f(num/den) for x = num/den."""
    num, den = x.as_integer_ratio()
    v, w = f[-1], 1
    for c in reversed(f[:-1]):
        w *= den
        v = v * num + c * w
    return (v > 0) - (v < 0)


def _real_root_near(f: list[int], x: float) -> bool:
    """Whether f changes sign between the doubles next to x, which proves a
    real root of f within an ulp of x."""
    return _sign_at(f, math.nextafter(x, -math.inf)) * _sign_at(f, math.nextafter(x, math.inf)) < 0


@functools.lru_cache(maxsize=1)  # the roots of one factor are polished in a row
def _imaginary_axis_gcd(f: tuple[int, ...]) -> tuple[int, ...]:
    """gcd(A, B) for f(iy) = A(y) + iB(y) with integer A and B: its real
    roots y are those of f on the imaginary axis."""
    parts = [[0] * len(f), [0] * len(f)]
    for k, c in enumerate(f):
        parts[k % 2][k] = c if k % 4 < 2 else -c  # i^k is 1, i, -1, -i
    return gcd(_poly(parts[0]), _poly(parts[1])).ints


def _polished(f: list[int], z: complex) -> complex:
    """z polished on the integer polynomial f (:func:`_polish`), with its
    imaginary part dropped if that is below an ulp of the real part and
    :func:`_real_root_near` proves a real root there, and its real part set
    to +0.0 if that is below an ulp of the imaginary part and
    :func:`_real_root_near` proves a root of :func:`_imaginary_axis_gcd`
    there."""
    z = _polish(f, z)
    if z.imag and abs(z.imag) <= 2.0**-52 * abs(z.real) and _real_root_near(f, z.real):
        return complex(z.real)
    if (z.real and abs(z.real) <= 2.0**-52 * abs(z.imag)
            and _real_root_near(_imaginary_axis_gcd(tuple(f)), z.imag)):
        return complex(0.0, z.imag)
    return z


def _located_roots(numbers, p, q, factors, tol, seed):
    """The roots of each square-free factor through one number context
    (Aberth, :func:`_polished`), each once with its factor's multiplicity and
    certified against q.

    The iterates with Im >= 0 are polished and certified first.  An iterate
    z with Im < 0 whose conjugate lies within 2^-26 |r| of an unused polished
    root r with Im r > 2^-26 |r|, the nearest such r, is reported as
    conj(r): q is real, so conj(r) is certified as r is.  The bound on Im r
    keeps the disks about r and conj(r) apart, so a near-real cluster is
    polished from each iterate.  Every other iterate is polished and
    certified itself.  The duplicate check covers every reported root.

    :func:`_polished` and :func:`_certified` commute with conjugation bit
    for bit on integer polynomials (IEEE arithmetic is sign-symmetric, and
    the exact paths only negate b), so conj(r) is what polishing z itself
    would report only when polishing from conj(z) and from r's own iterate
    reaches the same double.  That is not proved: two nearby starts can end
    one double apart, or one can fail where the other settles."""
    out = []
    for f, mult in factors:
        iterates = [complex(z) for z in _aberth(numbers, f, seed)]
        roots = [_polished(f, z) if z.imag >= 0 else None for z in iterates]
        pool = [z for z in roots if z is not None and z.imag > 2.0**-26 * abs(z)]
        mirrored = set()
        for i, z in enumerate(iterates):
            if roots[i] is None:
                w = z.conjugate()
                r = min(pool, key=lambda r: abs(r - w), default=None)
                if r is not None and abs(r - w) <= 2.0**-26 * abs(r):
                    pool.remove(r)
                    roots[i] = r.conjugate()
                    mirrored.add(i)
                else:
                    roots[i] = _polished(f, z)
        if len(set(roots)) < len(roots):
            raise RootFindingError(f"two iterates reached the same root of {p.display()}")
        for i, z in enumerate(roots):
            if i not in mirrored and not _certified(q, z, tol):
                raise RootFindingError(f"root residual at {z} exceeds bound for {p.display()}")
        out += [(z, mult) for z in roots]
    return out


def complex_roots(p: LaurentPoly, tol: float, seed: int = 0) -> list[tuple[complex, int]]:
    """All nonzero roots of ``p`` with multiplicities, sorted by (re, im).

    Factors of t and the rational content are stripped, and the primitive
    integer polynomial q is divided exactly into prod Phi_n^m * rest; each
    primitive n-th root of unity is reported with multiplicity m, correctly
    rounded in closed form (:func:`_unit_roots`).  ``rest`` is split
    exactly into square-free factors f_i of multiplicity i, whose roots the
    Aberth-Ehrlich iteration locates in machine ``complex`` from start
    points on the Newton polygon of f_i, and Newton steps on f_i, rounded
    as the exact step is, polish; a root is reported real where f_i
    changes sign between the doubles next to its real part, and purely
    imaginary where gcd(Re f_i(iy), Im f_i(iy)) does so next to its
    imaginary part.  Every
    multiplicity comes from that exact algebra: each root is reported once,
    and distinct roots stay apart even when they round to the same double.
    Each root of a square-free factor is certified against the
    backward-error bound ``|q(z)| <= tol * sum |c_k| |z|^k``; a root of
    unity, which exact division proved, is not.  Both the polish and the
    certificate run once per conjugate pair, whose lower root is reported
    as the conjugate of the certified upper one (:func:`_located_roots`).

    The exact split takes 0.5 s on T(140,141) (degree 19,460), the O(d^2)
    Aberth sweeps 0.4 s on a generic degree-400 rest, the exact verdict at
    most 0.03 s (Python 3.11, one core of a 2-vCPU host).

    On a float overflow, non-convergence or a failed certificate, ``rest``
    (of degree d) goes through again in a private mpmath context at
    max(60, 2*d + 30) digits; :class:`RootFindingError` if that fails too.
    """
    if not p:
        raise ValueError("cannot extract roots of the zero polynomial")
    if not (0 < tol <= 1e-4):
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    q = list(normalize(p).ints)
    if len(q) == 1:
        return []
    cyclotomic, rest = _cyclotomic_split(q)
    found = [(z, m) for n, m in cyclotomic for z in _unit_roots(n)]
    factors = _squarefree_factors(rest) if len(rest) > 1 else []
    try:
        out = found + _located_roots(_DOUBLES, p, q, factors, tol, seed)
    except (OverflowError, RootFindingError):
        try:
            out = found + _located_roots(_MpNumbers(max(60, 2 * (len(rest) - 1) + 30)), p, q, factors, tol, seed)
        except OverflowError as exc:
            raise RootFindingError(f"a root of {p.display()} lies outside the double range") from exc
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


# -- matrices over Q[t, t^-1] ------------------------------------------------


def mat_identity(n: int) -> list[list[LaurentPoly]]:
    return [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]


def _global_shift(rows):
    """min(0, smallest exponent over all nonzero entries): the shift into
    Q[t] that leaves entries already there, and so factors of t, alone."""
    return min([0] + [e.lo for row in rows for e in row if e])


def _bareiss(rows, reduce_above: bool):
    """Fraction-free Bareiss elimination on integer polynomials; returns
    (pivots as integer lists, row-swap sign, pivot rows, pivot columns, lo,
    row denominators, integer rows).

    Each row is read once as integer polynomials from the global exponent
    lo, which clears negative exponents, over its common denominator d_i;
    so det(A) = sign * (last pivot) / (product of the d_i) * t^(lo * n).
    The pivot rows are the original indices of the rows swapped to the top.
    Each division by the previous pivot is exact in Z[t] (Bareiss 1968),
    else :class:`InvariantViolation`.  A column with no pivot is skipped.
    With ``reduce_above`` the rows above each pivot are reduced too
    (Gauss-Jordan), in every non-pivot column, so each pivot row ends as the
    last pivot times its row of A_{R,P}^-1 A_{R,:}, for R and P the pivot
    rows and columns.
    """
    lo = _global_shift(rows)
    m, dens = map(list, zip(*(_row_ints(row, lo) for row in rows)))
    nrows, ncols = len(m), len(m[0])
    pivots, sign, order, cols, skipped, prev = [], 1, list(range(nrows)), [], [], [1]
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            if reduce_above:  # rows above keep it reduced; the rest stay 0 there
                skipped.append(c)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            order[r], order[piv] = order[piv], order[r]
            sign = -sign
        top = m[r]
        targets = (*skipped, *range(c + 1, ncols)) if skipped else range(c + 1, ncols)
        for row in m[:r] + m[r + 1:] if reduce_above else m[r + 1:]:
            if not row[c] and top[c] == prev:  # the step leaves this row as it is
                continue
            for j in targets:
                x = _sub_mul(top[c], row[j], row[c], top[j])
                if r:  # the first step divides by the initial pivot 1
                    x = _exact_quotient(x, prev)
                    if x is None:
                        raise InvariantViolation("an inexact division in Bareiss elimination")
                row[j] = x
            row[c] = []
        prev = top[c]
        pivots.append(prev)
        cols.append(c)
        if len(pivots) == nrows:
            break
    return pivots, sign, order[:len(pivots)], cols, lo, dens, m


def _parity(seq) -> int:
    """(-1)^(number of inversions of seq)."""
    return -1 if sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) % 2 else 1


def determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant: the last Bareiss pivot over the row denominators,
    or 0 when the pass finds fewer than n pivots; at most one LaurentPoly is
    built."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if n == 0:
        return LaurentPoly.one()
    pivots, sign, _, _, lo, dens, _ = _bareiss(rows, reduce_above=False)
    if len(pivots) < n:
        return LaurentPoly.zero()
    return _poly(pivots[-1] if sign > 0 else [-c for c in pivots[-1]], math.prod(dens), lo * n)


def solve_scaled(rows) -> tuple[LaurentPoly, list[list[LaurentPoly]]]:
    """(p, P) with A * P == p * B, p != 0, for rows [A | B] with A nonsingular
    and square, by one fraction-free Gauss-Jordan pass that leaves every row
    over the last pivot p (row denominators and the t-shift scale A and B alike)."""
    n = len(rows)
    if n == 0 or any(len(row) < n for row in rows):
        raise ValueError("solve_scaled requires rows [A | B] with A square")
    pivots, _, _, cols, _, _, m = _bareiss(rows, reduce_above=True)
    if cols != list(range(n)):  # a singular A may take pivots in B's columns
        raise ZeroDivisionError("solve_scaled requires a nonsingular matrix")
    return _poly(pivots[-1]), [[_poly(x) for x in row[n:]] for row in m]


def rank(rows: list[list[LaurentPoly]]) -> int:
    """Rank over the fraction field Q(t): the number of Bareiss pivots."""
    if not rows or not rows[0]:
        return 0
    return len(_bareiss(rows, reduce_above=False)[0])


class _PivotRows:
    """One fraction-free Gauss-Jordan pass over a matrix A: its pivot rows R
    (ascending), its pivot columns P, and :meth:`minor`, det A_{R,J} for any
    |P| columns J, read off the reduced rows Y = d A_{R,P}^-1 A_{R,:}, d the
    last pivot.

    Y_{:,P} = d I and det Y_{:,J} = d^(r-1) det A_{R,J} (in the pass's row
    order and integer form).  Expanded along the pivot columns J keeps, that
    leaves the block of Y on the rows whose pivot columns J trades and on
    the k columns of J outside P: det A_{R,J} is +-Y_ij when k = 1 (Cramer's
    rule), else +-det(block) / d^(k-1) (Sylvester's identity), a division
    that must be exact, else :class:`InvariantViolation`.
    """

    def __init__(self, rows):
        pivots, sign, order, cols, self._lo, dens, self._y = _bareiss(rows, reduce_above=True)
        self.rows, self.cols = tuple(sorted(order)), tuple(cols)
        self._d = pivots[-1] if pivots else [1]
        self._sign = sign if len(order) == len(rows) else _parity(order)
        self._den = math.prod(dens[i] for i in order)
        self._pos = {c: i for i, c in enumerate(cols)}
        self._minors = {}

    def minor(self, cols: tuple[int, ...]) -> LaurentPoly:
        if cols in self._minors:
            return self._minors[cols]
        pos = self._pos
        kept = [(t, pos[j]) for t, j in enumerate(cols) if j in pos]
        sign = self._sign * (-1) ** sum(t + i for t, i in kept)
        traded = [i for i, c in enumerate(self.cols) if c not in cols]
        new = [j for j in cols if j not in pos]
        den, lo = self._den, self._lo * len(self.cols)
        if not new:
            num = self._d
        elif len(new) == 1:
            num = self._y[traded[0]][new[0]]
        else:
            block = determinant([[_poly(self._y[i][j]) for j in new] for i in traded])
            try:
                q = exact_div(block, _poly(self._d) ** (len(new) - 1))
            except ArithmeticError:
                raise InvariantViolation("an inexact division in Sylvester's identity") from None
            num, den, lo = q.ints, den * q.den, lo + q.lo
        self._minors[cols] = _poly(num if sign > 0 else [-c for c in num], den, lo)
        return self._minors[cols]


class Minors:
    """The minors of size r, the rank, of a matrix A over Q[t, t^-1], from
    fraction-free Gauss-Jordan passes (Bareiss 1968) instead of a
    determinant per minor.

    A 1-minor is its entry, and a single row needs no pass.  Else one pass
    on A gives r, the pivot rows R, the pivot columns P and every
    det A_{R,J} (:class:`_PivotRows`).  When r is below the number of rows,
    a second pass on A_{:,P}^T, run at the first minor that needs it, gives
    every det A_{I,P}; the r-th compound of A has rank one, so
    det A_{I,J} = det A_{I,P} det A_{R,J} / det A_{R,P}, an exact division,
    else :class:`InvariantViolation`.  A minor of size above r is 0.
    """

    def __init__(self, rows):
        self._rows, self._by_rows = rows, None
        self._by_cols = _PivotRows(rows) if len(rows) > 1 and rows[0] else None
        # rank is for callers to read; minor() keeps to the passes' own count
        self._rank = self.rank = (len(self._by_cols.cols) if self._by_cols
                                  else int(bool(rows) and any(rows[0])))

    def minor(self, ri: tuple[int, ...], ci: tuple[int, ...]) -> LaurentPoly:
        """det A_{ri,ci}, for ascending index tuples of one size, at least r."""
        if len(ci) != len(ri) or len(ri) < self._rank:
            raise ValueError("only square minors of size at least the rank are read")
        if len(ri) > self._rank:
            return LaurentPoly.zero()
        if len(ri) == 1:
            return self._rows[ri[0]][ci[0]]
        first = self._by_cols
        v = first.minor(ci)
        if ri == first.rows:
            return v
        if self._by_rows is None:
            self._by_rows = _PivotRows(_transpose([[row[j] for j in first.cols]
                                                   for row in self._rows]))
            if len(self._by_rows.cols) != self._rank:
                raise InvariantViolation("the pivot columns lost rank")
        u = self._by_rows.minor(ri)
        if ci == first.cols:
            return u
        try:
            return exact_div(u * v, first.minor(first.cols))
        except ArithmeticError:
            raise InvariantViolation("an inexact division in the rank-one compound") from None


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _row_ints(row, lo: int = 0):
    """A row of entries as integer polynomials read from exponent lo over one
    common denominator d, unscaled ones not copied; returns (polynomials, d)."""
    d = math.lcm(*(e.den for e in row))
    out = []
    for e in row:
        ints, f = _padded(e, lo) if e else [], d // e.den
        out.append([c * f for c in ints] if f != 1 else ints)
    return out, d


def _sub_mul(s: list[int], x: list[int], q: list[int], y: list[int]) -> list[int]:
    """The integer polynomial s * x - q * y."""
    out, prod = _convolve(s, x), _convolve(q, y)
    out += [0] * (len(prod) - len(out))
    for i, c in enumerate(prod):
        out[i] -= c
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
    ri, di = _row_ints(a[i] + u[i])
    rk, dk = _row_ints(a[k] + u[k])
    if pos is None:
        s, q = dk, [-di]
    else:
        s, q, _ = _pdivmod(ri[pos], rk[pos])
    new = [_sub_mul([s], x, q, y) for x, y in zip(ri, rk)]
    n = len(a[i])
    g = math.gcd(*(c for cs in new[:n] for c in cs)) or s * di
    a[i] = [_poly(cs, g) for cs in new[:n]]
    u[i] = [_poly(cs, g) for cs in new[n:]]


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
        inv = Fraction(piv.den, piv.ints[-1])
        a[pos] = [e.scale(inv) for e in a[pos]]
        u[pos] = [e.scale(inv) for e in u[pos]]
        factors.append(a[pos][pos])
    return factors, (u, _transpose(vt))
