"""Exact arithmetic and linear algebra over the ring Q[t, t^-1].

The ring of rational Laurent polynomials is a principal ideal domain whose
units are the monomials r*t^i (r a nonzero rational).  Everything here is
exact ``Fraction`` arithmetic except :func:`complex_roots`, which runs an
Aberth-Ehrlich simultaneous iteration in elevated mpmath precision and
certifies each returned root against a residual bound.

Conventions
-----------
* The canonical associate produced by :func:`normalize` has lowest exponent
  0, coprime integer coefficients, and positive leading coefficient; units
  normalize to 1.
* Smith normal form invariant factors are reported monic in Q[t] (each
  divides the next there); they are only defined up to units anyway.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
from mpmath.ctx_mp import MPContext


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
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(out)

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
        return sum((abs(c) for c in self.coeffs.values()), Fraction(0))

    def eval_mp(self, z, ctx=mpmath.mp):
        """Evaluate at an mpmath (or complex) number via Horner."""
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


# -- normalization, gcd, root bounds ---------------------------------------


def _content(coeffs) -> Fraction:
    """The positive rational g with every coefficient / g an integer and
    those integers coprime; 1 when there are no nonzero coefficients."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    g = 0
    for c in coeffs:
        g = math.gcd(g, c.numerator * (lcm // c.denominator))
    return Fraction(g, lcm) if g else Fraction(1)


def normalize(p: LaurentPoly) -> LaurentPoly:
    """The canonical associate of ``p``.

    Lowest exponent 0, coprime integer coefficients, positive leading
    coefficient.  Associates normalize identically and units normalize to 1.
    """
    cs = p.dense()
    if not cs:
        return LaurentPoly.zero()
    g = _content(cs)
    if cs[-1] < 0:
        g = -g
    return LaurentPoly.from_coeffs([c / g for c in cs])


def _dense_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Polynomial division with remainder over Q, on ascending coefficient lists."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    dn = len(den) - 1
    lead = den[-1]
    if len(rem) - 1 < dn:
        return [], rem
    quo = [Fraction(0)] * (len(rem) - dn)
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if not c:
            continue
        q = c / lead
        quo[k - dn] = q
        for i, d in enumerate(den):
            rem[k - dn + i] -= q * d
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _dense_abs(p: LaurentPoly) -> list[Fraction]:
    """Ascending coefficients from exponent 0; requires min_exp >= 0."""
    if p and p.min_exp < 0:
        raise ValueError("polynomial division requires nonnegative exponents")
    return [Fraction(0)] * p.min_exp + p.dense() if p else []


def divmod_poly(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division with remainder in Q[t] (deg r < deg b).

    Both arguments must have nonnegative exponents.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = _dense_divmod(_dense_abs(a), _dense_abs(b))
    return LaurentPoly.from_coeffs(q), LaurentPoly.from_coeffs(r)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a/b in Q[t, t^-1]; raises if b does not divide a."""
    if not a:
        return LaurentPoly.zero()
    q, r = _dense_divmod(a.dense(), b.dense())
    if r:
        raise ArithmeticError("inexact Laurent division")
    return LaurentPoly.from_coeffs(q, a.min_exp - b.min_exp)


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Normalized greatest common divisor in the PID Q[t, t^-1].

    ``gcd(p, 0) == normalize(p)`` and the result is the canonical associate.
    """
    a, b = p.dense(), q.dense()
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    return normalize(LaurentPoly.from_coeffs(a))


def reciprocal(p: LaurentPoly) -> LaurentPoly:
    """The polynomial with reversed coefficients; its nonzero roots are the
    inverses of the nonzero roots of ``p``."""
    cs = p.dense()
    return LaurentPoly.from_coeffs(list(reversed(cs)))


def cauchy_root_radius(p: LaurentPoly) -> Fraction:
    """Exact Cauchy-type root bound 1 + sum |b_i|.

    Here t^s + b_{s-1} t^{s-1} + ... + b_0 is the monic polynomial with the
    same nonzero roots as ``p``; every nonzero root z of ``p`` satisfies
    |z| <= the returned rational.  Units yield 1 (no nonzero roots).
    """
    cs = p.dense()
    if not cs:
        raise ValueError("the zero polynomial has no root radius")
    lead = cs[-1]
    return Fraction(1) + sum((abs(c / lead) for c in cs[:-1]), Fraction(0))


# -- numeric roots: Aberth-Ehrlich simultaneous iteration -------------------


def _horner_pair(ctx, coeffs_mp, z):
    """Evaluate p and p' simultaneously (coeffs ascending, mpmath numbers)."""
    p = ctx.mpc(0)
    dp = ctx.mpc(0)
    for c in reversed(coeffs_mp):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def complex_roots(p: LaurentPoly, tol: float, seed: int = 0) -> list[tuple[complex, int]]:
    """All nonzero roots of ``p`` with multiplicities.

    Factors of t are stripped first.  Roots are located by the
    Aberth-Ehrlich simultaneous iteration in elevated working precision,
    clustered at radius tol**0.5 (clusters report summed multiplicity), and
    each returned value z is certified against
    ``|phat(z)| <= tol * ||phat||_1 * max(1, |z|)^deg`` for the monic
    normalization phat.  Raises :class:`RootFindingError` on failure.

    Runs in a private mpmath context, so concurrent callers never touch
    shared precision state.
    """
    if not p:
        raise ValueError("cannot extract roots of the zero polynomial")
    if not (0 < tol <= 1e-4):
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    cs = p.dense()
    deg = len(cs) - 1
    if deg == 0:
        return []
    lead = cs[-1]
    monic = [c / lead for c in cs]

    ctx = MPContext()
    ctx.dps = max(60, 2 * deg + 30)
    coeffs_mp = [ctx.mpf(c.numerator) / ctx.mpf(c.denominator) for c in monic]
    norm1 = sum(abs(c) for c in coeffs_mp)
    approx = _aberth(ctx, coeffs_mp, norm1, deg, seed, display=p.display())
    clusters = _cluster(approx, tol ** 0.5)
    out = []
    for center, mult in clusters:
        val, _ = _horner_pair(ctx, coeffs_mp, center)
        bound = tol * norm1 * max(1.0, abs(center)) ** deg
        if abs(val) > bound:
            raise RootFindingError(
                f"root residual {ctx.nstr(abs(val), 8)} exceeds bound for {p.display()}"
            )
        out.append((complex(center), mult))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _aberth(ctx, coeffs_mp, norm1, deg, seed, display):
    rng = random.Random(seed)
    radius = ctx.mpf(1) + max(abs(c) for c in coeffs_mp)
    offset = rng.uniform(0.1, 0.4)
    z = [
        radius * ctx.expjpi(2 * (k + offset) / deg) * ctx.mpf("0.7")
        for k in range(deg)
    ]
    # relative residual target: far tighter than any admissible tol, but
    # reachable in linearly many sweeps even at multiple roots
    target = ctx.mpf(10) ** (-(ctx.dps // 2))
    tiny = ctx.mpf(10) ** (-(ctx.dps - 10))
    for _ in range(600):
        worst_res = ctx.mpf(0)
        worst_step = ctx.mpf(0)
        for k in range(deg):
            pv, dv = _horner_pair(ctx, coeffs_mp, z[k])
            res = abs(pv) / (norm1 * max(ctx.mpf(1), abs(z[k])) ** deg)
            if res > worst_res:
                worst_res = res
            if pv == 0:
                continue
            if dv == 0:
                z[k] += tiny * (1 + abs(z[k])) * ctx.mpc(1, 1)
                worst_step = ctx.mpf(1)
                continue
            w = pv / dv
            s = ctx.mpc(0)
            collision = False
            for j in range(deg):
                if j == k:
                    continue
                dz = z[k] - z[j]
                if dz == 0:
                    collision = True
                    break
                s += 1 / dz
            if collision:
                z[k] += tiny * (1 + abs(z[k])) * ctx.mpc(1, -1)
                worst_step = ctx.mpf(1)
                continue
            denom = 1 - w * s
            delta = w if denom == 0 else w / denom
            z[k] -= delta
            step = abs(delta) / max(ctx.mpf(1), abs(z[k]))
            if step > worst_step:
                worst_step = step
        if worst_res < target or worst_step < tiny:
            return z
    raise RootFindingError(f"Aberth iteration did not converge for {display}")


def _cluster(points, radius):
    """Single-linkage clustering; returns (centroid, size) pairs."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    out = []
    for members in groups.values():
        center = sum(members) / len(members)
        out.append((center, len(members)))
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


def _reduce_row(a, u, i, k, q):
    """row_i -= q * row_k in ``a`` and ``u``; then divide row i of both by
    the rational content of row i of ``a``, which tames fraction swell."""
    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
    g = _content([c for e in a[i] for c in e.coeffs.values()])
    if g != 1:
        r = 1 / g
        a[i] = [e.scale(r) for e in a[i]]
        u[i] = [e.scale(r) for e in u[i]]


def _clear_column(a, u, pos):
    """Euclidean row steps below the pivot a[pos][pos], mirrored on ``u``;
    True if a nonzero remainder (of smaller degree) became the pivot."""
    for i in range(pos + 1, len(a)):
        if a[i][pos]:
            q, _ = divmod_poly(a[i][pos], a[pos][pos])
            _reduce_row(a, u, i, pos, q)
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
            _reduce_row(a, u, pos, offender, -LaurentPoly.one())

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
