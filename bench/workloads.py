"""Seeded inputs, top-level calls and output checks for the four workloads.

Every workload is one *pass*: a fixed-length list of top-level calls into
``torsionpoly`` built from ``--seed``.  The seed draws the random parts
(presentations, matrices, relator forms, call order);
the shape of a pass (how many calls of which kind and size) is the same for
every seed, so that the cost of a pass moves with the program and not with
the seed.

Each call carries its own check.  The checks use oracles that do not go
through the code under test where one exists: closed-form cyclotomic
products for torus knots and composites, brute-force epimorphism counts,
the quadratic formula for candidate characteristic polynomials, and 2x2
matrix arithmetic for SL2(Z) words.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from torsionpoly import bundles, cli, corpus, presentation, sl2z, torsion

@dataclass
class Call:
    """One top-level call of a pass and the check of its output.

    ``check(output, expected)`` returns None when the output is right and a
    one-line reason otherwise.  ``reference`` computes ``expected`` when it
    can only be obtained by running the program (the CLI workload renders
    the same command in-process); it runs once, outside any timed pass.
    """

    label: str
    fn: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expected: Any = None
    reference: Callable[[], Any] | None = None


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # calls run by the traced pass; the CLI workload traces the in-process
    # form of its commands because a child process cannot be traced
    traced_calls: list[Call] = field(default_factory=list)
    # child processes report their own peak memory (the CLI workload)
    child_rss: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.traced_calls:
            self.traced_calls = self.calls


# -- integer polynomial oracle ----------------------------------------------
# Dense ascending integer coefficient lists; independent of torsionpoly.laurent.


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    lead = den[-1]
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], lead)
        if r:
            raise ArithmeticError("inexact division in oracle")
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact division in oracle")
    return q


def _t_pow_minus_one(n: int) -> list[int]:
    return [-1] + [0] * (n - 1) + [1]


@dataclass(frozen=True)
class CyclotomicQuotient:
    """prod(t^n - 1 for n in num) / prod(t^n - 1 for n in den), a polynomial.

    Its roots are roots of unity, kept exactly as angles k/N in [0, 1).
    """

    num: tuple[int, ...]
    den: tuple[int, ...]

    def coeffs(self) -> list[int]:
        top = [1]
        for n in self.num:
            top = _mul(top, _t_pow_minus_one(n))
        bottom = [1]
        for n in self.den:
            bottom = _mul(bottom, _t_pow_minus_one(n))
        return _divexact(top, bottom)

    def root_angles(self) -> Counter:
        angles: Counter = Counter()
        for n in self.num:
            angles.update(Fraction(k, n) for k in range(n))
        for n in self.den:
            angles.subtract(Fraction(k, n) for k in range(n))
        if any(v < 0 for v in angles.values()):
            raise ArithmeticError("not a polynomial")
        return +angles


def torus_delta(p: int, q: int) -> CyclotomicQuotient:
    """Delta of T(p, q): (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    return CyclotomicQuotient((p * q, 1), (p, q))


def composite_delta(pq, rs) -> tuple[CyclotomicQuotient, tuple[int, int, int]]:
    """Factors of the group x^p = y^q, u^r = v^s, x y^-1 = u v^-1.

    With psi = (q a, p a, s b, r b) its delta is the product of three
    factors: Delta_{p,q}(t^a), Delta_{r,s}(t^b) and the gluing factor
    (t^n - 1)(t - 1) / ((t^a - 1)(t^b - 1)), n = psi(x y^-1).
    """
    (p, q), (r, s) = pq, rs
    g = math.gcd(q - p, s - r)
    a, b = (s - r) // g, (q - p) // g
    n = a * (q - p)
    num = (a * p * q, a, b * r * s, b, n, 1)
    den = (a * p, a * q, b * r, b * s, a, b)
    return CyclotomicQuotient(num, den), (a, b, n)


def _int_coeffs(delta) -> list[int] | None:
    out = []
    for c in delta.dense():
        if c.denominator != 1:
            return None
        out.append(c.numerator)
    return out


def _canonical_problem(delta) -> str | None:
    """Reason the program's delta is not the canonical associate, or None."""
    if not delta:
        return None
    if delta.min_exp != 0:
        return f"lowest exponent {delta.min_exp} != 0"
    cs = _int_coeffs(delta)
    if cs is None:
        return "non-integer coefficient"
    if cs[-1] <= 0:
        return "leading coefficient not positive"
    g = 0
    for c in cs:
        g = math.gcd(g, c)
    if g != 1:
        return f"coefficients share factor {g}"
    return None


def _cauchy(cs: list[Fraction]) -> Fraction:
    lead = cs[-1]
    return 1 + sum((abs(c / lead) for c in cs[:-1]), Fraction(0))


def _certificate_problem(rep) -> str | None:
    """Check a report's exact certificate fields against a recomputation."""
    m = len(rep.psi)
    if rep.c != 1 + math.factorial(m) * Fraction(rep.complexity) ** m:
        return f"c = {rep.c} is not 1 + m! k^m for k = {rep.complexity}"
    if not rep.delta:
        return None if rep.verdict == "vacuous" else f"zero delta with verdict {rep.verdict}"
    cs = rep.delta.dense()
    if len(cs) == 1:
        return None if rep.verdict == "vacuous" else f"unit delta with verdict {rep.verdict}"
    upper, lower = _cauchy(cs), _cauchy(cs[::-1])
    if (rep.cauchy_radius, rep.cauchy_radius_reciprocal) != (upper, lower):
        return "Cauchy radii differ from recomputation"
    if rep.exact_certified != (upper <= rep.c and lower <= rep.c):
        return "exact_certified disagrees with the radii"
    return None


def _root_angle_problem(roots, expected: Counter) -> str | None:
    """Match numeric roots to exact roots of unity, with multiplicity."""
    got: Counter = Counter()
    keys = list(expected)
    for z, mult in roots:
        if abs(abs(z) - 1) > 1e-9:
            return f"root {z} is off the unit circle"
        ang = (cmath.phase(z) / (2 * math.pi)) % 1.0
        best = min(keys, key=lambda k: min(abs(float(k) - ang), 1 - abs(float(k) - ang)))
        if min(abs(float(best) - ang), 1 - abs(float(best) - ang)) > 1e-9:
            return f"root {z} is not an expected root of unity"
        got[best] += mult
    if got != expected:
        return "root multiplicities differ from the cyclotomic factorization"
    return None


def _check_cyclotomic_report(rep, expected) -> str | None:
    quotient, full = expected
    if rep.verdict != "pass":
        return f"verdict {rep.verdict}"
    if _int_coeffs(rep.delta) != quotient.coeffs():
        return f"delta {rep.delta.display()} differs from the closed form"
    problem = _certificate_problem(rep)
    if problem or not full:
        return problem
    if sum(m for _, m in rep.roots) != rep.delta.span():
        return "root multiplicities do not sum to the degree"
    return _root_angle_problem(rep.roots, quotient.root_angles())


def _check_generic_report(rep, expected) -> str | None:
    problem = _canonical_problem(rep.delta) or _certificate_problem(rep)
    if problem:
        return problem
    if rep.verdict != "pass":
        return f"verdict {rep.verdict}"
    cs = [float(c) for c in rep.delta.dense()]
    deg = len(cs) - 1
    if deg != expected:
        return f"degree {deg} != {expected}"
    if sum(m for _, m in rep.roots) != deg:
        return "root multiplicities do not sum to the degree"
    norm = sum(abs(c) for c in cs)
    for z, _ in rep.roots:
        val = 0j
        for c in reversed(cs):
            val = val * z + c
        if abs(val) > 1e-6 * norm * max(1.0, abs(z)) ** deg:
            return f"residual {abs(val):.3g} at root {z}"
    return None


# -- presentations ------------------------------------------------------------

NAMES = "abcdefgh"


def _render(names, relators) -> str:
    lines = ["gens: " + ", ".join(names)]
    for rel in relators:
        toks = []
        for letter in rel:
            name = names[abs(letter) - 1]
            toks.append(name if letter > 0 else name[0].upper() + name[1:])
        lines.append("rel: " + " ".join(toks))
    return "\n".join(lines) + "\n"


def _power(gen: int, k: int) -> list[int]:
    return [gen if k > 0 else -gen] * abs(k)


def _torus_form(rng: random.Random, p: int, q: int) -> tuple[str, tuple[int, int]]:
    """One of several presentations of the T(p, q) group, with its psi.

    The relator x^p y^-q may be inverted, the generator order swapped and
    psi negated; all of these present the same group and give the same
    canonical delta.  (Rotating the relator would too, but it changes the
    cost of the exact pipeline by up to half.)
    """
    rel = _power(1, p) + _power(2, -q)
    if rng.random() < 0.5:
        rel = [-a for a in reversed(rel)]
    psi = [q, p]
    if rng.random() < 0.5:
        rel = [(3 - abs(a)) * (1 if a > 0 else -1) for a in rel]
        psi.reverse()
    sign = rng.choice((1, -1))
    return _render(("x", "y"), [rel]), (sign * psi[0], sign * psi[1])


def _random_relator(rng: random.Random, exps: list[int], length: int) -> list[int]:
    """A freely and cyclically reduced relator with the given exponent sums."""
    m = len(exps)
    base = [letter for j, e in enumerate(exps) for letter in _power(j + 1, e)]
    extra = length - len(base)
    if extra < 0 or extra % 2:
        raise ValueError("length does not fit the exponent sums")
    for _ in range(10_000):
        letters = list(base)
        for _ in range(extra // 2):
            g = rng.randrange(1, m + 1)
            letters += [g, -g]
        rng.shuffle(letters)
        cyclic = letters + letters[:1]
        if all(x != -y for x, y in zip(cyclic, cyclic[1:])):
            return letters
    raise RuntimeError("could not draw a reduced relator")


def _brute_force_epimorphisms(exp_rows: list[list[int]], m: int, bound: int):
    """Primitive psi in [-bound, bound]^m killing every relator, one per sign."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=m):
        if not any(v) or next(x for x in v if x) < 0:
            continue
        if any(sum(a * b for a, b in zip(row, v)) for row in exp_rows):
            continue
        g = 0
        for x in v:
            g = math.gcd(g, x)
        if g == 1:
            out.append(v)
    return out


def _exponent_sums(rel, m):
    row = [0] * m
    for a in rel:
        row[abs(a) - 1] += 1 if a > 0 else -1
    return row


# -- roots --------------------------------------------------------------------

# degree (p-1)(q-1): 8, 12, 18, 20, 20, 24, 28, 30, 42; the four largest
# are the slowest calls of a pass, so the tail percentile falls among them
ROOTS_TORUS = {
    "full": [(2, 9), (3, 7), (4, 7), (5, 6), (3, 11), (4, 9), (5, 8), (6, 7), (7, 8)],
    "smoke": [(2, 3), (2, 5)],
}
# generic one-relator deltas: exact degrees
ROOTS_GENERIC = {"full": (15, 17, 19, 21), "smoke": (4,)}
ROOTS_GENERIC_LENGTH = {"full": (30, 36), "smoke": (10, 12)}
# pairs of torus knots glued along x y^-1 = u v^-1; equal pairs square a factor
ROOTS_COMPOSITE = {
    "full": [((2, 3), (2, 3)), ((2, 5), (2, 5)), ((3, 4), (3, 4)), ((2, 3), (2, 5))],
    "smoke": [((2, 3), (2, 3))],
}


def _annulus_call(label, text, psi, check, expected, certify_only=False):
    # the root finder keeps its default seed: its start points change the
    # number of Aberth sweeps, which would make the cost depend on --seed
    def fn():
        pres = presentation.parse_presentation(text)
        return torsion.annulus_certify(pres, psi, certify_only=certify_only)

    return Call(label, fn, check, expected)


def one_relator_degree(letters: list[int], psi) -> int | None:
    """Degree of delta for a two-generator one-relator presentation.

    The fundamental formula of Fox calculus gives F_x (t^a - 1) = -F_y (t^b - 1)
    for the specialized derivatives, (a, b) = psi; with gcd(a, b) = 1 the gcd
    of F_x and F_y is F_x (t - 1) / (t^b - 1), so deg delta = span(F_x) - |b| + 1
    (the same with x and y exchanged when b = 0).  None when F_x vanishes.
    """
    j = 0 if psi[1] else 1
    coeffs: dict[int, int] = {}
    weight = 0
    for a in letters:
        step = psi[abs(a) - 1] if a > 0 else -psi[abs(a) - 1]
        if abs(a) - 1 == j:  # d(x)/dx = 1 before the letter, d(x^-1)/dx = -x^-1 after it
            e = weight if a > 0 else weight + step
            coeffs[e] = coeffs.get(e, 0) + (1 if a > 0 else -1)
        weight += step
    exps = [e for e, c in coeffs.items() if c]
    if not exps:
        return None
    return max(exps) - min(exps) - abs(psi[1 - j]) + 1


def _generic_one_relators(rng, degrees, lengths):
    """One-relator presentations whose deltas have exactly the given degrees.

    Random reduced relators are drawn until every degree is filled, so the
    root-finding work of the set changes little with the seed.  The degree
    comes from ``one_relator_degree``, not from the program.
    """
    wanted = Counter(degrees)
    found = []
    lo, hi = lengths
    for _ in range(100_000):
        if not wanted:
            return found
        length = rng.randint(lo, hi)
        letters = []
        while len(letters) < length:
            a = rng.choice((1, -1, 2, -2))
            if not letters or letters[-1] != -a:
                letters.append(a)
        e1, e2 = _exponent_sums(letters, 2)
        g = math.gcd(e1, e2)
        if letters[0] == -letters[-1] or g == 0:
            continue
        psi = (e2 // g, -e1 // g)
        deg = one_relator_degree(letters, psi)
        if wanted[deg] > 0:
            wanted[deg] -= 1
            wanted = +wanted
            found.append((_render(("x", "y"), [letters]), psi, deg))
    raise RuntimeError(f"no one-relator presentations of degrees {sorted(wanted.elements())}")


def build_roots(rng: random.Random, scale: str) -> Workload:
    calls = []
    for p, q in ROOTS_TORUS[scale]:
        text, psi = _torus_form(rng, p, q)
        calls.append(_annulus_call(f"torus T({p},{q})", text, psi,
                                   _check_cyclotomic_report, (torus_delta(p, q), True)))
    for text, psi, deg in _generic_one_relators(rng, ROOTS_GENERIC[scale],
                                                ROOTS_GENERIC_LENGTH[scale]):
        calls.append(_annulus_call(f"generic degree {deg}", text, psi,
                                   _check_generic_report, deg))
    for pq, rs in ROOTS_COMPOSITE[scale]:
        if rng.random() < 0.5:
            pq, rs = rs, pq
        (p, q), (r, s) = pq, rs
        quotient, (a, b, _) = composite_delta(pq, rs)
        rels = [_power(1, p) + _power(2, -q), _power(3, r) + _power(4, -s), [1, -2, 4, -3]]
        names = ["x", "y", "u", "v"]
        text = _render(names, rels)
        sign = rng.choice((1, -1))
        psi = tuple(sign * v for v in (q * a, p * a, s * b, r * b))
        calls.append(_annulus_call(f"composite T{pq}+T{rs}", text, psi,
                                   _check_cyclotomic_report, (quotient, True)))
    rng.shuffle(calls)
    return Workload("roots", calls)


# -- exact-scan -----------------------------------------------------------------

# (generators, exponent-sum rows, relator lengths); columns are permuted and
# signs flipped by the seed, which keeps the number of maps to Z fixed
_ROWS_4_3 = [[1, -1, 0, 0], [0, 0, 1, -1], [1, 0, -1, 0]]
_ROWS_4_3_CHAIN = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
_ROWS_5_4 = [[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, 1]]
_ROWS_5_4_PAIRS = [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [1, 0, -1, 0, 0], [0, 0, 0, 1, -1]]
_ROWS_5_5 = [[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1],
             [1, 0, 0, 0, -1]]
# Every template has a one-dimensional kernel, so each scan meets a single
# map to Z; the random presentations exercise rank, Smith form and minors of
# 3x4 to 5x5 Jacobians and stay cheaper than the torus knots below, so the
# median and the tail of a pass fall on calls whose cost the seed does not move.
SCAN_TEMPLATES = {
    "full": [
        (4, _ROWS_4_3, [10, 12, 12]),
        (4, _ROWS_4_3_CHAIN, [12, 12, 12]),
        (5, _ROWS_5_4, [6, 6, 6, 6]),
        (5, _ROWS_5_4_PAIRS, [6, 6, 6, 6]),
        (5, _ROWS_5_5, [6, 6, 6, 6, 6]),
        (4, _ROWS_4_3, [10, 12, 12]),
    ],
    "smoke": [(4, _ROWS_4_3, [4, 6, 6])],
}
# certify-only torus knots of degree 420 to 1080, in the form x^p y^-q: other
# forms of the same group cost up to twice as much in the exact pipeline
SCAN_TORUS = {
    "full": [(21, 22), (23, 25), (23, 29), (25, 26), (27, 29), (29, 31), (31, 37), (32, 35),
             (31, 33)],
    "smoke": [(3, 4)],
}
SCAN_BOUND = 2


def _check_scan(reports, expected) -> str | None:
    maps, delta = expected
    if [r.psi for r in reports] != maps:
        return f"{len(reports)} maps to Z, brute force finds {len(maps)}"
    for rep in reports:
        problem = _canonical_problem(rep.delta) or _certificate_problem(rep)
        if problem:
            return f"psi {rep.psi}: {problem}"
        if rep.roots:
            return f"psi {rep.psi}: roots computed under certify_only"
        if delta is not None and _int_coeffs(rep.delta) != delta:
            return f"psi {rep.psi}: delta {rep.delta.display()} != {delta}"
    return None


def _scan_call(label, text, exp_rows, m, delta=None):
    def fn():
        return torsion.scan(presentation.parse_presentation(text), SCAN_BOUND, certify_only=True)

    maps = _brute_force_epimorphisms(exp_rows, m, SCAN_BOUND)
    return Call(label, fn, _check_scan, (maps, delta))


def build_exact_scan(rng: random.Random, scale: str) -> Workload:
    calls = []
    for m, rows, lengths in SCAN_TEMPLATES[scale]:
        perm = list(range(m))
        rng.shuffle(perm)
        flips = [rng.choice((1, -1)) for _ in range(m)]
        rels = []
        for row, length in zip(rows, lengths):
            exps = [row[perm[j]] * flips[j] for j in range(m)]
            rels.append(_random_relator(rng, exps, length))
        exp_rows = [_exponent_sums(rel, m) for rel in rels]
        text = _render(NAMES[:m], rels)
        calls.append(_scan_call(f"random m={m} r={len(rels)}", text, exp_rows, m))
    for p, q in SCAN_TORUS[scale]:
        text, psi = _render(("x", "y"), [_power(1, p) + _power(2, -q)]), (q, p)
        calls.append(_annulus_call(f"certify-only T({p},{q})", text, psi,
                                   _check_cyclotomic_report, (torus_delta(p, q), False),
                                   certify_only=True))
    # genus-two surface x I, as in the corpus: every primitive psi gives
    # delta = t - 1, the gcd of the entries t^psi(g) - 1 of its Jacobian
    if scale == "full":
        entry = next(e for e in corpus.THREE_MANIFOLD_CORPUS
                     if e.name == "genus-two-surface-times-interval")
        calls.append(_scan_call("genus-two corpus entry", entry.text, [[0, 0, 0, 0]], 4,
                                delta=[-1, 1]))
    rng.shuffle(calls)
    return Workload("exact-scan", calls)


# -- monodromy --------------------------------------------------------------------

MONO_MATRICES = {"full": 8, "smoke": 2}
MONO_POWERS = {"full": 5, "smoke": 2}
MONO_LADDER = {"full": 7, "smoke": 3}  # powers of [[2,1],[1,1]] up to [[610,377],[377,233]]
MONO_CENSUS_BOUND = {"full": 50, "smoke": 8}
MONO_CANDIDATES = (2, 2, 2)  # beta, denominator bound, c


def _m_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _m_pow(x, n):
    out = [[1, 0], [0, 1]]
    for _ in range(n):
        out = _m_mul(out, x)
    return out


def _sl2_matrix(rng: random.Random, bound: int = 10):
    """Uniform among hyperbolic (|trace| > 2) det-1 integer matrices with
    entries in [-bound, bound].

    Elliptic and parabolic matrices have powers with a double eigenvalue,
    which costs the root finder many times more; drawing them by chance
    would make the cost of a pass depend on the seed.
    """
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if a and (1 + b * c) % a == 0:
            d = (1 + b * c) // a
            if abs(d) <= bound and abs(a + d) > 2:
                return [[a, b], [c, d]]


def _quadratic(trace: int) -> list[int]:
    return [1, -trace, 1]


def _check_power_cover(rep, expected) -> str | None:
    base, power = expected
    if not (rep.exact_ok and rep.numeric_ok and rep.ok):
        return f"exact_ok={rep.exact_ok} numeric_ok={rep.numeric_ok}"
    if _int_coeffs(rep.base) != base or _int_coeffs(rep.power) != power:
        return "characteristic polynomial differs from t^2 - tr t + 1"
    return None


def _check_ladder(rep, expected) -> str | None:
    if not rep.ok:
        return "torsion polynomial differs from the characteristic polynomial"
    if _int_coeffs(rep.torsion) != expected:
        return f"torsion {rep.torsion.display()} differs from t^2 - tr t + 1"
    return None


def _candidate_oracle(beta, n, c) -> set[tuple[Fraction, ...]]:
    """Quadratic-formula enumeration of t^2 + b t +- 1 with roots in [1/c, c]."""
    assert beta == 2
    denom = n ** beta
    top = math.floor(2 * c * denom)
    found = set()
    for const in (1, -1):
        for num in range(-top, top + 1):
            b = Fraction(num, denom)
            disc = complex(float(b) ** 2 - 4 * const)
            for z in ((-float(b) + cmath.sqrt(disc)) / 2, (-float(b) - cmath.sqrt(disc)) / 2):
                if not (1 / c - 1e-9 <= abs(z) <= c + 1e-9):
                    break
            else:
                found.add((Fraction(const), b, Fraction(1)))
    return found


def _check_candidates(polys, expected) -> str | None:
    got = [tuple(p.dense()) for p in polys]
    if got != sorted(got):
        return "candidates are not sorted"
    if set(got) != expected:
        return f"{len(got)} candidates, the quadratic formula finds {len(expected)}"
    return None


def _census_per_trace(bound):
    out = []
    for tau in range(3, bound + 1):
        out.append((tau, sl2z.classes_with_trace(tau)))
        out.append((-tau, sl2z.classes_with_trace(-tau)))
    return out


def _rl_trace(word) -> int:
    m = [[1, 0], [0, 1]]
    for a, b in word.blocks:
        m = _m_mul(m, _m_mul([[1, a], [0, 1]], [[1, 0], [b, 1]]))
    return word.sign * (m[0][0] + m[1][1])


def _check_census(census, expected) -> str | None:
    bound, counts = expected
    if [tau for tau, _ in census] != [s * t for t in range(3, bound + 1) for s in (1, -1)]:
        return "census traces are not +-3..bound"
    for tau, words in census:
        if any(_rl_trace(w) != tau for w in words):
            return f"a class listed under trace {tau} has another trace"
    got = [(tau, [(w.blocks, w.sign) for w in words]) for tau, words in census]
    if counts.get("census") is None:
        counts["census"] = got  # the first census run becomes the reference
    elif got != counts["census"]:
        return "per-trace census differs from the single-sweep census"
    return None


def build_monodromy(rng: random.Random, scale: str) -> Workload:
    calls = []
    for _ in range(MONO_MATRICES[scale]):
        mat = _sl2_matrix(rng)
        base = _quadratic(mat[0][0] + mat[1][1])
        for n in range(1, MONO_POWERS[scale] + 1):
            mn = _m_pow(mat, n)
            calls.append(Call(f"power_cover {mat} n={n}",
                              lambda mat=mat, n=n: bundles.power_cover(mat, n),
                              _check_power_cover, (base, _quadratic(mn[0][0] + mn[1][1]))))
    for k in range(1, MONO_LADDER[scale] + 1):
        mat = _m_pow([[2, 1], [1, 1]], k)
        calls.append(Call(f"verify_monodromy_torsion {mat}",
                          lambda mat=mat: bundles.verify_monodromy_torsion(mat),
                          _check_ladder, _quadratic(mat[0][0] + mat[1][1])))
    calls.append(Call("enumerate_candidate_charpolys(2, 2, 2)",
                      lambda: bundles.enumerate_candidate_charpolys(*MONO_CANDIDATES),
                      _check_candidates, _candidate_oracle(*MONO_CANDIDATES)))
    bound = MONO_CENSUS_BOUND[scale]
    shared: dict = {}  # both census calls compare against the same reference
    calls.append(Call(f"census per trace to {bound}", lambda: _census_per_trace(bound),
                      _check_census, (bound, shared)))
    calls.append(Call(f"census sweep to {bound}", lambda: sl2z.sol_candidates(bound),
                      _check_census, (bound, shared)))
    rng.shuffle(calls)
    return Workload("monodromy", calls)


# -- cli-cold ------------------------------------------------------------------------

CLI_CORPUS = {"full": None, "smoke": 2}  # None: every corpus entry
CLI_SCAN_ENTRIES = ("trefoil", "figure-eight", "cinquefoil", "torus-knot-3-4", "nil-bundle")


def render_in_process(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)`` run in this process."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _run_child(argv, stdin_text, root, env, rss_sink) -> tuple[int, str]:
    """Run the CLI in a fresh interpreter; record the child's peak RSS."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "torsionpoly.cli", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        cwd=root, env=env,
    )
    try:
        proc.stdin.write(stdin_text.encode())
        proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss_sink.append(usage.ru_maxrss / 1024)
    return proc.returncode, out.decode()


def _check_cli(output, expected) -> str | None:
    code, text = output
    if code not in (0, 3):  # 3: a certify-only verdict of unknown
        return f"exit code {code}"
    if (code, text) != expected:
        if code != expected[0]:
            return f"exit code {code} != in-process {expected[0]}"
        return "stdout differs from the in-process rendering"
    return None


def build_cli_cold(rng: random.Random, scale: str, seed: int, root: str) -> Workload:
    commands = []
    for flags in ([], ["--certify-only"]):
        for entry in corpus.THREE_MANIFOLD_CORPUS[:CLI_CORPUS[scale]]:
            psi = ",".join(str(v) for v in entry.psi)
            commands.append((f"torsion {entry.name} {' '.join(flags)}".strip(),
                             ["torsion", "--pres", "-", "--psi", psi, *flags,
                              "--json", "--seed", str(seed)], entry.text))
    scan_name = rng.choice(CLI_SCAN_ENTRIES)
    entry = next(e for e in corpus.THREE_MANIFOLD_CORPUS if e.name == scan_name)
    commands.append((f"scan {entry.name}", ["scan", "--pres", "-", "--bound", "2",
                                            "--certify-only", "--json", "--seed", str(seed)],
                     entry.text))
    mat = _sl2_matrix(rng)
    entries_csv = ",".join(str(v) for row in mat for v in row)
    commands.append(("mapping-torus", ["mapping-torus", f"--matrix={entries_csv}",
                                       "--power", "3", "--json"], ""))
    commands.append(("sol-census", ["sol-census", "--trace-bound", "10", "--json"], ""))
    rng.shuffle(commands)

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    rss: list[float] = []
    calls, traced = [], []
    for label, argv, stdin_text in commands:
        ref = lambda argv=argv, stdin_text=stdin_text: render_in_process(argv, stdin_text)
        child = lambda argv=argv, stdin_text=stdin_text: _run_child(argv, stdin_text, root, env, rss)
        calls.append(Call(label, child, _check_cli, reference=ref))
        traced.append(Call(f"{label} (in-process)", ref, _check_cli, reference=ref))
    return Workload("cli-cold", calls, traced, rss)


def build(name: str, seed: int, scale: str = "full", root: str = ".") -> Workload:
    """The workload's pass for this seed; same seed, same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "roots":
        return build_roots(rng, scale)
    if name == "exact-scan":
        return build_exact_scan(rng, scale)
    if name == "monodromy":
        return build_monodromy(rng, scale)
    if name == "cli-cold":
        return build_cli_cold(rng, scale, seed, root)
    raise ValueError(f"unknown workload {name!r}")
