"""Torsion polynomials of maps to Z, with certified root-annulus verdicts.

Pipeline: specialize the Fox Jacobian of a presentation through the ring
map sending a word w to t^(psi(w)), take the GCD of the r-rowed minors
(r = rank, read off the Smith form as its number of invariant factors),
and compare every nonzero root of the result against the annulus [1/c, c]
for c = 1 + m! * k^m.  The specialization walks each relator once with a
running psi-weight, so no group-ring derivative is ever built.  The
GCD-of-minors route is cross-checked against the product of Smith
invariant factors, and the annulus verdict prefers exact rational
Cauchy-radius certificates over floating point.

For presentations of 3-manifold groups the normalized GCD is the torsion
polynomial of the corresponding infinite cyclic cover; for arbitrary
presentations it is still a well-defined elimination invariant, but that
topological reading is conditional on the input.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import (
    InvariantViolation,
    LaurentPoly,
    RootFindingError,
    cauchy_root_radius,
    complex_roots,
    determinant,
    gcd,
    normalize,
    reciprocal,
    smith_normal_form,
)
from .presentation import (
    FinitePresentation,
    complexity_k,
    enumerate_epimorphisms,
    root_bound,
    validate_epimorphism,
)

MINOR_ENUMERATION_CAP = 10**6
# Largest degree bound (see specialize_jacobian) that the exact core expands
# into dense polynomials; about 18 times the bound of T(32,35), 1,120, the
# largest input of the exact-scan benchmark.
DEGREE_BUDGET = 20_000

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_BOUNDARY = "boundary-indeterminate"
VERDICT_VACUOUS = "vacuous"
VERDICT_UNKNOWN = "unknown"


class InvalidEpimorphism(ValueError):
    pass


class SizeBudgetExceeded(ValueError):
    """The torsion polynomial may exceed :data:`DEGREE_BUDGET` in degree."""


@dataclass(frozen=True)
class SpecializedJacobian:
    """Fox Jacobian with words specialized to powers of t.

    Entries have integer coefficients and their total l1 norm is at most
    the presentation complexity (checked at construction).
    """

    entries: tuple[tuple[LaurentPoly, ...], ...]
    psi: tuple[int, ...]
    complexity: int
    num_generators: int

    @property
    def num_relators(self) -> int:
        return len(self.entries)

    def total_norm(self) -> Fraction:
        return sum(
            (q.norm_l1() for row in self.entries for q in row), Fraction(0)
        )


def specialize_jacobian(pres: FinitePresentation, psi) -> SpecializedJacobian:
    """Apply w -> t^(psi(w)) entrywise to the Fox Jacobian of ``pres``.

    One left-to-right pass per relator with a running psi-weight e: the
    letter x_j contributes +t^e to column j before e grows by psi_j, and
    X_j contributes -t^e after e shrinks by psi_j.  These are exactly the
    images of the Fox derivative terms +prefix and -prefix * X_j.

    Every exponent met in a relator's row lies in the range of its running
    weight, and that range contains 0; so the sum of the ranges over all
    relators bounds the degree of every minor and of the torsion
    polynomial, and the exponent width of the matrix that the Smith form
    and the Bareiss pass expand.

    Raises :class:`InvalidEpimorphism` unless psi kills every relator and
    is surjective, and :class:`SizeBudgetExceeded`, before any polynomial is
    built, if that bound exceeds :data:`DEGREE_BUDGET`.
    """
    psi = tuple(int(x) for x in psi)
    reason = validate_epimorphism(pres, psi)
    if reason is not None:
        raise InvalidEpimorphism(reason)
    k = complexity_k(pres)
    raw = []
    degree_bound = 0
    for r in pres.relators:
        cols: list[dict[int, int]] = [{} for _ in range(pres.num_generators)]
        e = lo = hi = 0
        for a in r:
            j = abs(a) - 1
            if a > 0:
                cols[j][e] = cols[j].get(e, 0) + 1
                e += psi[j]
            else:
                e -= psi[j]
                cols[j][e] = cols[j].get(e, 0) - 1
            if e < lo:
                lo = e
            elif e > hi:
                hi = e
        degree_bound += hi - lo
        raw.append(cols)
    if degree_bound > DEGREE_BUDGET:
        raise SizeBudgetExceeded(
            f"the torsion polynomial may reach degree {degree_bound}, "
            f"past the budget of {DEGREE_BUDGET}")
    rows = tuple(tuple(LaurentPoly(c) for c in cols) for cols in raw)
    jac = SpecializedJacobian(rows, psi, k, pres.num_generators)
    if jac.total_norm() > k:
        raise InvariantViolation("specialization increased the Jacobian norm")
    return jac


def _minor_gcd(jac: SpecializedJacobian, r: int) -> LaurentPoly:
    rows = range(jac.num_relators)
    cols = range(jac.num_generators)
    coeff_bound = root_bound(jac.num_generators, jac.complexity) - 1
    acc = LaurentPoly.zero()
    for ri in itertools.combinations(rows, r):
        for ci in itertools.combinations(cols, r):
            d = determinant([[jac.entries[i][j] for j in ci] for i in ri])
            if d.norm_l1() > coeff_bound:
                raise InvariantViolation("minor exceeds the m!k^m coefficient bound")
            acc = gcd(acc, d)
    return acc


def torsion_polynomial(jac: SpecializedJacobian) -> LaurentPoly:
    """Normalized GCD of the r-rowed minors of the specialized Jacobian.

    The rank r is the number of Smith invariant factors; the result is 1
    when r is zero.  When the number of r-minors is within the enumeration
    cap, the result is cross-checked against the product of the r
    invariant factors; past the cap the (provably associate)
    invariant-factor route is used alone.
    """
    factors, _ = smith_normal_form([list(row) for row in jac.entries])
    r = len(factors)
    if r == 0:
        return LaurentPoly.one()
    product = LaurentPoly.one()
    for f in factors:
        product = product * f
    via_snf = normalize(product)
    n_minors = math.comb(jac.num_relators, r) * math.comb(jac.num_generators, r)
    if n_minors > MINOR_ENUMERATION_CAP:
        return via_snf
    via_minors = _minor_gcd(jac, r)
    if via_minors != via_snf:
        raise InvariantViolation("minor-GCD and Smith routes disagree")
    return via_minors


@dataclass(frozen=True)
class AnnulusReport:
    """Outcome of testing one map to Z against the root annulus."""

    psi: tuple[int, ...]
    delta: LaurentPoly
    c: Fraction
    complexity: int
    roots: tuple[tuple[complex, int], ...]
    min_modulus: float | None
    max_modulus: float | None
    verdict: str
    cauchy_radius: Fraction | None
    cauchy_radius_reciprocal: Fraction | None
    exact_certified: bool
    failure: str | None = None


def _to_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def annulus_margin_verdict(lo: float, hi: float, c: Fraction, tol: float) -> str:
    """Numeric verdict for root moduli in [lo, hi] against the annulus
    [1/c, c]: ``fail`` past a boundary by more than 10*tol,
    ``boundary-indeterminate`` within 10*tol of one, else ``pass``."""
    margin = 10 * tol
    cf = _to_float(c)
    inv_cf = _to_float(1 / c)
    if hi > cf + margin or lo < inv_cf - margin:
        return VERDICT_FAIL
    if hi > cf - margin or lo < inv_cf + margin:
        return VERDICT_BOUNDARY
    return VERDICT_PASS


def _certify(delta: LaurentPoly, psi, c: Fraction, k: int, tol: float,
             certify_only: bool, seed: int) -> AnnulusReport:
    if not delta or delta.is_unit():
        radius = Fraction(1) if delta else None
        return AnnulusReport(tuple(psi), delta, c, k, (), None, None,
                             VERDICT_VACUOUS, radius, radius, bool(delta))
    upper = cauchy_root_radius(delta)
    upper_reciprocal = cauchy_root_radius(reciprocal(delta))
    exact = upper <= c and upper_reciprocal <= c
    report = AnnulusReport(tuple(psi), delta, c, k, (), None, None,
                           VERDICT_PASS if exact else VERDICT_UNKNOWN,
                           upper, upper_reciprocal, exact)
    if certify_only:
        return report
    try:
        roots = tuple(complex_roots(delta, tol, seed))
    except RootFindingError as exc:
        return dataclasses.replace(report, failure=str(exc))
    mods = [abs(z) for z, _ in roots]
    lo, hi = min(mods), max(mods)
    verdict = VERDICT_PASS if exact else annulus_margin_verdict(lo, hi, c, tol)
    return dataclasses.replace(report, roots=roots, min_modulus=lo, max_modulus=hi,
                               verdict=verdict)


def annulus_certify(pres: FinitePresentation, psi, tol: float = 1e-10,
                    certify_only: bool = False, seed: int = 0) -> AnnulusReport:
    """Compute the torsion polynomial of ``psi`` and test its root annulus.

    The verdict is ``pass`` whenever the exact rational certificate
    (Cauchy radii of the polynomial and its reciprocal both at most c)
    holds, regardless of numerics; otherwise numeric root moduli decide
    through :func:`annulus_margin_verdict`.  With ``certify_only`` no
    floating point runs and the verdict is pass, vacuous, or unknown.  A
    root-finder failure does not raise: the report keeps the exact
    certificates and records the failure message.
    """
    jac = specialize_jacobian(pres, psi)
    delta = torsion_polynomial(jac)
    c = root_bound(jac.num_generators, jac.complexity)
    return _certify(delta, jac.psi, c, jac.complexity, tol, certify_only, seed)


def scan(pres: FinitePresentation, bound: int, tol: float = 1e-10,
         certify_only: bool = False, seed: int = 0) -> list[AnnulusReport]:
    """One :func:`annulus_certify` report per enumerated map to Z with
    sup-norm <= bound; all of them share the constant c = 1 + m! * k^m."""
    return [annulus_certify(pres, psi, tol, certify_only, seed)
            for psi in enumerate_epimorphisms(pres, bound)]
