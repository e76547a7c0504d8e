"""Torsion polynomials of maps to Z, with certified root-annulus verdicts.

Pipeline: specialize the Fox Jacobian of a presentation through the ring
map sending a word w to t^(psi(w)), take the GCD of the r-rowed minors
(r = rank; all of them read off one fraction-free Gauss-Jordan pass, or
two below full row rank), and certify that every nonzero root of the
result lies in the annulus [1/c, c] for c = 1 + m! * k^m.  The
specialization walks each relator once with a running psi-weight, so no
group-ring derivative is ever built.  The GCD is certified exactly; at one
point mod a prime the rank is checked where it could be too low, and each
derived minor against its submatrix's determinant (a 1-minor is its
entry).  It starts from the minor with the fewest coefficients;
on deficiency one, psi primitive, divided by the factor Fox's formula
sum_j J_ij (t^psi_j - 1) = 0 puts in it, and the certificate still proves it.
The annulus verdict follows exactly from the m!k^m bound on the minors;
numeric roots are only reported, and checked against it.

For presentations of 3-manifold groups the normalized GCD is the torsion
polynomial of the corresponding infinite cyclic cover; for arbitrary
presentations it is still a well-defined elimination invariant, but that
topological reading is conditional on the input.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .laurent import (
    InvariantViolation,
    LaurentPoly,
    Minors,
    RootFindingError,
    _poly,
    cauchy_root_radius,
    complex_roots,
    coprime,
    exact_div,
    gcd,
    normalize,
    rank_det_mod_p,
    reciprocal,
    value_mod_p,
)
from .presentation import (
    FinitePresentation,
    complexity_k,
    enumerate_epimorphisms,
    epimorphism_failure,
    epimorphism_values,
    root_bound,
)

MINOR_ENUMERATION_CAP = 10**6
# Largest degree bound (see specialize_jacobian) that the exact core expands
# into dense polynomials; about 18 times the bound of T(32,35), 1,120, the
# largest input of the exact-scan benchmark.
DEGREE_BUDGET = 20_000
_CHECK_POINT = 16807  # a primitive root mod 2^31 - 1: no small-order cyclotomic vanishes

VERDICT_PASS = "pass"
VERDICT_VACUOUS = "vacuous"


class InvalidEpimorphism(ValueError):
    pass


class SizeBudgetExceeded(ValueError):
    """The input exceeds :data:`DEGREE_BUDGET` or :data:`MINOR_ENUMERATION_CAP`."""


class SpecializedJacobian(NamedTuple):
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

    def total_norm(self) -> int:
        return sum(sum(map(abs, q.ints)) for row in self.entries for q in row)


def specialize_jacobian(pres: FinitePresentation, psi) -> SpecializedJacobian:
    """Apply w -> t^(psi(w)) entrywise to the Fox Jacobian of ``pres``.

    One left-to-right pass per relator with a running psi-weight e: the
    letter x_j contributes +t^e to column j before e grows by psi_j, and
    X_j contributes -t^e after e shrinks by psi_j.  These are exactly the
    images of the Fox derivative terms +prefix and -prefix * X_j.

    Every exponent met in a relator's row lies in the range of its running
    weight, and that range contains 0; so the sum of the ranges over all
    relators bounds the degree of every minor and of the torsion
    polynomial, and the exponent width of the matrix that the Bareiss pass
    expands.

    Raises :class:`InvalidEpimorphism` unless psi kills every relator (its
    final running weight is psi of the relator) and is surjective, and then
    :class:`SizeBudgetExceeded`, before any polynomial is built, if that
    bound exceeds :data:`DEGREE_BUDGET`.
    """
    psi = epimorphism_values(pres, psi)
    k = complexity_k(pres)
    raw, weights = [], []
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
        weights.append(e)
    reason = epimorphism_failure(weights, psi)
    if reason is not None:
        raise InvalidEpimorphism(reason)
    if degree_bound > DEGREE_BUDGET:
        raise SizeBudgetExceeded(
            f"the torsion polynomial may reach degree {degree_bound}, "
            f"past the budget of {DEGREE_BUDGET}")
    rows = tuple(tuple(_integer_poly(c) for c in cols) for cols in raw)
    jac = SpecializedJacobian(rows, psi, k, pres.num_generators)
    if jac.total_norm() > k:
        raise InvariantViolation("specialization increased the Jacobian norm")
    return jac


def _integer_poly(terms: dict[int, int]) -> LaurentPoly:
    """The sum c * t^e over the items (e, c) of ``terms``, built from one
    dense integer list."""
    if not terms:
        return _poly(())
    lo = min(terms)
    ints = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        ints[e - lo] = c
    return _poly(ints, 1, lo)


def torsion_polynomial(jac: SpecializedJacobian) -> LaurentPoly:
    """Normalized GCD of the r-rowed minors, r the rank, all read off
    :class:`Minors` (one Gauss-Jordan pass, and a second when r is below the
    number of nonzero rows).  Zero rows are left out first: every minor
    through one is 0.

    Past :data:`MINOR_ENUMERATION_CAP` minors, counted on the full shape,
    :class:`SizeBudgetExceeded` is raised after the first pass, before any
    minor is derived.  At one point mod p the rank must not exceed r
    (checked when r < min(nonzero rows, columns), else it cannot), and a
    minor of size r >= 2 must equal its submatrix's determinant, which
    checks its derivation (a 1-minor is its entry).  Each minor must be an
    integer polynomial within the m!k^m norm bound (the proof of
    :func:`annulus_certify`).  The GCD is proved exactly: it divides every
    minor and the cofactors are coprime.  It starts as the nonzero minor D_j with the fewest
    coefficients, normalized, and only a minor it does not divide runs
    :func:`gcd`.  If r = rows = columns - 1 and psi is primitive, with j
    the column D_j leaves out, Fox's formula sum_j J_ij (t^psi_j - 1) = 0
    gives D_j (t^psi_i - 1) = +-D_i (t^psi_j - 1), so it starts at
    D_j / (1 + t + ... + t^(|psi_j|-1)); too large a start shrinks, too small
    leaves the cofactors a common factor.  :class:`InvariantViolation` is a bug.
    """
    rows = [row for row in jac.entries if any(row)]  # a minor through a zero row is 0
    minors = Minors(rows)
    r = minors.rank
    n_minors = math.comb(jac.num_relators, r) * math.comb(jac.num_generators, r)
    if n_minors > MINOR_ENUMERATION_CAP:
        raise SizeBudgetExceeded(
            f"{n_minors} minors of size {r} exceed the cap of {MINOR_ENUMERATION_CAP}")
    check_rank = r < min(len(rows), jac.num_generators)
    if check_rank or r >= 2:
        at = [[value_mod_p(e, _CHECK_POINT) for e in row] for row in rows]
    if check_rank and rank_det_mod_p(at)[0] > r:
        raise InvariantViolation("the rank is below the rank at a point mod p")
    if r == 0:
        return LaurentPoly.one()
    coeff_bound = int(root_bound(jac.num_generators, jac.complexity)) - 1
    found = []
    for ri in itertools.combinations(range(len(rows)), r):
        for ci in itertools.combinations(range(jac.num_generators), r):
            d = minors.minor(ri, ci)
            if d.den != 1:
                raise InvariantViolation("a minor has a non-integer coefficient")
            if sum(map(abs, d.ints)) > coeff_bound:
                raise InvariantViolation("minor exceeds the m!k^m coefficient bound")
            if r >= 2 and value_mod_p(d, _CHECK_POINT) != rank_det_mod_p(
                    [[at[i][j] for j in ci] for i in ri])[1]:
                raise InvariantViolation("a minor disagrees with its determinant mod p")
            if d:
                found.append((ci, d))
    if not found:
        raise InvariantViolation(f"every minor of size {r} vanishes")
    start = min(range(len(found)), key=lambda k: len(found[k][1].ints))
    ci, d = found[start]
    if r == jac.num_relators == jac.num_generators - 1 and math.gcd(*jac.psi) == 1:
        delta, seed_cofactor = _fox_seed(d, jac.psi[sum(range(r + 1)) - sum(ci)])
    else:
        delta, seed_cofactor = normalize(d), None
    cofactors = []
    for k, (_, d) in enumerate(found):
        if k == start and seed_cofactor is not None:
            cofactors.append(seed_cofactor)
            continue
        try:
            cofactors.append(exact_div(d, delta))
        except ArithmeticError:  # delta loses the factors that d lacks
            shrunk = gcd(delta, d)
            try:
                lost = exact_div(delta, shrunk)
                cofactors = [f * lost for f in cofactors] + [exact_div(d, shrunk)]
            except ArithmeticError:
                raise InvariantViolation("the minor GCD does not divide every minor") from None
            delta = shrunk
    if not coprime(cofactors):
        raise InvariantViolation("the minors share a factor beyond the minor GCD")
    return delta


def _fox_seed(d: LaurentPoly, e: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The GCD Fox's formula gives from the minor d without a column of psi e,
    and d's cofactor, a unit times 1 + ... + t^(|e|-1)."""
    try:
        s = exact_div(d, _poly([1] * abs(e)))
    except ArithmeticError:  # ZeroDivisionError too, at e = 0
        raise InvariantViolation("a minor breaks Fox's fundamental formula") from None
    delta = normalize(s)
    return delta, _poly([s.ints[0] // delta.ints[0]] * abs(e), 1, s.lo)


class AnnulusReport(NamedTuple):
    """Outcome of testing one map to Z against the root annulus."""

    psi: tuple[int, ...]
    delta: LaurentPoly
    c: Fraction
    complexity: int
    roots: tuple[tuple[complex, int], ...]
    verdict: str
    cauchy_radius: Fraction
    cauchy_radius_reciprocal: Fraction
    exact_certified: bool
    failure: str | None = None


def _to_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def leaves_annulus(moduli: list[float], c: Fraction, tol: float) -> bool:
    """Whether a root modulus leaves the annulus [1/c, c] by more than
    10*tol, compared in floating point."""
    margin = 10 * tol
    return max(moduli) > _to_float(c) + margin or min(moduli) < _to_float(1 / c) - margin


def annulus_certify(pres: FinitePresentation, psi, tol: float = 1e-10,
                    certify_only: bool = False, seed: int = 0) -> AnnulusReport:
    """Compute the torsion polynomial Delta of ``psi`` and certify its annulus.

    The verdict is exact: ``vacuous`` when Delta is a unit, else ``pass``.
    Proof: :func:`torsion_polynomial` checked that some r-minor is nonzero,
    that Delta divides each nonzero one, d, and that d has integer
    coefficients with ||d||_1 <= m!k^m = c - 1.  As |a_n| >= 1, Cauchy's
    bound gives |z| <= 1 + max_{i<n} |a_i / a_n| <= ||d||_1 <= c - 1 for
    every nonzero root z of d, and the same bound on the reversal gives
    |z| >= 1/(c - 1); so every nonzero root of Delta lies inside [1/c, c].

    The report carries Delta's own Cauchy radii; ``exact_certified`` says
    both are at most c.  Unless ``certify_only``, roots are reported; one
    that :func:`leaves_annulus` raises :class:`InvariantViolation`, and a
    root-finder failure only sets ``failure``.
    """
    jac = specialize_jacobian(pres, psi)
    delta = torsion_polynomial(jac)
    c = root_bound(jac.num_generators, jac.complexity)
    upper = cauchy_root_radius(delta)
    upper_reciprocal = cauchy_root_radius(reciprocal(delta))
    report = AnnulusReport(jac.psi, delta, c, jac.complexity, (),
                           VERDICT_VACUOUS if delta.is_unit() else VERDICT_PASS,
                           upper, upper_reciprocal, upper <= c and upper_reciprocal <= c)
    if certify_only or delta.is_unit():
        return report
    try:
        roots = tuple(complex_roots(delta, tol, seed))
    except RootFindingError as exc:
        return report._replace(failure=str(exc))
    if leaves_annulus([abs(z) for z, _ in roots], c, tol):
        raise InvariantViolation("a reported root leaves the proven annulus [1/c, c]")
    return report._replace(roots=roots)


def scan(pres: FinitePresentation, bound: int, tol: float = 1e-10,
         certify_only: bool = False, seed: int = 0) -> list[AnnulusReport]:
    """One :func:`annulus_certify` report per enumerated map to Z with
    sup-norm <= bound; all of them share the constant c = 1 + m! * k^m."""
    return [annulus_certify(pres, psi, tol, certify_only, seed)
            for psi in enumerate_epimorphisms(pres, bound)]
