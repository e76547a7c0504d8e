"""Specialization, torsion polynomials, and annulus certification."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import torsionpoly
import torsionpoly.laurent as laurent_mod
import torsionpoly.torsion as torsion_mod
from helpers import (
    SWELL, SWELL_PSI, minors_by_determinant, random_presentation, random_word, root_bound_c,
    sympy_minor_gcd, sympy_roots,
)
from torsionpoly.cli import main
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS
from torsionpoly.freegroup import Word, fox_derivative
from torsionpoly.laurent import (
    LaurentPoly,
    RootFindingError,
    complex_roots,
    determinant,
    gcd,
    normalize,
    reciprocal,
)
import torsionpoly.presentation as presentation_mod
from torsionpoly.presentation import (
    FinitePresentation,
    enumerate_epimorphisms,
    exponent_sum_matrix,
    parse_presentation,
    serialize_presentation,
    validate_epimorphism,
)
from torsionpoly.torsion import (
    InvalidEpimorphism,
    SizeBudgetExceeded,
    annulus_certify,
    scan,
    specialize_jacobian,
    torsion_polynomial,
)

TREFOIL = parse_presentation("gens: x, y\nrel: x y x Y X Y\n")
TORUS = parse_presentation("gens: x, y\nrel: x y X Y\n")
FREE2 = parse_presentation("gens: x, y\n")


def lp(*coeffs, start=0):
    return LaurentPoly.from_coeffs(coeffs, start)


def test_specialize_trefoil():
    jac = specialize_jacobian(TREFOIL, (1, 1))
    p = lp(1, -1, 1)
    assert jac.entries == ((p, -p),)
    assert jac.complexity == 6


def test_specialize_free_presentation():
    jac = specialize_jacobian(parse_presentation("gens: x\n"), (1,))
    assert jac.entries == ()


def test_specialize_torus_both_maps():
    # psi = (1, 0): the x-derivative collapses (its word has weight 0)
    jac = specialize_jacobian(TORUS, (1, 0))
    assert jac.entries == ((LaurentPoly.zero(), lp(-1, 1)),)
    # psi = (1, 1): both derivatives survive
    jac = specialize_jacobian(TORUS, (1, 1))
    assert jac.entries == ((lp(1, -1), lp(-1, 1)),)


def test_specialized_entries_have_integer_coefficients():
    rng = random.Random(14)
    for _ in range(20):
        pres = random_presentation(rng)
        for psi in enumerate_epimorphisms(pres, 2):
            jac = specialize_jacobian(pres, psi)
            for row in jac.entries:
                for q in row:
                    assert all(c.denominator == 1 for c in q.coeffs.values())


def test_minor_cap_refuses(monkeypatch, tmp_path, capsys):
    passes, computed = [], []
    real_bareiss, real_minor = laurent_mod._bareiss, laurent_mod.Minors.minor
    monkeypatch.setattr(laurent_mod, "_bareiss", lambda *a, **k: passes.append(1) or real_bareiss(*a, **k))
    monkeypatch.setattr(laurent_mod.Minors, "minor",
                        lambda self, ri, ci: computed.append(ri) or real_minor(self, ri, ci))
    monkeypatch.setattr(torsion_mod, "MINOR_ENUMERATION_CAP", 1)
    with pytest.raises(SizeBudgetExceeded, match="2 minors of size 1 exceed the cap of 1"):
        torsion_polynomial(specialize_jacobian(TREFOIL, (1, 1)))
    f = tmp_path / "trefoil.pres"
    f.write_text("gens: x, y\nrel: x y x Y X Y\n")
    assert main(["torsion", "--pres", str(f), "--psi", "1,1", "--certify-only"]) == 1
    assert capsys.readouterr().err.startswith("error: 2 minors of size 1 exceed the cap")
    # rank 2 on three rows: refused after the first pass, before the second
    # pass on the transposed pivot columns and before any product
    three_torus = next(e for e in THREE_MANIFOLD_CORPUS if e.name == "three-torus")
    monkeypatch.setattr(torsion_mod, "MINOR_ENUMERATION_CAP", 8)
    passes.clear()
    with pytest.raises(SizeBudgetExceeded, match="9 minors of size 2 exceed the cap of 8"):
        torsion_polynomial(specialize_jacobian(three_torus.presentation(), three_torus.psi))
    assert passes == [1] and computed == []


def test_specialize_rejects_invalid_psi():
    with pytest.raises(InvalidEpimorphism):
        specialize_jacobian(TREFOIL, (1, 2))
    with pytest.raises(InvalidEpimorphism):
        specialize_jacobian(TREFOIL, (2, 2))


def test_specialize_refuses_as_validate_epimorphism_does(monkeypatch):
    rng = random.Random(5)
    refused = 0
    for _ in range(300):
        pres = random_presentation(rng)
        psi = tuple(rng.randint(-3, 3) for _ in range(pres.num_generators))
        reason = validate_epimorphism(pres, psi)
        try:
            specialize_jacobian(pres, psi)
        except InvalidEpimorphism as exc:
            assert str(exc) == reason
            refused += 1
        else:
            assert reason is None
    assert refused > 100
    with pytest.raises(ValueError, match="expected 2 values, got 1"):
        specialize_jacobian(TREFOIL, (1,))
    monkeypatch.setattr(torsion_mod, "DEGREE_BUDGET", 0)  # refused as invalid, not as too large
    with pytest.raises(InvalidEpimorphism, match="kills-relators violated at relator 0"):
        specialize_jacobian(TREFOIL, (1, 2))
    with pytest.raises(InvalidEpimorphism, match=r"not surjective \(gcd = 2\)"):
        specialize_jacobian(TREFOIL, (2, 2))


def test_a_map_to_z_is_read_as_exact_integers():
    # a non-integer value is refused, not truncated to psi = (1, 1)
    for psi in ((1.5, 1), (Fraction(3, 2), 1)):
        for read in (annulus_certify, validate_epimorphism):
            with pytest.raises(ValueError, match="expected an integer value of psi"):
                read(TREFOIL, psi)
    # an integral float or Fraction is its int
    want = annulus_certify(TREFOIL, (1, 1))
    for psi in ((1.0, 1), (Fraction(1), 1.0)):
        assert validate_epimorphism(TREFOIL, psi) is None
        rep = annulus_certify(TREFOIL, psi)
        assert rep == want and all(type(x) is int for x in rep.psi)
    assert validate_epimorphism(TREFOIL, (2.0, 2)) == "not surjective (gcd = 2)"


def test_scan_builds_the_exponent_sums_once(monkeypatch):
    calls = []
    real = presentation_mod.exponent_sum_matrix
    monkeypatch.setattr(presentation_mod, "exponent_sum_matrix",
                        lambda pres: calls.append(1) or real(pres))
    genus_two = next(e.text for e in THREE_MANIFOLD_CORPUS
                     if e.name == "genus-two-surface-times-interval")
    assert len(scan(parse_presentation(genus_two), 1, certify_only=True)) > 10
    assert len(calls) == 1


def test_torsion_polynomial_trefoil():
    assert torsion_polynomial(specialize_jacobian(TREFOIL, (1, 1))) == lp(1, -1, 1)


def test_torsion_polynomial_torus():
    assert torsion_polynomial(specialize_jacobian(TORUS, (1, 0))) == lp(-1, 1)
    assert torsion_polynomial(specialize_jacobian(TORUS, (1, 1))) == lp(-1, 1)


def test_torsion_polynomial_free():
    jac = specialize_jacobian(FREE2, (1, 0))
    assert torsion_polynomial(jac) == LaurentPoly.one()


def _all_valid_psis(pres, bound=2):
    return enumerate_epimorphisms(pres, bound)


def test_specialization_norm_bound_on_random():
    rng = random.Random(12)
    checked = 0
    for _ in range(60):
        pres = random_presentation(rng)
        for psi in _all_valid_psis(pres):
            jac = specialize_jacobian(pres, psi)
            assert jac.total_norm() <= jac.complexity
            checked += 1
    assert checked > 30


# x^100000 y^-99999: the dense lists would hold about 10^10 coefficients
HUGE_SPAN = "gens: x, y\nrel: x^100000 Y^99999\n"


def test_size_budget_refuses_before_any_expansion():
    start = time.perf_counter()
    with pytest.raises(SizeBudgetExceeded, match="degree 9999900000"):
        annulus_certify(parse_presentation(HUGE_SPAN), (99999, 100000))
    assert time.perf_counter() - start < 1.0


def test_size_budget_boundary(monkeypatch):
    # the trefoil's running psi-weight spans 0..3, so its bound is 3
    monkeypatch.setattr(torsion_mod, "DEGREE_BUDGET", 3)
    assert specialize_jacobian(TREFOIL, (1, 1)).num_relators == 1
    monkeypatch.setattr(torsion_mod, "DEGREE_BUDGET", 2)
    with pytest.raises(SizeBudgetExceeded):
        specialize_jacobian(TREFOIL, (1, 1))


def test_size_budget_bounds_the_degree(monkeypatch):
    # a budget one below the true degree must refuse: the bound is never low
    rng = random.Random(21)
    checked = 0
    for _ in range(300):
        pres = random_presentation(rng, max_gens=2, max_relators=1, max_len=12)
        for psi in _all_valid_psis(pres):
            span = torsion_polynomial(specialize_jacobian(pres, psi)).span()
            if span:
                monkeypatch.setattr(torsion_mod, "DEGREE_BUDGET", span - 1)
                with pytest.raises(SizeBudgetExceeded):
                    specialize_jacobian(pres, psi)
                monkeypatch.undo()
                checked += 1
    assert checked > 10


def _minor_gcd_direct(jac, r):
    acc = LaurentPoly.zero()
    for ri in itertools.combinations(range(jac.num_relators), r):
        for ci in itertools.combinations(range(jac.num_generators), r):
            acc = gcd(acc, determinant([[jac.entries[i][j] for j in ci] for i in ri]))
    return acc


def test_reciprocal_symmetry_and_degree_bound():
    rng = random.Random(13)
    for _ in range(30):
        pres = random_presentation(rng, max_relators=2, max_len=8)
        for psi in _all_valid_psis(pres):
            jac = specialize_jacobian(pres, psi)
            delta = torsion_polynomial(jac)
            neg = torsion_polynomial(specialize_jacobian(pres, tuple(-v for v in psi)))
            assert neg == normalize(reciprocal(delta))
            if delta:
                span_total = sum(q.span() for row in jac.entries for q in row)
                assert delta.span() <= span_total


def test_annulus_trefoil_pass_exact():
    rep = annulus_certify(TREFOIL, (1, 1))
    assert rep.verdict == "pass"
    assert rep.exact_certified
    assert rep.cauchy_radius == 3 and rep.cauchy_radius_reciprocal == 3
    assert rep.c == 73 and rep.complexity == 6
    assert len(rep.roots) == 2 and all(abs(abs(z) - 1) < 1e-10 for z, _ in rep.roots)


def test_annulus_torus_pass():
    rep = annulus_certify(TORUS, (1, 0))
    assert rep.verdict == "pass"
    assert rep.delta == lp(-1, 1)


def test_annulus_free_vacuous():
    rep = annulus_certify(parse_presentation("gens: x\n"), (1,))
    assert rep.verdict == "vacuous"
    assert rep.roots == ()


def test_annulus_certify_only_is_exact():
    rep = annulus_certify(TREFOIL, (1, 1), certify_only=True)
    assert rep.verdict == "pass"
    assert rep.roots == ()


def test_scan_trefoil():
    reports = scan(TREFOIL, 3)
    assert len(reports) == 1
    assert reports[0].psi == (1, 1) and reports[0].verdict == "pass"


def test_scan_free_two_generators():
    reports = scan(FREE2, 1)
    assert [r.psi for r in reports] == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert all(r.verdict == "vacuous" for r in reports)


def test_scan_betti_zero_is_empty():
    assert scan(parse_presentation("gens: x\nrel: x^2\n"), 4) == []


def test_scan_shares_one_constant():
    reports = scan(FREE2, 1)
    c = root_bound_c(FREE2)
    assert all(r.c == c for r in reports)


# -- differential: one-pass specialization vs the group-ring Fox route -------


def _specialize_via_fox(pres, psi):
    """Reference: build each group-ring Fox derivative, then send every
    term w to t^(psi(w)) and sum."""
    rows = []
    for r in pres.relators:
        row = []
        for j in range(pres.num_generators):
            coeffs: dict[int, Fraction] = {}
            for w, c in fox_derivative(r, j).terms.items():
                e = sum((1 if a > 0 else -1) * psi[abs(a) - 1] for a in w)
                coeffs[e] = coeffs.get(e, Fraction(0)) + c
            row.append(LaurentPoly(coeffs))
        rows.append(tuple(row))
    return tuple(rows)


def _differential_cases():
    rng = random.Random(21)
    pres_list = [random_presentation(rng, max_len=rng.choice((6, 12, 30))) for _ in range(80)]
    pres_list += [e.presentation() for e in THREE_MANIFOLD_CORPUS]
    for pres in pres_list:
        for psi in enumerate_epimorphisms(pres, 2):
            yield pres, psi


def test_specialization_matches_group_ring_oracle():
    checked = 0
    for pres, psi in _differential_cases():
        assert specialize_jacobian(pres, psi).entries == _specialize_via_fox(pres, psi)
        checked += 1
    assert checked > 100


# -- the running minor GCD against the GCD of every minor -------------------


def _minors(jac):
    return minors_by_determinant(jac.entries, laurent_mod.rank(jac.entries))


def _shrinking_jacobians():
    """Random 2x3 and 3x4 Jacobians whose entries are products of small
    factors, with k their total norm."""
    rng = random.Random(5)
    t, one = LaurentPoly.t(), LaurentPoly.one()
    factors = [t - one, t + one, t + one + one, t * t + one, t * t - t + one, t.scale(3) - one]
    while True:
        rows, cols = rng.choice(((2, 3), (3, 4)))
        entries = tuple(tuple(math.prod(rng.sample(factors, rng.randint(0, 3)), start=one)
                              if rng.random() < 0.8 else LaurentPoly.zero()
                              for _ in range(cols)) for _ in range(rows))
        k = sum(sum(map(abs, e.ints)) for row in entries for e in row)
        yield torsion_mod.SpecializedJacobian(entries, (0,) * cols, k, cols)


def _int_det(rows):
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _int_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _deficiency_one_draws(seed, count, max_psi=12):
    """Random presentations with 1-4 relators on one generator more, and psi
    the primitive kernel vector of the exponent sums (the signed maximal
    minors), with a negative entry; |psi_j| <= max_psi keeps the reference
    gcd of the minors cheap."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rows = rng.randint(1, 4)
        relators = tuple(random_word(rng, rows + 1, 16) for _ in range(rows))
        if not all(relators):
            continue
        pres = FinitePresentation(tuple("abcde"[:rows + 1]), relators)
        e = [list(row) for row in exponent_sum_matrix(pres)]
        psi = [(-1) ** j * _int_det([row[:j] + row[j + 1:] for row in e]) for j in range(rows + 1)]
        g = math.gcd(*psi)
        if not g or max(map(abs, psi)) > g * max_psi:
            continue
        psi = tuple(v // g for v in psi)
        out.append((pres, psi if min(psi) < 0 else tuple(-v for v in psi)))
    return out


def _composite(pq, rs, sign):
    """The group x^p = y^q, u^r = v^s, x y^-1 = u v^-1 (three relators on
    four generators) with its map to Z."""
    (p, q), (r, s) = pq, rs
    g = math.gcd(q - p, s - r)
    a, b = (s - r) // g, (q - p) // g
    text = f"gens: x, y, u, v\nrel: x^{p} y^-{q}\nrel: u^{r} v^-{s}\nrel: x Y v U\n"
    return parse_presentation(text), tuple(sign * v for v in (q * a, p * a, s * b, r * b))


COMPOSITES = [_composite(pq, rs, sign) for pq, rs in [
    ((2, 3), (2, 3)), ((2, 5), (2, 5)), ((3, 4), (3, 4)), ((2, 3), (2, 5)), ((2, 5), (3, 4)),
    ((3, 5), (2, 7))] for sign in (1, -1)]
_FOX_SEED = torsion_mod._fox_seed


def _running_gcd(monkeypatch, jac):
    """(Delta, the cofactors it certified, the number of gcd calls, the
    number of Fox seeds taken)."""
    seen, calls, seeds = [], [], []
    monkeypatch.setattr(torsion_mod, "coprime", lambda fs: seen.append(fs) or laurent_mod.coprime(fs))
    monkeypatch.setattr(torsion_mod, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    monkeypatch.setattr(torsion_mod, "_fox_seed", lambda d, e: seeds.append(e) or _FOX_SEED(d, e))
    delta = torsion_polynomial(jac)
    return delta, seen[0] if seen else None, len(calls), len(seeds)


def test_running_gcd_matches_the_gcd_of_every_minor(monkeypatch):
    """Every running GCD, seeded by Fox's formula on deficiency one or not,
    against the GCD of all minors; the psi = 0 Jacobians are never seeded."""
    groups = {
        "differential": list(_differential_cases()),
        "random deficiency one": _deficiency_one_draws(22, 260),
        "corpus": [(e.presentation(), e.psi) for e in THREE_MANIFOLD_CORPUS],
        "composite": COMPOSITES,
    }
    jacobians = {name: [specialize_jacobian(pres, psi) for pres, psi in cases]
                 for name, cases in groups.items()}
    jacobians["shrinking"] = []
    for jac in _shrinking_jacobians():
        if len(jacobians["shrinking"]) == 16:
            break
        if _running_gcd(monkeypatch, jac)[2] >= 2:
            jacobians["shrinking"].append(jac)
    shrunk_twice = nonunit_seeds = 0
    seeded = dict.fromkeys(jacobians, 0)
    for name, jacs in jacobians.items():
        for jac in jacs:
            delta, cofactors, calls, seeds = _running_gcd(monkeypatch, jac)
            r = laurent_mod.rank(jac.entries)
            if r == 0:
                assert (delta, cofactors) == (LaurentPoly.one(), None)
                continue
            minors = [d for d in _minors(jac) if d]
            assert delta == functools.reduce(gcd, minors, LaurentPoly.zero())
            assert cofactors == [laurent_mod.exact_div(d, delta) for d in minors]
            fox = r == jac.num_relators == jac.num_generators - 1 and math.gcd(*jac.psi) == 1
            assert seeds == fox and not (fox and calls), (name, jac)
            seeded[name] += fox
            nonunit_seeds += fox and not delta.is_unit()
            shrunk_twice += jac.num_relators > 1 and calls >= 2
    assert len(jacobians["differential"]) > 400 and shrunk_twice >= 16
    assert seeded == {"differential": 20, "random deficiency one": 260, "corpus": 8,
                      "composite": len(COMPOSITES), "shrinking": 0} and nonunit_seeds >= 150


def test_one_row_certificate_skips_the_checks_that_cannot_fire(monkeypatch):
    def refuse(*args):
        raise AssertionError("a check mod p ran on a one-row Jacobian at r = 1")

    jac = specialize_jacobian(parse_presentation("gens: x, y\nrel: x^2 y^-3\n"), (3, 2))
    for name in ("value_mod_p", "rank_det_mod_p"):
        monkeypatch.setattr(torsion_mod, name, refuse)
    assert torsion_polynomial(jac) == lp(1, -1, 1)
    monkeypatch.undo()
    real = torsion_mod.Minors

    def rank_zero(rows):
        minors = real(rows)
        minors.rank = 0
        return minors

    monkeypatch.setattr(torsion_mod, "Minors", rank_zero)
    with pytest.raises(laurent_mod.InvariantViolation, match="the rank is below the rank at a point mod p"):
        torsion_polynomial(jac)


def test_genus_two_scan_runs_at_most_one_gcd_per_map(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    for module in (torsion_mod, laurent_mod):
        monkeypatch.setattr(module, "gcd", counted)
    entry = next(e for e in THREE_MANIFOLD_CORPUS if e.name == "genus-two-surface-times-interval")
    reports = scan(entry.presentation(), 2, certify_only=True)
    assert len(reports) == 272 and {r.delta for r in reports} == {lp(-1, 1)}
    # the running GCD starts at the minor with the fewest coefficients, which
    # divides every other minor here
    assert calls == []


@pytest.mark.parametrize("text, psi", [
    ("gens: x, y\nrel: x^32 y^-35\n", (35, 32)), (SWELL, SWELL_PSI),
    ("gens: x, y, u, v\nrel: x^2 y^-3\nrel: u^2 v^-5\nrel: x Y v U\n", (9, 6, 5, 2)),
], ids=["T(32,35)", "swell", "composite"])
def test_seeded_certify_only_runs_no_gcd(monkeypatch, text, psi):
    calls = []
    for module in (torsion_mod, laurent_mod):
        monkeypatch.setattr(module, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rep = annulus_certify(parse_presentation(text), psi, certify_only=True)
    assert rep.verdict == "pass" and calls == []


def test_jacobians_that_break_fox_formula_are_refused_or_proved():
    """One entry of a deficiency-one Jacobian plus +-t^k: Fox's formula
    breaks, and the certificate raises or still returns the GCD of the minors."""
    rng = random.Random(23)
    outcomes = {"raised": 0, "proved": 0}
    for pres, psi in _deficiency_one_draws(24, 120):
        jac = specialize_jacobian(pres, psi)
        rows = [list(row) for row in jac.entries]
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[i][j] += LaurentPoly.term(rng.choice((1, -1)), rng.randint(-3, 3))
        jac = jac._replace(entries=tuple(map(tuple, rows)), complexity=jac.complexity + 1)
        try:
            delta = torsion_polynomial(jac)
        except laurent_mod.InvariantViolation:
            outcomes["raised"] += 1
            continue
        assert delta == functools.reduce(gcd, [d for d in _minors(jac) if d], LaurentPoly.zero())
        outcomes["proved"] += 1
    assert min(outcomes.values()) > 20, outcomes


# Two hand-built Jacobians that break Fox's formula: the seed's division by
# 1 + t (the column left out has psi 2) is inexact, and the nonzero minor
# with the fewest coefficients leaves out a column of psi 0.
_FOX_BROKEN = """
import sys
import torsionpoly.torsion as T
from torsionpoly.laurent import InvariantViolation, LaurentPoly

t, one = LaurentPoly.t(), LaurentPoly.one()
for entries, psi in [(((t * t + one, -one),), (3, 2)), (((t - one, t * t + one),), (1, 0))]:
    try:
        print("returned", T.torsion_polynomial(T.SpecializedJacobian(entries, psi, 3, 2)))
    except InvariantViolation as exc:
        print(f"optimize={sys.flags.optimize} psi {psi}: {exc}")
"""


def test_fox_formula_check_survives_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _FOX_BROKEN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize=1 psi (3, 2): a minor breaks Fox's fundamental formula",
        "optimize=1 psi (1, 0): a minor breaks Fox's fundamental formula",
    ]


# -- the float filter, the exact verdict and the theorem behind it ----------


@pytest.mark.parametrize(
    "coeffs, c, rejected",
    [
        ((1, -3, 1), 3, False),  # roots 0.38 and 2.62 inside [1/3, 3]
        ((-3, 1), 2, True),  # root 3 outside [1/2, 2]
        ((-2, 1), 2, False),  # root 2 on the boundary
        ((-3, 1), 10**400, False),  # c past the double range reads as inf
    ],
    ids=["pass", "fail", "boundary", "huge-c"],
)
def test_leaves_annulus_and_candidate_filter(coeffs, c, rejected):
    p, c = lp(*coeffs), Fraction(c)
    mods = [abs(z) for z, _ in complex_roots(p, 1e-10)]
    assert torsion_mod.leaves_annulus(mods, c, 1e-10) is rejected
    assert laurent_mod.roots_in_annulus(p, c) is not rejected


def test_verdict_rests_on_the_minor_bound(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex_roots called under certify_only")

    rep = annulus_certify(parse_presentation("gens: x\n"), (1,), certify_only=True)
    assert (rep.verdict, rep.cauchy_radius, rep.exact_certified) == ("vacuous", 1, True)
    monkeypatch.setattr(torsion_mod, "cauchy_root_radius", lambda p: Fraction(10**9))
    rep = annulus_certify(TREFOIL, (1, 1))
    assert (rep.verdict, rep.exact_certified, len(rep.roots)) == ("pass", False, 2)
    monkeypatch.setattr(torsion_mod, "complex_roots", refuse)
    verdicts = set()
    for entry in THREE_MANIFOLD_CORPUS:
        rep = annulus_certify(entry.presentation(), entry.psi, certify_only=True)
        assert rep.roots == () and not rep.exact_certified
        verdicts.add(rep.verdict)
    assert verdicts == {"pass", "vacuous"}


def test_roots_lie_inside_the_minor_bound_annulus():
    rng = random.Random(9)
    cases = [(e.presentation(), e.psi) for e in THREE_MANIFOLD_CORPUS]
    for _ in range(150):
        pres = random_presentation(rng)
        cases += [(pres, psi) for psi in enumerate_epimorphisms(pres, 2)]
    checked = 0
    for pres, psi in cases:
        rep = annulus_certify(pres, psi, certify_only=True)
        if rep.delta.is_unit():
            continue
        bound = int(rep.c - 1)
        for z, _ in sympy_roots(rep.delta):
            assert 1 <= abs(z) * bound and abs(z) <= bound, (pres, psi, z)
        checked += 1
    assert checked == 84


# -- root-finder failure path ------------------------------------------------


def _failing_roots(monkeypatch):
    def fail(*args, **kwargs):
        raise RootFindingError("simulated non-convergence")

    monkeypatch.setattr(torsion_mod, "complex_roots", fail)


def test_annulus_falls_back_on_root_failure(monkeypatch):
    exact = annulus_certify(TREFOIL, (1, 1), certify_only=True)
    _failing_roots(monkeypatch)
    rep = annulus_certify(TREFOIL, (1, 1))
    assert rep.verdict == exact.verdict == "pass"
    assert rep.exact_certified and rep.roots == ()
    assert rep.failure == "simulated non-convergence"


def _differing(a, b) -> set:
    return {name for name, value in a._asdict().items() if getattr(b, name) != value}


def test_full_and_certify_only_reports_differ_only_in_the_roots():
    differences = set()
    for entry in THREE_MANIFOLD_CORPUS:
        pres = entry.presentation()
        full = annulus_certify(pres, entry.psi)
        exact = annulus_certify(pres, entry.psi, certify_only=True)
        differing = _differing(full, exact)
        assert differing == (set() if full.delta.is_unit() else {"roots"})
        differences.add(frozenset(differing))
    assert len(differences) == 2


def test_root_failure_report_keeps_every_other_field(monkeypatch):
    exact = annulus_certify(TREFOIL, (1, 1), certify_only=True)
    _failing_roots(monkeypatch)
    rep = annulus_certify(TREFOIL, (1, 1))
    assert _differing(rep, exact) == {"failure"}
    assert rep._replace(failure=None) == exact


def test_scan_reports_root_failure_per_map(monkeypatch):
    exact = scan(TORUS, 1, certify_only=True)
    _failing_roots(monkeypatch)
    reports = scan(TORUS, 1)
    assert len(reports) == len(exact) == 4
    for rep, ref in zip(reports, exact):
        assert (rep.psi, rep.verdict) == (ref.psi, ref.verdict)
        assert rep.failure == "simulated non-convergence"


def test_cli_torsion_and_scan_agree_on_root_failure(monkeypatch, tmp_path, capsys):
    f = tmp_path / "trefoil.pres"
    f.write_text("gens: x, y\nrel: x y x Y X Y\n")
    _failing_roots(monkeypatch)
    scan_code = main(["scan", "--pres", str(f), "--bound", "1", "--json"])
    capsys.readouterr()
    code = main(["torsion", "--pres", str(f), "--psi", "1,1", "--json"])
    out = capsys.readouterr().out
    assert code == scan_code == 0
    assert '"failure": "simulated non-convergence"' in out


# -- invariants survive python -O --------------------------------------------

# On deficiency one with psi primitive the running GCD starts at the Fox seed
# and never runs gcd, so the seed is faulted there and gcd on inputs of
# deficiency two: SWELL and x^2 y^-3, each with a free generator added.  The
# minors and the rank are faulted where torsion reads them, in Minors; a
# derived minor is one of the rank-one compound, det A_{I,P} det A_{R,J} /
# det A_{R,P} with I != R and J != P, so only below full row rank.
_FAULTS = """
import itertools
import sys
import torsionpoly.torsion as T
from torsionpoly.laurent import InvariantViolation, LaurentPoly
from torsionpoly.presentation import parse_presentation

T_PLUS_2 = LaurentPoly.t() + LaurentPoly.constant(2)
real = {name: getattr(T, name) for name in ("Minors", "gcd", "_fox_seed")}

def first_minor_times(picked):
    def wrong(rows):
        minors, seen = real["Minors"](rows), []
        read = minors.minor
        def minor(ri, ci):
            d = read(ri, ci)
            if seen or not (d and picked(minors, ri, ci)):
                return d
            seen.append((ri, ci))
            return d * T_PLUS_2
        minors.minor = minor
        return minors
    return wrong

def derived(minors, ri, ci):
    return len(ri) > 1 and ri != minors._by_cols.rows and ci != minors._by_cols.cols

def rank_plus(k):
    def wrong(rows):
        minors = real["Minors"](rows)
        minors.rank += k
        return minors
    return wrong

def seed_times(d, e):
    delta, cofactor = real["_fox_seed"](d, e)
    return delta * T_PLUS_2, cofactor

faults = {
    "one minor times (t+2)": ("Minors", first_minor_times(lambda minors, ri, ci: True)),
    "derived minor times (t+2)": ("Minors", first_minor_times(derived)),
    "gcd times (t+2)": ("gcd", lambda a, b: real["gcd"](a, b) * T_PLUS_2),
    "gcd replaced by 1": ("gcd", lambda a, b: LaurentPoly.one()),
    "seed times (t+2)": ("_fox_seed", seed_times),
    "seed replaced by 1": ("_fox_seed", lambda d, e: (LaurentPoly.one(), d)),
    "seed with psi_j = 0": ("_fox_seed", lambda d, e: real["_fox_seed"](d, 0)),
    "seed divides by 1 + ... + t^|psi_j|": ("_fox_seed",
                                            lambda d, e: real["_fox_seed"](d, abs(e) + 1)),
    "rank - 1": ("Minors", rank_plus(-1)),
    "rank + 1": ("Minors", rank_plus(1)),
}
text, psi = sys.argv[1], tuple(int(v) for v in sys.argv[2].split(","))
jac = T.specialize_jacobian(parse_presentation(text), psi)
if jac.num_relators == 1:  # each 1-minor is its entry: no determinant to check it against
    del faults["one minor times (t+2)"]
minors = real["Minors"](jac.entries)
if not any(minors.minor(ri, ci) and derived(minors, ri, ci)
           for ri in itertools.combinations(range(jac.num_relators), minors.rank)
           for ci in itertools.combinations(range(jac.num_generators), minors.rank)):
    del faults["derived minor times (t+2)"]  # every derived minor is 0
unused = "gcd" if jac.num_generators - jac.num_relators == 1 else "_fox_seed"
faults = {label: fault for label, fault in faults.items() if fault[0] != unused}
unfaulted = T.torsion_polynomial(jac)
print("unfaulted degree", unfaulted.span())
for label, (name, wrong) in faults.items():
    setattr(T, name, wrong)
    try:
        delta = T.torsion_polynomial(jac)
        print(f"{label}: " + ("the unfaulted Delta" if delta == unfaulted else "not caught"))
    except InvariantViolation as exc:
        print(f"optimize={sys.flags.optimize} {label}: {exc}")
    setattr(T, name, real[name])
"""


def _run_faults(env, text, psi):
    proc = subprocess.run([sys.executable, "-O", "-c", _FAULTS, text, ",".join(map(str, psi))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_invariant_violation_survives_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fox_lines = [
        "optimize=1 seed replaced by 1: the minors share a factor beyond the minor GCD",
        "optimize=1 seed with psi_j = 0: a minor breaks Fox's fundamental formula",
        "optimize=1 seed divides by 1 + ... + t^|psi_j|: a minor breaks Fox's fundamental formula",
    ]
    # deficiency one: the seed too large is repaired by gcd, the wrong ones raise
    assert _run_faults(env, SWELL, SWELL_PSI) == [
        "unfaulted degree 46",
        "optimize=1 one minor times (t+2): a minor disagrees with its determinant mod p",
        "seed times (t+2): the unfaulted Delta",
        *fox_lines,
        "optimize=1 rank - 1: the rank is below the rank at a point mod p",
        "optimize=1 rank + 1: every minor of size 3 vanishes",
    ]
    # one relator: the minors are the entries, so no determinant is faulted
    assert _run_faults(env, "gens: x, y\nrel: x^2 y^-3\n", (3, 2)) == [
        "unfaulted degree 2",
        "seed times (t+2): the unfaulted Delta",
        *fox_lines,
        "optimize=1 rank - 1: the rank is below the rank at a point mod p",
        "optimize=1 rank + 1: every minor of size 2 vanishes",
    ]
    # deficiency two: no seed, and gcd runs where the running GCD shrinks
    assert _run_faults(env, SWELL.replace("gens: x, y, z", "gens: x, y, z, w"),
                       (*SWELL_PSI, 1)) == [
        "unfaulted degree 46",
        "optimize=1 one minor times (t+2): a minor disagrees with its determinant mod p",
        "optimize=1 gcd times (t+2): the minor GCD does not divide every minor",
        "optimize=1 gcd replaced by 1: the minors share a factor beyond the minor GCD",
        "optimize=1 rank - 1: the rank is below the rank at a point mod p",
        "optimize=1 rank + 1: every minor of size 3 vanishes",
    ]
    assert _run_faults(env, "gens: x, y, z\nrel: x^2 y^-3\n", (3, 2, 1)) == [
        "unfaulted degree 2",
        "optimize=1 gcd times (t+2): the minor GCD does not divide every minor",
        "optimize=1 gcd replaced by 1: the minors share a factor beyond the minor GCD",
        "optimize=1 rank - 1: the rank is below the rank at a point mod p",
        "optimize=1 rank + 1: every minor of size 2 vanishes",
    ]
    # square of rank 2: every derived minor of sol-bundle-trace-3 is 0 (row
    # [a, b] and column s are 0), so it is faulted on the same group after
    # a = c s^-1 and the first relator times the second, whose are not
    sol = next(e for e in THREE_MANIFOLD_CORPUS if e.name == "sol-bundle-trace-3")
    inert_gcd = ["gcd times (t+2): the unfaulted Delta", "gcd replaced by 1: the unfaulted Delta"]
    rank_lines = ["optimize=1 rank - 1: the rank is below the rank at a point mod p",
                  "optimize=1 rank + 1: every minor of size 3 vanishes"]
    assert _run_faults(env, serialize_presentation(sol.presentation()), sol.psi) == [
        "unfaulted degree 2",
        "optimize=1 one minor times (t+2): a minor disagrees with its determinant mod p",
        *inert_gcd, *rank_lines,
    ]
    sol_tietze = ("gens: c, b, s\nrel: c S b s C B s c S S B s C s C\nrel: s c S S B s C s C\n"
                  "rel: s b S B s C\n")
    assert _run_faults(env, sol_tietze, (1, 0, 1)) == [
        "unfaulted degree 2",
        "optimize=1 one minor times (t+2): a minor disagrees with its determinant mod p",
        "optimize=1 derived minor times (t+2): a minor disagrees with its determinant mod p",
        *inert_gcd, *rank_lines,
    ]
    proc = subprocess.run([sys.executable, "-O", "-c", _PACKED_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize=1 numerator plus 1 determinant: an inexact division in Bareiss elimination"
        " (packed)",
        "optimize=1 numerator plus 1 rank: an inexact division in Bareiss elimination (packed)",
        "optimize=1 rank - 1 on x^21 y^-22: the rank is below the rank at a point mod p",
        "optimize=1 seed divides by 1 + ... + t^|psi_j| on T(21,22): a minor breaks Fox's"
        " fundamental formula (packed)",
        "optimize=1 gcd times (t+2) on T(21,22) with z free: the minor GCD does not divide"
        " every minor (packed)",
        "optimize=1 split quotient plus 1 on T(21,22): the cyclotomic split lost track of"
        " rest at 2 (packed)",
    ]


# The same faults where the division is past the packed crossover: a Bareiss
# pivot of 41 terms, the degree-440 first minor of T(21,22) over a seed
# divisor of 22 terms, and the degree-420 Delta of T(21,22) with a free z
# times (t+2).  The division that rejects must be the packed one, with no
# sparse fallback.  A rank one too low on T(21,22) is 0, which the check mod
# p must catch too.  Last, the cyclotomic split of that Delta gets quotients
# one off in their constant term: the packed divisions reject the wrong rest
# that follows, and the check on the value at 2 the split tracks raises.
_PACKED_FAULTS = """
import sys
import torsionpoly.laurent as L
import torsionpoly.torsion as T
from torsionpoly.laurent import InvariantViolation, LaurentPoly
from torsionpoly.presentation import parse_presentation

rejections = []
real_quotient, real_sparse, real_sub_mul = L._exact_quotient, L._pdivmod, L._sub_mul

def spy(num, den):
    before = len(sparse)
    q = real_quotient(num, den)
    nq, nnz = len(num) - len(den) + 1, len(den) - list(den).count(0)
    if q is None:
        rejections.append(nq * nnz >= L._PACKED_MIN_STEPS and len(sparse) == before)
    return q

sparse = []
L._exact_quotient = spy
L._pdivmod = lambda a, b: sparse.append(1) or real_sparse(a, b)

def report(label, run):
    rejections.clear()
    try:
        run()
        print(f"{label}: not caught")
    except InvariantViolation as exc:
        packed = " (packed)" if rejections and rejections[-1] else ""
        print(f"optimize={sys.flags.optimize} {label}: {exc}{packed}")

t, zero = LaurentPoly.t(), LaurentPoly.zero()
big = LaurentPoly.from_coeffs([(-1) ** i * (i % 5 + 1) for i in range(41)])
m = [[big, t, zero], [t, big, t], [zero, t, big]]
L._sub_mul = lambda s, x, q, y: [c + (i == 0) for i, c in enumerate(real_sub_mul(s, x, q, y))]
for name in ("determinant", "rank"):
    report(f"numerator plus 1 {name}", lambda: getattr(L, name)(m))
L._sub_mul = real_sub_mul

jac = T.specialize_jacobian(parse_presentation("gens: x, y\\nrel: x^21 y^-22\\n"), (22, 21))
real_minors = T.Minors

def rank_minus_1(rows):  # one relator: rank 0, caught before Delta = 1
    minors = real_minors(rows)
    minors.rank -= 1
    return minors

T.Minors = rank_minus_1
report("rank - 1 on x^21 y^-22", lambda: T.torsion_polynomial(jac))
T.Minors = real_minors

real_seed = T._fox_seed
T._fox_seed = lambda d, e: real_seed(d, abs(e) + 1)
report("seed divides by 1 + ... + t^|psi_j| on T(21,22)", lambda: T.torsion_polynomial(jac))
T._fox_seed = real_seed

jac = T.specialize_jacobian(parse_presentation("gens: x, y, z\\nrel: x^21 y^-22\\n"),
                            (22, 21, 1))
real_gcd = T.gcd
T.gcd = lambda a, b: real_gcd(a, b) * (t + LaurentPoly.constant(2))
report("gcd times (t+2) on T(21,22) with z free", lambda: T.torsion_polynomial(jac))
T.gcd = real_gcd

delta = T.torsion_polynomial(jac)
L.complex_roots(delta, 1e-10)  # unfaulted: every Phi_n it divides by is cached
L._exact_quotient = lambda num, den: (q := spy(num, den)) and [q[0] + 1, *q[1:]]
report("split quotient plus 1 on T(21,22)", lambda: L.complex_roots(delta, 1e-10))
"""


_BAREISS_FAULTS = """
import sys
import torsionpoly.laurent as L
from torsionpoly.laurent import InvariantViolation, LaurentPoly

t, one, zero = LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.zero()
m = [[t, one, zero], [one, t, one], [zero, one, t]]
real = L._pdivmod
faults = {
    "divisor doubled": lambda num, den: real(num, [2 * c for c in den]),
    "divisor times (t+2)": lambda num, den: real(num, L._convolve(den, [2, 1])),
}
print("unfaulted", L.determinant(m).display(), L.rank(m))
for label, wrong in faults.items():
    L._pdivmod = wrong
    for name in ("determinant", "rank"):
        try:
            getattr(L, name)(m)
            print(f"{label} {name}: not caught")
        except InvariantViolation as exc:
            print(f"optimize={sys.flags.optimize} {label} {name}: {exc}")
    L._pdivmod = real
"""


def test_inexact_bareiss_division_survives_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _BAREISS_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "unfaulted t^3 - 2*t 3",
        "optimize=1 divisor doubled determinant: an inexact division in Bareiss elimination",
        "optimize=1 divisor doubled rank: an inexact division in Bareiss elimination",
        "optimize=1 divisor times (t+2) determinant: an inexact division in Bareiss elimination",
        "optimize=1 divisor times (t+2) rank: an inexact division in Bareiss elimination",
    ]


# Every minor is read from Minors, so the faulted minor is planted there.
_BOUND_FAULTS = """
import sys
from fractions import Fraction
import torsionpoly.torsion as T
from torsionpoly.laurent import InvariantViolation
from torsionpoly.presentation import parse_presentation

real = {name: getattr(T, name) for name in ("Minors", "complex_roots")}
pres = parse_presentation(sys.argv[1])
psi = tuple(int(v) for v in sys.argv[2].split(","))
c = T.annulus_certify(pres, psi, certify_only=True).c
r = real["Minors"](T.specialize_jacobian(pres, psi).entries).rank

def first_minor_times(factor):
    def wrong(rows):
        minors, seen = real["Minors"](rows), []
        read = minors.minor
        def minor(ri, ci):
            d = read(ri, ci)
            if d and not seen:
                seen.append((ri, ci))
                return d.scale(factor)
            return d
        minors.minor = minor
        return minors
    return wrong

def roots_times_2c(p, tol, seed):
    return [(z * float(2 * c), m) for z, m in real["complex_roots"](p, tol, seed)]

faults = {
    "one minor times c": ("Minors", first_minor_times(c)),
    "one minor halved": ("Minors", first_minor_times(Fraction(1, 2))),
    "roots times 2c": ("complex_roots", roots_times_2c),
}
print("rank", r)
for label, (name, wrong) in faults.items():
    setattr(T, name, wrong)
    try:
        T.annulus_certify(pres, psi)
        print(f"{label}: not caught")
    except InvariantViolation as exc:
        print(f"optimize={sys.flags.optimize} {label}: {exc}")
    setattr(T, name, real[name])
"""


def test_annulus_invariants_survive_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for text, psi, r in [("gens: x, y\nrel: x y x Y X Y\n", (1, 1), 1), (SWELL, SWELL_PSI, 2)]:
        proc = subprocess.run([sys.executable, "-O", "-c", _BOUND_FAULTS, text,
                               ",".join(map(str, psi))], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"rank {r}",
            "optimize=1 one minor times c: minor exceeds the m!k^m coefficient bound",
            "optimize=1 one minor halved: a minor has a non-integer coefficient",
            "optimize=1 roots times 2c: a reported root leaves the proven annulus [1/c, c]",
        ]


def test_certify_only_never_runs_smith(monkeypatch):
    def refuse(rows):
        raise AssertionError("smith_normal_form called")

    for module in (torsionpoly, laurent_mod, torsion_mod):
        monkeypatch.setattr(module, "smith_normal_form", refuse, raising=False)
    for entry in THREE_MANIFOLD_CORPUS:
        rep = annulus_certify(entry.presentation(), entry.psi, certify_only=True)
        assert rep.verdict in ("pass", "vacuous"), entry.name


# -- the minor GCD against sympy's GCD of the minors -------------------------

# degree bound 10,758
SWELL_LARGE = ("gens: x, y, z\nrel: y^6 z^11 y^-34 z^-16 z^-36 x^-8\n"
               "rel: x^40 z^-31 z^-30 x^-38 z^38 z^12\n", (154, -85, 28))


@pytest.mark.parametrize("text, psi, seconds", [(SWELL, SWELL_PSI, 1.0), (*SWELL_LARGE, 10.0)],
                         ids=["swell", "swell-large"])
def test_swell_inputs_match_sympy(text, psi, seconds):
    pres = parse_presentation(text)
    start = time.perf_counter()
    rep = annulus_certify(pres, psi, certify_only=True)
    assert time.perf_counter() - start < seconds
    assert [int(c) for c in rep.delta.dense()] == sympy_minor_gcd(specialize_jacobian(pres, psi))


def _syllable_draws(seed, count):
    """Three generators, two relators of 2-6 syllables g^e with |e| <= 8 or
    <= 30, psi the primitive cross product of the exponent-sum rows."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        bound = rng.choice((8, 30))
        relators = []
        for _ in range(2):
            letters = []
            for _ in range(rng.randint(2, 6)):
                g, e = rng.randint(1, 3), rng.choice([v for v in range(-bound, bound + 1) if v])
                letters += [g if e > 0 else -g] * abs(e)
            relators.append(Word(letters))
        if not all(relators):
            continue
        pres = FinitePresentation(("x", "y", "z"), tuple(relators))
        (a1, a2, a3), (b1, b2, b3) = exponent_sum_matrix(pres)
        cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        g = math.gcd(*cross)
        if g:
            out.append((pres, tuple(v // g for v in cross)))
    return out


def test_syllable_family_matches_sympy():
    certified = refused = 0
    for pres, psi in _syllable_draws(1, 24):
        try:
            rep = annulus_certify(pres, psi, certify_only=True)
        except SizeBudgetExceeded:
            refused += 1
            continue
        oracle = sympy_minor_gcd(specialize_jacobian(pres, psi))
        assert [int(c) for c in rep.delta.dense()] == oracle, (pres, psi)
        certified += 1
    assert (certified, refused) == (23, 1)
