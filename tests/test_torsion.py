"""Specialization, torsion polynomials, and annulus certification."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import torsionpoly
import torsionpoly.torsion as torsion_mod
from helpers import random_presentation
from torsionpoly.cli import main
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS
from torsionpoly.freegroup import fox_derivative
from torsionpoly.laurent import (
    LaurentPoly,
    RootFindingError,
    determinant,
    gcd,
    normalize,
    reciprocal,
)
from torsionpoly.presentation import parse_presentation, enumerate_epimorphisms, root_bound_c
from torsionpoly.torsion import (
    InvalidEpimorphism,
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


def test_minor_cap_falls_back_to_invariant_factors(monkeypatch):
    import torsionpoly.torsion as torsion_mod

    jac = specialize_jacobian(TREFOIL, (1, 1))
    full = torsion_polynomial(jac)
    monkeypatch.setattr(torsion_mod, "MINOR_ENUMERATION_CAP", 0)
    assert torsion_polynomial(jac) == full


def test_specialize_rejects_invalid_psi():
    with pytest.raises(InvalidEpimorphism):
        specialize_jacobian(TREFOIL, (1, 2))
    with pytest.raises(InvalidEpimorphism):
        specialize_jacobian(TREFOIL, (2, 2))


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
    assert abs(rep.min_modulus - 1) < 1e-10 and abs(rep.max_modulus - 1) < 1e-10


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
    assert rep.roots == () and rep.min_modulus is None


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


# -- every _certify verdict on synthetic polynomials -------------------------


@pytest.mark.parametrize(
    "coeffs, c, certify_only, verdict, exact",
    [
        ((1, -3, 1), 3, False, "pass", False),  # roots 0.38 and 2.62 inside [1/3, 3]
        ((-3, 1), 2, False, "fail", False),  # root 3 outside [1/2, 2]
        ((-2, 1), 2, False, "boundary-indeterminate", False),  # root 2 on the boundary
        ((-3, 1), 2, True, "unknown", False),  # certificate fails, no numerics
        ((0, 0, 0, 5), 2, False, "vacuous", True),  # 5t^3 is a unit
    ],
)
def test_certify_verdicts(coeffs, c, certify_only, verdict, exact):
    rep = torsion_mod._certify(lp(*coeffs), (1,), Fraction(c), 1, 1e-10, certify_only, 0)
    assert rep.verdict == verdict
    assert rep.exact_certified is exact
    assert rep.failure is None
    assert bool(rep.roots) == (verdict in ("pass", "fail", "boundary-indeterminate"))


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

_WRONG_SMITH = """
import sys
import torsionpoly.torsion as T
from torsionpoly.laurent import InvariantViolation, LaurentPoly
from torsionpoly.presentation import parse_presentation

real = T.smith_normal_form

def wrong(rows):
    factors, uv = real(rows)
    return [factors[0] * (LaurentPoly.t() + LaurentPoly.constant(2))] + factors[1:], uv

T.smith_normal_form = wrong
jac = T.specialize_jacobian(parse_presentation("gens: x, y\\nrel: x y x Y X Y\\n"), (1, 1))
try:
    T.torsion_polynomial(jac)
except InvariantViolation as exc:
    print(f"optimize={sys.flags.optimize} InvariantViolation: {exc}")
"""


def test_invariant_violation_survives_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_SMITH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "optimize=1 InvariantViolation: minor-GCD and Smith routes disagree"
