"""Acceptance suite: the exit criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import conjugacy_oracle, random_presentation, random_sl2z_matrix
from torsionpoly.bundles import (
    enumerate_candidate_charpolys,
    power_cover,
    verify_monodromy_torsion,
)
from torsionpoly.cli import main
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS
from torsionpoly.laurent import (
    LaurentPoly,
    complex_roots,
    determinant,
    gcd,
    normalize,
    rank,
    smith_normal_form,
)
from torsionpoly.presentation import enumerate_epimorphisms
from torsionpoly.sl2z import RLWord, classes_with_trace, rl_to_matrix
from torsionpoly.torsion import annulus_certify, scan, specialize_jacobian, torsion_polynomial

TOL = 1e-10


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS", flush=True)


def lp(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


@pytest.fixture(scope="module")
def random_suite():
    """200 random presentations with every valid map of sup-norm <= 2,
    specialized once and shared by criteria 2 and 3."""
    rng = random.Random(22061)
    suite = []
    for _ in range(200):
        pres = random_presentation(rng, max_gens=3, max_relators=3, max_len=12)
        entries = []
        for psi in enumerate_epimorphisms(pres, 2):
            for signed in (psi, tuple(-v for v in psi)):
                entries.append((signed, specialize_jacobian(pres, signed)))
        suite.append((pres, entries))
    return suite


def test_criterion_1_trefoil_end_to_end(tmp_path, capsys):
    with criterion(1, "trefoil end-to-end"):
        f = tmp_path / "trefoil.pres"
        f.write_text("gens: x, y\nrel: x y x Y X Y\n")
        code = main(["torsion", "--pres", str(f), "--psi", "1,1", "--tol", str(TOL), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["delta"]["coeffs"] == ["1", "-1", "1"]
        assert doc["k"] == 6
        assert doc["c"] == "73"
        assert doc["verdict"] == "pass"
        mods = [float(r["modulus"]) for r in doc["roots"]]
        assert len(mods) == 2 and all(abs(m - 1) <= TOL for m in mods)


def test_criterion_2_norm_bounds(random_suite):
    with criterion(2, "specialization and minor norm bounds"):
        total_maps = 0
        for pres, entries in random_suite:
            m = pres.num_generators
            for psi, jac in entries:
                total_maps += 1
                k = jac.complexity
                assert jac.total_norm() <= k
                bound = math.factorial(m) * Fraction(k) ** m
                rows, cols = jac.num_relators, m
                for r in range(1, min(rows, cols) + 1):
                    for ri in itertools.combinations(range(rows), r):
                        for ci in itertools.combinations(range(cols), r):
                            d = determinant([[jac.entries[i][j] for j in ci] for i in ri])
                            assert d.norm_l1() <= bound
        assert total_maps >= 200  # the suite genuinely exercises many maps


def test_criterion_3_cross_pipeline(random_suite):
    with criterion(3, "minor-GCD vs Smith invariant factors"):
        for pres, entries in random_suite:
            for psi, jac in entries:
                matrix = [list(row) for row in jac.entries]
                r = rank(matrix)
                if r == 0:
                    continue
                via_minors = LaurentPoly.zero()
                for ri in itertools.combinations(range(jac.num_relators), r):
                    for ci in itertools.combinations(range(jac.num_generators), r):
                        d = determinant([[jac.entries[i][j] for j in ci] for i in ri])
                        via_minors = gcd(via_minors, d)
                factors, _ = smith_normal_form(matrix)
                product = LaurentPoly.one()
                for f in factors[:r]:
                    product = product * f
                assert via_minors == normalize(product)
                # the pipeline's proved minor GCD against the Smith product
                assert torsion_polynomial(jac) == normalize(product)


def test_criterion_4_corpus_annulus():
    with criterion(4, "no annulus failures on the 3-manifold corpus"):
        assert len(THREE_MANIFOLD_CORPUS) >= 10
        for entry in THREE_MANIFOLD_CORPUS:
            pres = entry.presentation()
            rep = annulus_certify(pres, entry.psi, tol=TOL)
            assert rep.verdict in ("pass", "vacuous"), (entry.name, rep.verdict)
            for rep in scan(pres, 2, tol=TOL):
                assert rep.verdict in ("pass", "vacuous"), (entry.name, rep.psi, rep.verdict)


def test_criterion_5_monodromy_torsion_exhaustive():
    with criterion(5, "torsion equals charpoly for all small monodromies"):
        mats = [
            [[a, b], [c, d]]
            for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
            if a * d - b * c == 1
        ]
        assert len(mats) == 52  # exhaustive det-1 census of the [-2,2] box
        for m in mats:
            assert verify_monodromy_torsion(m).ok, m
        rep = verify_monodromy_torsion([[2, 1], [1, 1]])
        assert normalize(rep.torsion) == lp(1, -3, 1)
        mods = sorted(abs(z) for z, _ in complex_roots(rep.torsion, TOL))
        assert abs(mods[0] - 0.3819660113) <= 1e-9
        assert abs(mods[1] - 2.6180339887) <= 1e-9


def test_criterion_6_power_covers():
    with criterion(6, "root powers under cyclic covers"):
        rng = random.Random(31415)
        for _ in range(100):
            m = random_sl2z_matrix(rng, entry_bound=10)
            for n in (1, 2, 3, 4, 5):
                rep = power_cover(m, n, tol=TOL)
                assert rep.exact_ok and rep.numeric_ok, (m, n)
                if n == 1:
                    assert rep.base.display() == rep.power.display()


def test_criterion_7_conjugacy_census():
    with criterion(7, "R/L-word classes match the brute-force oracle"):
        for tau_abs in range(3, 11):
            for tau in (tau_abs, -tau_abs):
                words = classes_with_trace(tau)
                mats = [rl_to_matrix(w) for w in words]
                for i, j in itertools.combinations(range(len(mats)), 2):
                    assert conjugacy_oracle(mats[i], mats[j], 200) == "distinct"
                for w in words:
                    rotated = RLWord(w.blocks[1:] + w.blocks[:1], w.sign)
                    verdict = conjugacy_oracle(rl_to_matrix(w), rl_to_matrix(rotated), 200)
                    assert verdict == "same-class"
        assert len(classes_with_trace(3)) == 1
        assert len(classes_with_trace(-3)) == 1


def test_criterion_8_candidate_charpolys():
    with criterion(8, "finite candidate set for annulus-compatible charpolys"):
        cands = enumerate_candidate_charpolys(2, 1, 2)
        assert lp(1, -1, 1) in cands
        assert lp(1, -3, 1) not in cands
        as_set = set(cands)
        for p in cands:
            mods = [abs(z) for z, _ in complex_roots(p, TOL)]
            assert min(mods) >= 0.5 - 10 * TOL and max(mods) <= 2 + 10 * TOL
            rev = LaurentPoly.from_coeffs(list(reversed(p.dense())))
            lead = rev.coeffs[rev.max_exp]
            assert rev.scale(1 / lead) in as_set


def test_criterion_9_exact_only_regression():
    with criterion(9, "certify-only mode reproduces the corpus verdicts"):
        rep = annulus_certify(
            THREE_MANIFOLD_CORPUS[0].presentation(), (1, 1), certify_only=True
        )
        assert rep.verdict == "pass" and rep.roots == ()
        for entry in THREE_MANIFOLD_CORPUS:
            rep = annulus_certify(entry.presentation(), entry.psi, certify_only=True)
            assert rep.verdict in ("pass", "vacuous"), (entry.name, rep.verdict)
            assert rep.roots == ()
