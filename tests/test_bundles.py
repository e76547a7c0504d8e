"""Monodromy matrices, mapping tori, power covers, candidate polynomials."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.subresultants_qq_zz import sylvester

from helpers import random_sl2z_matrix
from torsionpoly.bundles import (
    AlgebraicMonodromy,
    _resultant_power,
    HomologyBundleData,
    charpoly,
    enumerate_candidate_charpolys,
    mapping_torus_presentation,
    monodromy,
    power_cover,
    verify_monodromy_torsion,
)
from torsionpoly.laurent import LaurentPoly, complex_roots, normalize
from torsionpoly.presentation import serialize_presentation, validate_epimorphism


def lp(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_bundle_data_validates_determinants():
    HomologyBundleData(2, frac_mat([[1, 0], [0, 1]]), frac_mat([[2, 1], [1, 1]]))
    with pytest.raises(ValueError):
        HomologyBundleData(2, frac_mat([[2, 0], [0, 1]]), frac_mat([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="y must have determinant 1"):
        HomologyBundleData(2, frac_mat([[1, 0], [0, 1]]), frac_mat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="y must be integral"):
        HomologyBundleData(2, frac_mat([[1, 0], [0, 1]]), [[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(ValueError):
        HomologyBundleData(0, [], [])
    with pytest.raises(ValueError):
        HomologyBundleData(2, frac_mat([[1, 0], [0, 1]]), frac_mat([[1, 0, 0], [0, 1, 0]]))
    for rows in ([[2, 0], [0, 1]], [[-1]]):
        with pytest.raises(ValueError, match="monodromy must have determinant 1"):
            AlgebraicMonodromy(rows)


def test_monodromy_products():
    data = HomologyBundleData(2, frac_mat([[1, 0], [0, 1]]), frac_mat([[2, 1], [1, 1]]))
    assert monodromy(data).matrix == ((2, 1), (1, 1))
    data = HomologyBundleData(2, [[Fraction(1, 2), 0], [0, 2]], frac_mat([[1, 0], [0, 1]]))
    assert monodromy(data).matrix == ((Fraction(1, 2), 0), (0, 2))
    a = frac_mat([[2, 1], [1, 1]])
    ainv = frac_mat([[1, -1], [-1, 2]])
    assert monodromy(HomologyBundleData(2, ainv, a)).matrix == ((1, 0), (0, 1))


def test_charpoly_examples():
    assert charpoly(frac_mat([[2, 1], [1, 1]])) == lp(1, -3, 1)
    assert charpoly(frac_mat([[1, 0], [0, 1]])) == lp(1, -2, 1)
    assert charpoly(frac_mat([[0, -1], [1, 0]])) == lp(1, 0, 1)
    # odd beta flips the sign of det(phi - tI); sympy's charpoly is det(tI - phi)
    for rows in ([[1]], [[-1]], [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
                 [[1, 2, 3], [0, 1, 4], [5, 6, 0]], [[Fraction(1, 2), 0, 0], [0, 2, 0], [3, 0, 1]]):
        want = sympy.Matrix(rows).charpoly().all_coeffs()[::-1]
        assert charpoly(frac_mat(rows)) == lp(*(Fraction(int(c.p), int(c.q)) for c in want))


def test_charpoly_constant_term_is_unit():
    rng = random.Random(3)
    for _ in range(40):
        m = random_sl2z_matrix(rng)
        cp = charpoly(frac_mat(m))
        assert cp.max_exp == 2
        assert abs(cp.coeffs[0]) == 1


def test_charpoly_rational_monodromy_keeps_denominators():
    phi = AlgebraicMonodromy([[Fraction(1, 2), 0], [0, 2]])
    cp = charpoly(phi)
    assert cp == LaurentPoly({2: Fraction(1), 1: Fraction(-5, 2), 0: Fraction(1)})


def test_mapping_torus_identity_and_examples():
    pres, psi = mapping_torus_presentation([[1, 0], [0, 1]])
    assert serialize_presentation(pres) == (
        "gens: a, b, s\nrel: a b A B\nrel: s a S A\nrel: s b S B\n"
    )
    assert psi == (0, 0, 1)
    assert validate_epimorphism(pres, psi) is None

    pres, _ = mapping_torus_presentation([[2, 1], [1, 1]])
    assert serialize_presentation(pres) == (
        "gens: a, b, s\nrel: a b A B\nrel: s a S B A A\nrel: s b S B A\n"
    )

    pres, _ = mapping_torus_presentation([[1, 1], [0, 1]])
    assert serialize_presentation(pres) == (
        "gens: a, b, s\nrel: a b A B\nrel: s a S A\nrel: s b S B A\n"
    )


def test_mapping_torus_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        mapping_torus_presentation([[2, 0], [0, 1]])


def test_monodromy_torsion_examples():
    r = verify_monodromy_torsion([[2, 1], [1, 1]])
    assert r.ok and normalize(r.torsion) == lp(1, -3, 1)
    r = verify_monodromy_torsion([[1, 0], [0, 1]])
    assert r.ok and normalize(r.torsion) == lp(1, -2, 1)
    r = verify_monodromy_torsion([[1, 1], [0, 1]])
    assert r.ok and normalize(r.torsion) == lp(1, -2, 1)


def test_monodromy_torsion_random_matrices():
    rng = random.Random(9)
    for _ in range(25):
        assert verify_monodromy_torsion(random_sl2z_matrix(rng, entry_bound=3)).ok


def test_power_cover_identity_case():
    rep = power_cover([[2, 1], [1, 1]], 1)
    assert rep.ok
    assert rep.base.display() == rep.power.display()


def test_power_cover_examples():
    rep = power_cover([[2, 1], [1, 1]], 2)
    assert rep.ok and rep.power == lp(1, -7, 1)
    rep = power_cover([[0, -1], [1, 0]], 2)
    assert rep.ok and rep.power == lp(1, 2, 1)


def test_power_cover_random():
    rng = random.Random(10)
    for _ in range(15):
        m = random_sl2z_matrix(rng)
        for n in (1, 2, 3, 4, 5):
            assert power_cover(m, n).ok


def test_power_cover_validates_input():
    with pytest.raises(ValueError):
        power_cover([[2, 0], [0, 1]], 2)
    with pytest.raises(ValueError):
        power_cover([[2, 1], [1, 1]], 0)
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        power_cover([[1, 0, 0], [0, 1, 0], [0, 0, 5]], 2)
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        power_cover([[1, 0], [0]], 2)


def _monicize(p):
    lead = p.coeffs[p.max_exp]
    return p.scale(1 / lead)


def test_candidates_weed_out_and_keep():
    cands = enumerate_candidate_charpolys(2, 1, 2)
    assert lp(1, -1, 1) in cands
    assert lp(1, -3, 1) not in cands
    assert lp(1, -3, 1) in enumerate_candidate_charpolys(2, 1, 3)


def test_candidates_root_check_and_reciprocal_closure():
    c = Fraction(2)
    cands = enumerate_candidate_charpolys(2, 1, c)
    as_set = set(cands)
    for p in cands:
        for z, _ in complex_roots(p, 1e-10):
            assert float(1 / c) - 1e-8 <= abs(z) <= float(c) + 1e-8
        rev = _monicize(LaurentPoly.from_coeffs(list(reversed(p.dense()))))
        assert rev in as_set
    assert cands == sorted(cands, key=lambda p: tuple(p.dense()))
    assert len(as_set) == len(cands)


def test_candidates_degree_one():
    assert enumerate_candidate_charpolys(1, 1, 5) == [lp(-1, 1), lp(1, 1)]


def test_candidates_guards():
    with pytest.raises(ValueError):
        enumerate_candidate_charpolys(5, 1, 2)
    with pytest.raises(ValueError):
        enumerate_candidate_charpolys(4, 10, 100)
    with pytest.raises(ValueError):
        enumerate_candidate_charpolys(2, 1, Fraction(1, 2))
    with pytest.raises(ValueError, match="denominator bound must be >= 1"):
        enumerate_candidate_charpolys(2, 0, 2)


def test_candidates_denominators():
    cands = enumerate_candidate_charpolys(2, 2, Fraction(3, 2))
    assert cands  # nonempty
    for p in cands:
        for coeff in p.dense():
            assert 4 % coeff.denominator == 0


def test_resultant_power_matches_sympy():
    # Res_lambda(p(lambda), lambda^n - t) is the determinant of the Sylvester
    # matrix of p and lambda^n - t; sympy.resultant agrees up to its sign
    # convention, which differs for some odd degrees
    lam, t = sympy.symbols("lam t")
    rng = random.Random(8)
    for _ in range(10):
        cs = [rng.randint(-6, 6) or 1] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 3))]
        cs.append(rng.choice([1, -1, 2, 3]))
        f = sympy.Poly(list(reversed(cs)), lam).as_expr()
        for n in range(1, 6):
            got = [int(c) for c in _resultant_power(lp(*cs), n).dense()]

            def coeffs(expr):
                return [int(c) for c in reversed(sympy.Poly(expr, t).all_coeffs())]

            assert got == coeffs(sylvester(f, lam**n - t, lam).det()), (cs, n)
            ref = coeffs(sympy.resultant(f, lam**n - t, lam))
            assert got in (ref, [-c for c in ref]), (cs, n)
