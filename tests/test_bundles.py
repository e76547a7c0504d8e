"""Monodromy matrices, mapping tori, power covers, candidate polynomials
and the exact annulus test behind them."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from sympy.polys.subresultants_qq_zz import sylvester

import torsionpoly.bundles as bundles_mod
import torsionpoly.laurent as laurent_mod
from helpers import candidate_charpolys_by_roots, random_sl2z_matrix
from torsionpoly.bundles import (
    _resultant_power,
    charpoly,
    enumerate_candidate_charpolys,
    mapping_torus_presentation,
    power_cover,
    verify_monodromy_torsion,
)
from torsionpoly.freegroup import Word
from torsionpoly.laurent import (
    LaurentPoly,
    complex_roots,
    normalize,
    roots_in_annulus,
)
from torsionpoly.presentation import (
    POWER_COVER_CAP,
    FinitePresentation,
    serialize_presentation,
    validate_epimorphism,
)
from torsionpoly.sl2z import sol_candidates


def lp(*coeffs):
    return LaurentPoly.from_coeffs(coeffs)


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_bundle_records_are_immutable_values():
    a = [[2, 1], [1, 1]]
    for make, other in (
        (lambda: verify_monodromy_torsion(a), verify_monodromy_torsion([[3, 2], [1, 1]])),
        (lambda: power_cover(a, 2), power_cover(a, 3)),
    ):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second) and len({first, second}) == 1
        assert first != other
        for name in (*first._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(first, name, None)
        assert first == second


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
    cp = charpoly([[Fraction(1, 2), 0], [0, 2]])
    assert cp == LaurentPoly({2: Fraction(1), 1: Fraction(-5, 2), 0: Fraction(1)})


def test_charpoly_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="expected a 1x1 matrix"):
        charpoly([[1, 2]])
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        charpoly([[1, 0], [0]])


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


@pytest.mark.parametrize("entry", [Fraction(5, 2), 2.7], ids=["fraction", "float"])
def test_monodromy_entries_must_be_integers(entry):
    # entries are never truncated: [[5/2, 1], [3, 2]] is not read as [[2, 1], [3, 2]]
    a = [[entry, 1], [3, 2]]
    for run in (lambda: power_cover(a, 1), lambda: verify_monodromy_torsion(a),
                lambda: mapping_torus_presentation(a)):
        with pytest.raises(ValueError, match="expected an integer matrix"):
            run()


def test_integral_entries_of_any_type_are_accepted():
    for two in (Fraction(2), 2.0):
        a = [[two, 1], [1, 1]]
        assert power_cover(a, 3) == power_cover([[2, 1], [1, 1]], 3)
        assert verify_monodromy_torsion(a) == verify_monodromy_torsion([[2, 1], [1, 1]])
        assert mapping_torus_presentation(a) == mapping_torus_presentation([[2, 1], [1, 1]])


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


# -- the exact annulus test ---------------------------------------------------


def reciprocal_pair(c, past=0):
    """t^2 - (c + 1/c + past) t + 1: roots exactly c and 1/c when past is 0."""
    c = Fraction(c)
    return LaurentPoly({2: 1, 1: -(c + 1 / c + past), 0: 1})


@pytest.mark.parametrize("c", [Fraction(2), Fraction(3, 2)], ids=["2", "3/2"])
def test_real_roots_on_both_circles_are_kept(c):
    p = reciprocal_pair(c)
    assert roots_in_annulus(p, c)
    assert not roots_in_annulus(p, c - Fraction(1, 1000))


@pytest.mark.parametrize("c", [Fraction(2), Fraction(3, 2)], ids=["2", "3/2"])
def test_complex_pairs_on_both_circles_are_kept(c):
    # c e^(+-i pi/3) and e^(+-i pi/3) / c: (t^2 - c t + c^2)(t^2 - t/c + 1/c^2)
    p = LaurentPoly({2: 1, 1: -c, 0: c * c}) * LaurentPoly({2: 1, 1: -1 / c, 0: 1 / (c * c)})
    assert p.dense()[0] == p.dense()[-1] == 1
    assert sorted(round(abs(z), 12) for z, _ in complex_roots(p, 1e-10)) == [round(float(1 / c), 12)] * 2 + [float(c)] * 2
    assert roots_in_annulus(p, c)
    assert not roots_in_annulus(p, c - Fraction(1, 1000))


@pytest.mark.parametrize("c", [Fraction(2), Fraction(3, 2)], ids=["2", "3/2"])
def test_roots_just_past_the_circles_are_rejected(c):
    p = reciprocal_pair(c, Fraction(1, 1000))
    assert not roots_in_annulus(p, c)
    assert roots_in_annulus(p, c + Fraction(1, 100))


def test_closed_disk_test_matches_root_moduli():
    # seeded polynomials of degree 1-6 whose roots keep 1e-6 away from the
    # unit circle, against the moduli of their numeric roots
    rng = random.Random(20)
    decided = Counter()
    for _ in range(3600):
        deg = rng.randint(1, 6)
        q = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, -2, 3, 7, -12, 30])]
        moduli = [abs(z) for z, _ in complex_roots(LaurentPoly.from_coeffs(q), 1e-10)]
        if any(abs(m - 1) < 1e-6 for m in moduli):
            continue
        inside = all(m < 1 for m in moduli)
        assert laurent_mod._in_closed_unit_disk(q) is inside, q
        decided[inside] += 1
    assert sum(decided.values()) >= 3000 and decided[True] >= 300 and decided[False] >= 300


def on_circle_cases():
    """(polynomial, all roots in the closed disk) built from factors with
    roots on the circle, inside it, outside it, and at 0."""
    phi = [lp(*laurent_mod._cyclotomic(n)) for n in (1, 2, 3, 5, 12)]
    circle = lp(5, -6, 5) * lp(5, 8, 5)  # roots (3 +- 4i)/5 and (-4 +- 3i)/5
    salem = lp(1, -1, -1, -1, 1)  # two roots on the circle, 1/x and x > 1
    t = LaurentPoly.t()
    return [
        (phi[0] ** 3 * phi[1] ** 2, True),
        (phi[2] * phi[3] ** 2 * phi[4], True),
        (circle, True),
        (circle ** 2 * lp(-1, 3) * t, True),
        (circle * phi[4] ** 2 * lp(1, 0, 4), True),
        (circle * lp(-2, 1), False),
        (circle ** 2 * lp(-1, 2) * lp(-2, 1), False),
        (phi[2] ** 2 * lp(1, 0, 0, 2), True),
        (phi[2] * lp(2, 0, 0, 1), False),
        (salem, False),
        (salem * lp(1, 4), False),
        (lp(1, 0, 1) ** 3, True),
        (lp(1, 1, 0, 0, 0, 0, 1), False),
    ]


@pytest.mark.parametrize("p, inside", on_circle_cases())
def test_closed_disk_test_on_the_circle(p, inside):
    q = [int(c) for c in p.dense()]
    assert laurent_mod._in_closed_unit_disk([0] * p.min_exp + q) is inside
    moduli = [abs(z) for z, _ in complex_roots(p, 1e-10)]
    assert (max(moduli) <= 1 + 1e-9) is inside


@pytest.mark.parametrize("grid", [(1, 3, 2), (2, 1, 3), (2, 2, 2), (2, 3, Fraction(5, 2)), (3, 1, 2)],
                         ids=lambda g: "-".join(map(str, g)))
def test_candidates_match_the_numeric_filter(grid):
    assert enumerate_candidate_charpolys(*grid) == candidate_charpolys_by_roots(*grid)


@pytest.mark.parametrize("c", [1, Fraction(3, 2), 2, Fraction(5, 2), 3, Fraction(7, 2), 10,
                               Fraction(41, 4), 25], ids=str)
def test_candidate_search_finds_the_sol_census_traces(c):
    # a closed manifold with root bound c dominates only the Sol manifolds whose
    # monodromy trace tau has t^2 - tau t + 1 with both roots in [1/c, c]: the
    # general candidate search and the closed-form census must agree on them
    searched = {-p.dense()[1] for p in enumerate_candidate_charpolys(2, 1, c)
                if p.dense()[0] == 1 and abs(p.dense()[1]) >= 3}
    assert searched == {tau for tau, _ in sol_candidates(c)}
    assert bool(searched) is (c > Fraction(5, 2))


def test_candidate_search_computes_no_roots(monkeypatch):
    calls = []
    real = laurent_mod.complex_roots
    for mod in (laurent_mod, bundles_mod):
        monkeypatch.setattr(mod, "complex_roots", lambda *a, **k: calls.append(a) or real(*a, **k))
    found = [enumerate_candidate_charpolys(*grid) for grid in ((2, 2, 2), (3, 1, 2), (4, 1, 1))]
    assert all(found) and calls == []


def test_resultant_power_matches_sympy():
    # Res_lambda(p(lambda), lambda^n - t) is the determinant of the Sylvester
    # matrix of p and lambda^n - t; sympy.resultant agrees up to its sign
    # convention, which differs for some odd degrees, so the sign is pinned by
    # the t-leading coefficient of that determinant, lead(p)^n (-1)^deg p
    lam, t = sympy.symbols("lam t")
    rng = random.Random(8)
    inputs = []
    for _ in range(10):
        cs = [rng.randint(-6, 6) or 1] + [rng.randint(-6, 6) for _ in range(rng.randint(0, 3))]
        cs.append(rng.choice([1, -1, 2, 3]))
        inputs.append(cs)
    # lambda^n is constant mod lambda^2 + 1 at even n and mod lambda^2 + lambda + 1
    # at n = 0 mod 3; (lambda - 1)^2 is the parabolic charpoly
    inputs += [[1, 0, 1], [1, 1, 1], [1, -2, 1]]

    def coeffs(expr):
        return [int(c) for c in reversed(sympy.Poly(expr, t).all_coeffs())]

    for cs in inputs:
        f = sympy.Poly(list(reversed(cs)), lam).as_expr()
        for n in range(1, POWER_COVER_CAP + 1):
            res = _resultant_power(lp(*cs), n)
            got = [int(c) for c in res.dense()]
            if n <= 5:
                assert got == coeffs(sylvester(f, lam**n - t, lam).det()), (cs, n)
            ref = coeffs(sympy.resultant(f, lam**n - t, lam))
            assert got in (ref, [-c for c in ref]), (cs, n)
            assert res.lo == 0 and got[-1] == cs[-1] ** n * (-1) ** (len(cs) - 1), (cs, n)
            # p's n rows of the Sylvester matrix carry its denominator
            assert _resultant_power(lp(*cs).scale(Fraction(1, 6)), n) == res.scale(Fraction(1, 6**n))


def test_resultant_power_takes_one_small_determinant(monkeypatch):
    sizes = []
    real = bundles_mod.determinant
    monkeypatch.setattr(bundles_mod, "determinant", lambda rows: sizes.append(len(rows)) or real(rows))
    for cs in ([1, -3, 1], [1, 18, 1], [1, 0, 1], [1, 1, 1], [1, -2, 1], [-1, 1], [2, 0, 1, 3],
               [-1, 4, 0, 0, 2]):
        for n in range(1, POWER_COVER_CAP + 1):
            sizes.clear()
            _resultant_power(lp(*cs), n)
            assert len(sizes) == 1 and sizes[0] <= 2 * (len(cs) - 1) - 1, (cs, n, sizes)


def _presentation_by_products(a):
    """The torus-bundle presentation as a product of reduced words."""
    ga, gb, gs = Word([1]), Word([2]), Word([3])

    def power(g, k):
        return Word([(1 if k > 0 else -1) * g.letters[0]] * abs(k))

    phi_a = power(ga, a[0][0]) * power(gb, a[1][0])
    phi_b = power(ga, a[0][1]) * power(gb, a[1][1])
    return FinitePresentation(("a", "b", "s"), (ga * gb * ~ga * ~gb, gs * ga * ~gs * ~phi_a,
                                                gs * gb * ~gs * ~phi_b))


def test_mapping_torus_relators_match_word_products():
    ladder, step = [], [[1, 0], [0, 1]]
    for _ in range(8):
        step = [[2 * step[0][0] + step[0][1], step[0][0] + step[0][1]],
                [2 * step[1][0] + step[1][1], step[1][0] + step[1][1]]]
        ladder.append(step)
    rng = random.Random(25)
    seeded = [random_sl2z_matrix(rng) for _ in range(40)]
    for a in ladder + seeded + [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]]]:
        assert mapping_torus_presentation(a) == (_presentation_by_products(a), (0, 0, 1)), a
