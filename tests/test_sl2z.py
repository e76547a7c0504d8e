"""R/L-word classes, the conjugacy oracle, and the Sol census."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest

from helpers import (
    DISTINCT, INCONCLUSIVE, SAME_CLASS, census_by_rotation_sets, conjugacy_oracle, mat_inv,
)
from torsionpoly.bundles import charpoly
from torsionpoly.laurent import complex_roots
from torsionpoly.sl2z import (
    RLWord,
    canonicalize,
    classes_with_trace,
    inverse_class,
    rl_to_matrix,
    sol_candidates,
    trace,
)


def test_rl_to_matrix_examples():
    assert rl_to_matrix(RLWord(((1, 1),))) == ((2, 1), (1, 1))
    assert rl_to_matrix(RLWord(((2, 1),))) == ((3, 2), (1, 1))
    assert rl_to_matrix(RLWord(((1, 1),), sign=-1)) == ((-2, -1), (-1, -1))


def test_rl_word_validation():
    with pytest.raises(ValueError):
        RLWord(())
    with pytest.raises(ValueError):
        RLWord(((0, 1),))
    with pytest.raises(ValueError):
        RLWord(((1, 1),), sign=2)


def test_rl_word_rejects_bad_construction():
    valid = RLWord(((1, 2),))
    for blocks, sign, message in (
        ((), 1, "at least one block"),
        (((0, 1),), 1, "block exponents must be >= 1"),
        (((1, 1), (2, -1)), -1, "block exponents must be >= 1"),
        (((1, 1),), 2, "sign must be"),
        (((1, 1),), 0, "sign must be"),
    ):
        with pytest.raises(ValueError, match=message):
            RLWord(blocks, sign)
    assert valid == RLWord(((1, 2),), 1) != RLWord(((1, 2),), -1)


def test_rl_word_is_an_immutable_value():
    # words the sweep builds unchecked equal and hash as checked ones
    swept, negated = classes_with_trace(3)[0], classes_with_trace(-3)[0]
    built = RLWord(((1, 1),))
    assert type(swept) is type(negated) is RLWord
    assert swept == built and hash(swept) == hash(built) and len({swept, built}) == 1
    assert negated == RLWord(((1, 1),), -1) != built
    assert swept != RLWord(((1, 2),))
    for name in ("blocks", "sign", "weight", "extra"):
        with pytest.raises(AttributeError):
            setattr(swept, name, ())
        with pytest.raises(AttributeError):
            delattr(swept, name)
    assert pickle.loads(pickle.dumps(negated)) == negated
    # not a tuple, so a list of words is never read as (trace, words) pairs
    assert not isinstance(swept, tuple) and isinstance(sol_candidates(3)[0], tuple)
    assert swept == built and swept.sign == 1


def test_canonicalize_rotation():
    w1 = RLWord(((2, 1), (1, 3)))
    w2 = RLWord(((1, 3), (2, 1)))
    assert canonicalize(w1) == canonicalize(w2)
    single = RLWord(((3, 2),))
    assert canonicalize(single) == single
    assert canonicalize(canonicalize(w1)) == canonicalize(w1)


def test_trace_invariant_under_rotation():
    rng = random.Random(2)
    for _ in range(30):
        blocks = tuple(
            (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
        )
        w = RLWord(blocks)
        assert trace(rl_to_matrix(w)) == trace(rl_to_matrix(canonicalize(w)))


def test_trace_monotone_in_block_exponents():
    rng = random.Random(15)
    for _ in range(25):
        blocks = tuple(
            (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
        )
        base = trace(rl_to_matrix(RLWord(blocks)))
        for i, (a, b) in enumerate(blocks):
            for bumped in ((a + 1, b), (a, b + 1)):
                grown = blocks[:i] + (bumped,) + blocks[i + 1 :]
                assert trace(rl_to_matrix(RLWord(grown))) > base
        assert base >= sum(a * b for a, b in blocks) + 2


def test_classes_trace_three():
    assert classes_with_trace(3) == [RLWord(((1, 1),))]
    assert classes_with_trace(-3) == [RLWord(((1, 1),), sign=-1)]


def test_classes_reject_nonhyperbolic():
    for tau in (-2, -1, 0, 1, 2):
        with pytest.raises(ValueError):
            classes_with_trace(tau)


def test_classes_negation_bijection():
    for tau in range(3, 9):
        pos = classes_with_trace(tau)
        neg = classes_with_trace(-tau)
        assert [RLWord(w.blocks, -1) for w in pos] == neg
        assert all(trace(rl_to_matrix(w)) == -tau for w in neg)


def test_classes_have_stated_trace_and_weight_bound():
    for tau in range(3, 12):
        for w in classes_with_trace(tau):
            assert trace(rl_to_matrix(w)) == tau
            assert w.weight() <= tau - 2


def test_class_charpoly_is_hyperbolic():
    for tau in range(3, 9):
        for w in classes_with_trace(tau):
            m = rl_to_matrix(w)
            cp = charpoly([[Fraction(v) for v in row] for row in m])
            assert cp.dense() == [Fraction(1), Fraction(-tau), Fraction(1)]
            for z, _ in complex_roots(cp, 1e-10):
                assert abs(z.imag) < 1e-12
                assert abs(abs(z) - 1) > 0.05


def test_census_matches_the_unpruned_sweep():
    # the reference canonicalizes every rotation of every word it visits
    reference = census_by_rotation_sets(60)
    expected = []
    for tau in range(3, 61):
        pos = reference.get(tau, [])
        expected += [(tau, pos), (-tau, [RLWord(w.blocks, -1) for w in pos])]
    for top in range(3, 61):
        assert sol_candidates(top) == expected[: 2 * (top - 2)]
    for tau, words in expected:
        assert classes_with_trace(tau) == words
        assert all(canonicalize(w) == w for w in words)
        necklaces = {
            frozenset(w.blocks[i:] + w.blocks[:i] for i in range(len(w.blocks))) for w in words
        }
        assert len(necklaces) == len(words)


def test_oracle_same_class_examples():
    a = ((2, 1), (1, 1))
    assert conjugacy_oracle(a, ((1, 1), (1, 2)), 200) == SAME_CLASS
    assert conjugacy_oracle(a, a, 200) == SAME_CLASS


def test_oracle_trace_separates():
    assert conjugacy_oracle(((2, 1), (1, 1)), ((3, 2), (1, 1)), 200) == DISTINCT


def test_oracle_inconclusive_when_out_of_bound():
    # two det-1, trace-501 matrices whose entries leave the bound
    m1 = ((500, 1), (499, 1))
    m2 = ((250, 62749), (1, 251))
    assert trace(m1) == trace(m2) == 501
    assert conjugacy_oracle(m1, m2, 200) == INCONCLUSIVE
    # differing traces stay decidable no matter the size
    assert conjugacy_oracle(((2, 1), (1, 1)), ((1000, 1), (999, 1)), 200) == DISTINCT


def test_oracle_agrees_with_word_partition():
    for tau in range(3, 11):
        words = classes_with_trace(tau)
        mats = [rl_to_matrix(w) for w in words]
        for i, j in itertools.combinations(range(len(mats)), 2):
            assert conjugacy_oracle(mats[i], mats[j], 200) == DISTINCT
        for w in words:
            rotated = RLWord(w.blocks[1:] + w.blocks[:1], w.sign)
            assert conjugacy_oracle(rl_to_matrix(w), rl_to_matrix(rotated), 200) == SAME_CLASS


def _all_det1_matrices_with_trace(tau, bound):
    out = []
    for a in range(-bound, bound + 1):
        d = tau - a
        if abs(d) > bound:
            continue
        for b in range(-bound, bound + 1):
            num = a * d - 1
            if b == 0:
                if num == 0:
                    out.extend(((a, 0), (c, d)) for c in range(-bound, bound + 1))
                continue
            if num % b:
                continue
            c = num // b
            if abs(c) <= bound:
                out.append(((a, b), (c, d)))
    return sorted(set(out))


def test_every_small_matrix_lands_in_exactly_one_class():
    # independent completeness check: the canonical words together hit every
    # small determinant-1 matrix of their trace, with no overlaps
    for tau in (3, 4, 5):
        reps = [rl_to_matrix(w) for w in classes_with_trace(tau)]
        for m in _all_det1_matrices_with_trace(tau, 12):
            hits = [r for r in reps if conjugacy_oracle(m, r, 400) == SAME_CLASS]
            assert len(hits) == 1, (m, hits)


def test_inverse_class_is_the_inverse_conjugacy_class():
    rng = random.Random(4)
    for _ in range(20):
        blocks = tuple(
            (rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))
        )
        w = RLWord(blocks)
        inv_word = inverse_class(w)
        m_inv = mat_inv(rl_to_matrix(w))
        assert conjugacy_oracle(rl_to_matrix(inv_word), m_inv, 400) == SAME_CLASS


def test_sol_candidates_small():
    assert sol_candidates(1) == []
    census = sol_candidates(3)
    assert [tau for tau, _ in census] == [3, -3]
    assert all(len(words) == 1 for _, words in census)


def test_sol_candidates_monotone():
    sizes = []
    for c in (1, 2, 3, 4, 5):
        census = sol_candidates(Fraction(c))
        sizes.append(sum(len(words) for _, words in census))
    assert sizes == sorted(sizes)


def test_sol_candidates_trace_bound_is_sharp():
    census = sol_candidates(Fraction(3))
    assert max(abs(tau) for tau, _ in census) == 3  # floor(3 + 1/3)
    census = sol_candidates(Fraction(73))
    assert max(abs(tau) for tau, _ in census) == 73


def test_sol_candidates_rejects_small_c():
    with pytest.raises(ValueError):
        sol_candidates(Fraction(1, 2))
