"""Word algebra, group ring, and Fox derivative tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import norm_l1
from torsionpoly.freegroup import IDENTITY, GroupRingElement, Word, fox_derivative

X, Y = 1, 2  # letters for generators 0 and 1

words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30).map(Word)
small_words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(Word)
gens = st.sampled_from([0, 1, 2])


def test_reduce_cancellation():
    assert Word([X, -X]) == IDENTITY


def test_reduce_inner_cancellation():
    assert Word([X, Y, -Y, X]).letters == (X, X)


def test_reduce_idempotent_on_reduced_input():
    w = Word([X, Y, X])
    assert Word(w.letters) == w


def test_concat_inverse_law():
    x = Word([X])
    assert x * ~x == IDENTITY


def test_concat_hand_reduction():
    assert Word([X, Y]) * Word([-Y, X]) == Word([X, X])


def test_concat_identity_law():
    u = Word([X, Y, -X])
    assert u * IDENTITY == u
    assert IDENTITY * u == u


def test_invert_examples():
    assert ~Word([X, Y]) == Word([-Y, -X])
    assert ~IDENTITY == IDENTITY


@given(words)
def test_invert_involution(u):
    assert ~~u == u


@given(words, words, words)
def test_concat_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


def _fox_recursive(w: Word, gen: int) -> GroupRingElement:
    """Independent oracle: direct recursion on the product rule, evaluated
    with two different bracketings which must agree."""
    letters = w.letters
    if not letters:
        return GroupRingElement.zero()
    if len(letters) == 1:
        a = letters[0]
        if a == gen + 1:
            return GroupRingElement.one()
        if a == -(gen + 1):
            return GroupRingElement.from_word(Word([a]), -1)
        return GroupRingElement.zero()

    def split(k):
        u, v = Word(letters[:k]), Word(letters[k:])
        return _fox_recursive(u, gen) + GroupRingElement.from_word(u) * _fox_recursive(v, gen)

    left, right = split(1), split(len(letters) - 1)
    assert left == right
    return left


def test_fox_defining_rules():
    assert fox_derivative(Word([X]), 0) == GroupRingElement.one()
    assert fox_derivative(Word([-X]), 0) == GroupRingElement.from_word(Word([-X]), -1)
    assert fox_derivative(Word([Y]), 0) == GroupRingElement.zero()


def test_fox_trefoil_relator():
    r = Word([X, Y, X, -Y, -X, -Y])
    expected = (
        GroupRingElement.one()
        + GroupRingElement.from_word(Word([X, Y]))
        + GroupRingElement.from_word(Word([X, Y, X, -Y, -X]), -1)
    )
    got = fox_derivative(r, 0)
    assert got == expected
    assert got == _fox_recursive(r, 0)
    assert norm_l1(got) == 3


@given(small_words, gens)
@settings(max_examples=60)
def test_fox_matches_recursive_oracle(w, gen):
    assert fox_derivative(w, gen) == _fox_recursive(w, gen)


@given(words, words, gens)
def test_fox_product_rule(u, v, gen):
    lhs = fox_derivative(u * v, gen)
    rhs = fox_derivative(u, gen) + GroupRingElement.from_word(u) * fox_derivative(v, gen)
    assert lhs == rhs


@given(words)
def test_fox_fundamental_identity(w):
    # sum_x d(w)/dx * (x - 1) == w - 1 in the group ring
    top = w.max_generator()
    total = GroupRingElement.zero()
    for gen in range(top + 1):
        x = GroupRingElement.from_word(Word([gen + 1]))
        total = total + fox_derivative(w, gen) * (x - GroupRingElement.one())
    assert total == GroupRingElement.from_word(w) - GroupRingElement.one()


def test_norm_of_zero():
    assert norm_l1(GroupRingElement.zero()) == 0


def test_norm_scaling_single_term():
    alpha = GroupRingElement.from_word(Word([X, Y]), Fraction(-3, 2))
    assert norm_l1(alpha + alpha) == 2 * norm_l1(alpha)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
ring_elems = st.lists(st.tuples(small_words, coeffs), min_size=0, max_size=3).map(
    lambda pairs: sum(
        (GroupRingElement.from_word(w, c) for w, c in pairs), GroupRingElement.zero()
    )
)


@given(ring_elems, ring_elems)
@settings(max_examples=60)
def test_norm_subadditive_and_submultiplicative(a, b):
    assert norm_l1(a + b) <= norm_l1(a) + norm_l1(b)
    assert norm_l1(a * b) <= norm_l1(a) * norm_l1(b)


def test_word_rejects_zero_letter():
    with pytest.raises(ValueError):
        Word([0])
