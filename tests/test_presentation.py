"""Presentation parsing, complexity, and epimorphism enumeration."""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_epimorphisms, norm_l1, random_presentation, root_bound_c
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS
from torsionpoly.freegroup import Word, fox_derivative
from torsionpoly.presentation import (
    FinitePresentation,
    ParseError,
    PresentationError,
    complexity_k,
    enumerate_epimorphisms,
    exponent_sum_matrix,
    parse_presentation,
    serialize_presentation,
    validate_epimorphism,
)

TREFOIL = "gens: x, y\nrel: x y x Y X Y\n"


def test_parse_trefoil():
    p = parse_presentation(TREFOIL)
    assert p.generator_names == ("x", "y")
    assert p.relators == (Word([1, 2, 1, -2, -1, -2]),)


def test_parse_drops_trivial_relator_with_warning():
    with pytest.warns(UserWarning):
        p = parse_presentation("gens: a\nrel: a A\n")
    assert p.relators == ()


def test_parse_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("rel: x\n")
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("gens: x\nrel: x z\n")


def test_parse_duplicate_generator():
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("gens: x, x\n")


def test_parse_duplicate_gens_line():
    with pytest.raises(ParseError, match="duplicate gens line"):
        parse_presentation("gens: x\ngens: y\n")


def test_parse_missing_gens():
    with pytest.raises(ParseError, match="missing gens line"):
        parse_presentation("# just a comment\n")


def test_parse_error_carries_position():
    try:
        parse_presentation("gens: x\nrel: x q\n")
    except ParseError as e:
        assert e.line == 2 and e.col == 8
    else:
        pytest.fail("expected ParseError")


def test_parse_power_tokens():
    p = parse_presentation("gens: x, y\nrel: x^2 y^-3\n")
    assert p.relators == (Word([1, 1, -2, -2, -2]),)
    with pytest.raises(ParseError, match="zero exponent"):
        parse_presentation("gens: x\nrel: x^0\n")


def test_parse_comments_and_blanks():
    text = "# header\n\ngens: x, y  # trailing\n\nrel: x y X Y  # commutator\n"
    p = parse_presentation(text)
    assert p.relators == (Word([1, 2, -1, -2]),)


def test_serializer_round_trip():
    p = parse_presentation(TREFOIL)
    assert parse_presentation(serialize_presentation(p)) == p
    q = parse_presentation("gens: foo, ba_r\nrel: foo^2 Ba_r foo^-1\n")
    assert parse_presentation(serialize_presentation(q)) == q


def test_exponent_sum_matrix_examples():
    assert exponent_sum_matrix(parse_presentation(TREFOIL)) == [[1, -1]]
    comm = parse_presentation("gens: a, b\nrel: a b A B\n")
    assert exponent_sum_matrix(comm) == [[0, 0]]
    free = parse_presentation("gens: a, b\n")
    assert exponent_sum_matrix(free) == []


def test_validate_epimorphism():
    p = parse_presentation(TREFOIL)
    assert validate_epimorphism(p, (1, 1)) is None
    assert validate_epimorphism(p, (1, 2)) == "kills-relators violated at relator 0"
    assert validate_epimorphism(p, (2, 2)) == "not surjective (gcd = 2)"
    with pytest.raises(ValueError):
        validate_epimorphism(p, (1,))


def test_enumerate_trefoil():
    p = parse_presentation(TREFOIL)
    assert enumerate_epimorphisms(p, 1) == [(1, 1)]
    assert enumerate_epimorphisms(p, 3) == [(1, 1)]


def test_enumerate_free_rank_two():
    p = parse_presentation("gens: x, y\n")
    assert enumerate_epimorphisms(p, 1) == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_enumerate_trivial_kernel():
    p = parse_presentation("gens: x\nrel: x^2\n")
    assert enumerate_epimorphisms(p, 5) == []


def test_enumerate_rejects_bad_bound():
    p = parse_presentation(TREFOIL)
    with pytest.raises(ValueError):
        enumerate_epimorphisms(p, 0)


def test_enumerate_matches_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        p = random_presentation(rng, max_gens=3, max_relators=2, max_len=8)
        for bound in (1, 3, 5):
            got = enumerate_epimorphisms(p, bound)
            assert got == brute_force_epimorphisms(p, bound)
            for psi in got:
                assert validate_epimorphism(p, psi) is None


def test_exponent_matrix_is_augmented_jacobian():
    rng = random.Random(6)
    for _ in range(30):
        p = random_presentation(rng)
        mat = exponent_sum_matrix(p)
        for i, r in enumerate(p.relators):
            for j in range(p.num_generators):
                assert mat[i][j] == sum(fox_derivative(r, j).terms.values())


def test_complexity_examples():
    assert complexity_k(parse_presentation(TREFOIL)) == 6
    assert complexity_k(parse_presentation("gens: x\n")) == 0
    assert complexity_k(parse_presentation("gens: x\nrel: x^2\n")) == 2


def test_complexity_matches_fox_norms():
    rng = random.Random(22)
    pres_list = [random_presentation(rng, max_len=rng.choice((6, 12, 30))) for _ in range(200)]
    pres_list += [e.presentation() for e in THREE_MANIFOLD_CORPUS]
    for p in pres_list:
        total = sum(
            norm_l1(fox_derivative(r, j)) for r in p.relators for j in range(p.num_generators)
        )
        assert complexity_k(p) == total


def test_root_bound_examples():
    assert root_bound_c(parse_presentation(TREFOIL)) == 73
    assert root_bound_c(parse_presentation("gens: x\n")) == 1
    assert root_bound_c(parse_presentation("gens: x\nrel: x^2\n")) == 3


def test_root_bound_at_least_one():
    rng = random.Random(8)
    for _ in range(25):
        assert root_bound_c(random_presentation(rng)) >= 1


def test_parser_never_crashes_on_junk():
    rng = random.Random(99)
    alphabet = "gens:rel xyzXYZ^-_09,\n\t #"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                parse_presentation(text)
            except ParseError:
                pass


def test_presentation_rejects_bad_construction():
    valid = FinitePresentation(("x",), (Word([1]),))
    for names, relators, message in (
        (("x", "x"), (), "duplicate generator name"),
        (("x",), (Word([1, -1]),), "empty relator"),
        (("x",), (Word([2]),), "undeclared generator"),
    ):
        with pytest.raises(PresentationError, match=message):
            FinitePresentation(names, relators)
        with pytest.raises(PresentationError, match=message):
            valid._replace(generator_names=names, relators=relators)


def test_presentation_is_an_immutable_value():
    parsed = parse_presentation(TREFOIL)
    built = FinitePresentation(("x", "y"), (Word([1, 2, 1, -2, -1, -2]),))
    assert parsed == built and hash(parsed) == hash(built) and len({parsed, built}) == 1
    assert parsed != FinitePresentation(("x", "y"), ())
    assert parsed != FinitePresentation(("x", "z"), parsed.relators)
    for name in ("generator_names", "relators", "num_generators", "extra"):
        with pytest.raises(AttributeError):
            setattr(parsed, name, ())
    assert parsed == built and parsed.num_generators == 2


def test_corpus_entries_are_immutable_values():
    entry = THREE_MANIFOLD_CORPUS[0]
    copy = type(entry)(*entry)
    assert entry is not copy
    assert entry == copy and hash(entry) == hash(copy) and len({entry, copy}) == 1
    assert entry != entry._replace(psi=(1, 2))
    for name in (*entry._fields, "presentation", "extra"):
        with pytest.raises(AttributeError):
            setattr(entry, name, ())
    assert entry == copy and entry.presentation() == copy.presentation()


_NAMES = st.sampled_from(["x", "y", "z", "a1", "b_2", "X", "1x", "_y", "x y", ""])
_TOKENS = st.tuples(st.sampled_from(["x", "y", "X", "Y", "z", "Z", "q", "x1", "", "^", "x^", "y^-"]),
                    st.one_of(st.none(), st.integers(-40, 40).map(lambda k: f"^{k}"),
                              st.sampled_from(["^", "^-", "^+1", "^1.5", "^x", "^^2"])))
_LINES = st.one_of(
    st.lists(_NAMES, max_size=4).map(lambda ns: "gens: " + ", ".join(ns)),
    st.lists(_TOKENS.map(lambda t: t[0] + (t[1] or "")), max_size=6).map(lambda ts: "rel: " + " ".join(ts)),
    st.text(alphabet="gens:rel xyXY^-,# \t", max_size=30),  # no digits: exponents stay small
    st.sampled_from(["", "# comment", "gens:", "rel:", "gens x", "  rel: x # y"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LINES, max_size=6))
def test_parser_fuzz_parses_or_raises_parse_error(lines):
    text = "\n".join(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            pres = parse_presentation(text)
        except ParseError:
            return
    assert parse_presentation(serialize_presentation(pres)) == pres
