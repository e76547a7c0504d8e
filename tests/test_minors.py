"""Every minor of a specialized Jacobian from one elimination, against one
determinant per submatrix."""

import functools
import itertools
import random

import pytest

import torsionpoly.laurent as laurent_mod
from helpers import minors_by_determinant
from torsionpoly.bundles import mapping_torus_presentation
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS
from torsionpoly.laurent import LaurentPoly, Minors, gcd, rank
from torsionpoly.torsion import SpecializedJacobian, specialize_jacobian, torsion_polynomial


def _entry(rng):
    if rng.random() < 0.15:
        return LaurentPoly.zero()
    lo = rng.randint(-2, 2)
    return LaurentPoly.from_coeffs([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))], lo)


def _jacobian(rows):
    k = sum(sum(map(abs, e.ints)) for row in rows for e in row)
    rows = tuple(tuple(row) for row in rows)
    return SpecializedJacobian(rows, (0,) * len(rows[0]), k, len(rows[0]))


def _seeded(seed, shape, dependent):
    """A random integer Jacobian of the given shape; if ``dependent``, its
    last row is a combination of the first and the one before it, with small
    polynomial weights."""
    rng = random.Random(seed)
    nrows, ncols = shape
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows - dependent)]
    if dependent:
        f, g = _entry(rng), _entry(rng)
        rows.append([f * a + g * b for a, b in zip(rows[0], rows[-1])])
    return _jacobian(rows)


SHAPES = (
    [("one row", (1, n), 0) for n in range(2, 6)]
    + [(f"full row rank, {extra} non-pivot", (n, n + extra), 0)
       for extra in (1, 2) for n in range(2, 5)]
    + [("square of rank n - 1", (n, n), 1) for n in range(2, 6)]
    + [("rank 2 on three rows", (3, 4), 1)]
)
SEEDED = [(f"{label} {shape[0]}x{shape[1]} seed {seed}", _seeded(seed, shape, dependent))
          for label, shape, dependent in SHAPES for seed in range(6)]
CORPUS = [(e.name, specialize_jacobian(e.presentation(), e.psi)) for e in THREE_MANIFOLD_CORPUS]


def _fibonacci(k):
    """[[2, 1], [1, 1]]^k, the monodromies of the Fibonacci ladder."""
    fib = [[1, 0], [0, 1]]
    for _ in range(k):
        fib = [[2 * fib[0][0] + fib[1][0], 2 * fib[0][1] + fib[1][1]],
               [fib[0][0] + fib[1][0], fib[0][1] + fib[1][1]]]
    return fib


LADDER = [(f"fibonacci {_fibonacci(k)}",
           specialize_jacobian(*mapping_torus_presentation(_fibonacci(k)))) for k in range(1, 8)]
CASES = SEEDED + CORPUS + LADDER


def test_the_seeded_shapes_have_their_ranks():
    for name, jac in SEEDED:
        dependent = "rank n - 1" in name or "rank 2" in name
        assert rank(jac.entries) == jac.num_relators - dependent, name
    square = [jac for name, jac in CORPUS + LADDER if jac.num_relators == jac.num_generators == 3]
    assert len(square) == 11 and all(rank(jac.entries) == 2 for jac in square)


@pytest.mark.parametrize("name, jac", CASES, ids=[name for name, _ in CASES])
def test_every_minor_matches_its_determinant(monkeypatch, name, jac):
    """Each r-minor equals its determinant.  A single row runs no pass and
    rank one only the first (a 1-minor is its entry); else the Gauss-Jordan
    passes are one at full row rank and two below it, and the only other
    passes are the determinants of Sylvester blocks, one per column (or
    row) set that trades two pivots or more."""
    if not jac.entries:
        assert torsion_polynomial(jac) == LaurentPoly.one()
        return
    r = rank(jac.entries)
    want = minors_by_determinant(jac.entries, r)
    passes = []
    real = laurent_mod._bareiss
    monkeypatch.setattr(laurent_mod, "_bareiss", lambda rows, **kw: (
        passes.append(kw["reduce_above"]) or real(rows, **kw)))
    minors = Minors(jac.entries)
    got = [minors.minor(ri, ci)
           for ri in itertools.combinations(range(jac.num_relators), r)
           for ci in itertools.combinations(range(jac.num_generators), r)]
    assert minors.rank == r and got == want
    if r == 0:
        return
    full = r == jac.num_relators
    if jac.num_relators == 1:
        assert passes == []
    elif r == 1:
        assert passes == [True]
    else:
        assert passes.count(True) == (1 if full else 2)
        trades = sum(len(set(ci) - set(minors._by_cols.cols)) >= 2
                     for ci in itertools.combinations(range(jac.num_generators), r))
        if not full:
            trades += sum(len(set(ri) - set(minors._by_rows.cols)) >= 2
                          for ri in itertools.combinations(range(jac.num_relators), r))
        assert passes.count(False) == trades
    monkeypatch.undo()
    nonzero = [d for d in want if d]
    assert torsion_polynomial(jac) == functools.reduce(gcd, nonzero, LaurentPoly.zero())


def test_the_cases_cover_every_route():
    """Cases with a Sylvester block, and cases with a nonzero rank-one
    product (only seeded ones: each corpus and ladder square has a zero row
    and a zero column, so its derived minors are 0)."""
    sylvester = derived = 0
    for _, jac in CASES:
        if rank(jac.entries) < 2:
            continue
        minors = Minors(jac.entries)
        r, first = minors.rank, minors._by_cols
        sylvester += any(len(set(ci) - set(first.cols)) >= 2
                         for ci in itertools.combinations(range(jac.num_generators), r))
        derived += any(ri != first.rows and ci != first.cols and minors.minor(ri, ci)
                       for ri in itertools.combinations(range(jac.num_relators), r)
                       for ci in itertools.combinations(range(jac.num_generators), r))
    assert (sylvester, derived) == (24, 21)


def test_an_inexact_compound_division_raises(monkeypatch):
    """A product det A_{I,P} det A_{R,J} that det A_{R,P} does not divide is a
    bug, raised as such; here the second pass's minors are faulted plus 1."""
    _, jac = next(case for case in SEEDED if case[0].startswith("square of rank n - 1 3x3"))
    minors = Minors(jac.entries)
    other = next(ri for ri in itertools.combinations(range(3), 2) if ri != minors._by_cols.rows)
    minors.minor(other, minors._by_cols.cols)  # runs the second pass
    real = minors._by_rows.minor
    monkeypatch.setattr(minors._by_rows, "minor", lambda cols: real(cols) + LaurentPoly.one())
    raised = set()
    for ci in itertools.combinations(range(3), 2):
        try:
            minors.minor(other, ci)
        except laurent_mod.InvariantViolation as exc:
            raised.add(str(exc))
    assert raised == {"an inexact division in the rank-one compound"}


def test_minors_above_the_rank_are_0_and_below_it_refused():
    _, jac = next(case for case in SEEDED if case[0].startswith("square of rank n - 1 3x3"))
    minors = Minors(jac.entries)
    assert minors.minor((0, 1, 2), (0, 1, 2)) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        minors.minor((0,), (0,))
    with pytest.raises(ValueError):
        minors.minor((0, 1), (0, 1, 2))


def test_zero_rows_are_left_out_of_the_minors(monkeypatch):
    """A minor through a zero row is 0, so torsion_polynomial leaves zero
    rows out: on each torus-bundle square (its row of [a, b] is 0) it reads
    3 minors off one pass, not 9 off two.  A zero row planted into a seeded
    Jacobian leaves Delta the GCD of every minor of the full matrix."""
    passes, reads = [], []
    real_pass, real_minor = laurent_mod._bareiss, Minors.minor
    monkeypatch.setattr(laurent_mod, "_bareiss", lambda rows, **kw: (
        passes.append(len(rows)) or real_pass(rows, **kw)))
    monkeypatch.setattr(Minors, "minor", lambda self, ri, ci: (
        reads.append((ri, ci)) or real_minor(self, ri, ci)))
    squares = [(name, jac) for name, jac in CORPUS + LADDER
               if jac.num_relators == jac.num_generators == 3]
    assert len(squares) == 11
    for name, jac in squares:
        passes.clear(), reads.clear()
        assert sum(not any(row) for row in jac.entries) == 1, name
        torsion_polynomial(jac)
        assert (passes, len(reads)) == ([2], 3), name
    monkeypatch.undo()
    rng = random.Random(24)
    planted = 0
    for name, jac in SEEDED:
        if jac.num_relators == 1 or not all(any(row) for row in jac.entries):
            continue
        rows = list(jac.entries)
        rows.insert(rng.randint(0, len(rows)), (LaurentPoly.zero(),) * jac.num_generators)
        full = _jacobian(rows)
        want = minors_by_determinant(full.entries, rank(jac.entries))
        got = torsion_polynomial(full)
        assert got == functools.reduce(gcd, [d for d in want if d], LaurentPoly.zero()), name
        assert got == torsion_polynomial(jac), name
        planted += 1
    assert planted >= 40
