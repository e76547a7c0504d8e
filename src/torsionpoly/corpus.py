"""Curated presentations of 3-manifold groups for tests and demos.

Each entry is a presentation known to present the fundamental group of a
compact orientable 3-manifold, together with one valid map onto Z.  These
are the inputs whose computed polynomials really are torsion polynomials
of infinite cyclic covers (for arbitrary presentations the pipeline still
runs, but the topological interpretation is the caller's responsibility).
"""

from __future__ import annotations

from typing import NamedTuple

from .presentation import FinitePresentation, parse_presentation


class CorpusEntry(NamedTuple):
    name: str
    description: str
    text: str
    psi: tuple[int, ...]

    def presentation(self) -> FinitePresentation:
        return parse_presentation(self.text)


THREE_MANIFOLD_CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "trefoil",
        "trefoil knot group, 2-bridge presentation",
        "gens: x, y\nrel: x y x Y X Y\n",
        (1, 1),
    ),
    CorpusEntry(
        "trefoil-torus-form",
        "trefoil as the (2,3) torus knot, x^2 = y^3",
        "gens: x, y\nrel: x^2 y^-3\n",
        (3, 2),
    ),
    CorpusEntry(
        "cinquefoil",
        "(2,5) torus knot group",
        "gens: x, y\nrel: x^2 y^-5\n",
        (5, 2),
    ),
    CorpusEntry(
        "torus-knot-3-4",
        "(3,4) torus knot group",
        "gens: x, y\nrel: x^3 y^-4\n",
        (4, 3),
    ),
    CorpusEntry(
        "torus-knot-2-7",
        "(2,7) torus knot group",
        "gens: x, y\nrel: x^2 y^-7\n",
        (7, 2),
    ),
    CorpusEntry(
        "figure-eight",
        "figure-eight knot group, 2-bridge presentation",
        "gens: x, y\nrel: x y X Y x Y X y x Y\n",
        (1, 1),
    ),
    CorpusEntry(
        "figure-eight-bundle",
        "figure-eight complement as a punctured-torus bundle",
        "gens: a, b, s\nrel: s a S B A A\nrel: s b S B A\n",
        (0, 0, 1),
    ),
    CorpusEntry(
        "torus-times-interval",
        "T^2 x I, the rank-2 abelian group",
        "gens: x, y\nrel: x y X Y\n",
        (1, 0),
    ),
    CorpusEntry(
        "three-torus",
        "torus bundle with identity monodromy",
        "gens: a, b, s\nrel: a b A B\nrel: s a S A\nrel: s b S B\n",
        (0, 0, 1),
    ),
    CorpusEntry(
        "nil-bundle",
        "torus bundle with parabolic monodromy [[1,1],[0,1]]",
        "gens: a, b, s\nrel: a b A B\nrel: s a S A\nrel: s b S B A\n",
        (0, 0, 1),
    ),
    CorpusEntry(
        "sol-bundle-trace-3",
        "torus bundle with hyperbolic monodromy [[2,1],[1,1]]",
        "gens: a, b, s\nrel: a b A B\nrel: s a S B A A\nrel: s b S B A\n",
        (0, 0, 1),
    ),
    CorpusEntry(
        "sol-bundle-trace-4",
        "torus bundle with hyperbolic monodromy [[3,2],[1,1]]",
        "gens: a, b, s\nrel: a b A B\nrel: s a S B A A A\nrel: s b S B A A\n",
        (0, 0, 1),
    ),
    CorpusEntry(
        "solid-torus",
        "S^1 x D^2, infinite cyclic group",
        "gens: x\n",
        (1,),
    ),
    CorpusEntry(
        "genus-two-surface-times-interval",
        "F_2 x I, genus-two surface group",
        "gens: a, b, c, d\nrel: a b A B c d C D\n",
        (1, 0, 0, 0),
    ),
)
