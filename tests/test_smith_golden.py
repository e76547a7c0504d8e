"""Smith normal form factors and transforms against a checked-in golden file.

The invariant factors are canonical, but U and V are not: they record the
exact sequence of row and column steps.  The golden file pins both on
seeded matrices with rational coefficients, negative exponents and rank
deficiency, shapes 1x2 through 5x5.  Regenerate it only when a change of
U or V is intended:

    PYTHONPATH=src python tests/test_smith_golden.py
"""

import json
import pathlib
import random
from fractions import Fraction

from torsionpoly.laurent import LaurentPoly, smith_normal_form

GOLDEN = pathlib.Path(__file__).parent / "data" / "smith_golden.json"
SHAPES = [(r, c) for r in range(1, 6) for c in range(1, 6) if (r, c) != (1, 1)]


def _poly(rng):
    if rng.random() < 0.2:
        return LaurentPoly.zero()
    lo = rng.choice([0, 0, -1, -2])
    return LaurentPoly({e: Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3]))
                        for e in range(lo, lo + rng.randint(0, 3) + 1)})


def golden_matrices():
    """About 100 seeded matrices; every third one is rank-deficient."""
    rng = random.Random(20240605)
    out = []
    for n in range(4 * len(SHAPES)):
        nrows, ncols = SHAPES[n % len(SHAPES)]
        m = [[_poly(rng) for _ in range(ncols)] for _ in range(nrows)]
        if n % 3 == 0 and nrows > 1:
            # last row = p * row 0 + q * (row 1 or zero)
            p, q = _poly(rng), _poly(rng) if nrows > 2 else LaurentPoly.zero()
            m[-1] = [p * x + q * y for x, y in zip(m[0], m[1])]
        out.append(m)
    return out


def _dump_poly(p):
    return [[e, str(p.coeffs[e])] for e in sorted(p.coeffs)]


def _dump_matrix(m):
    return [[_dump_poly(e) for e in row] for row in m]


def render(m):
    factors, (u, v) = smith_normal_form(m)
    return {"factors": [_dump_poly(f) for f in factors], "u": _dump_matrix(u),
            "v": _dump_matrix(v)}


def test_smith_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    matrices = golden_matrices()
    assert len(golden) == len(matrices)
    for n, (m, want) in enumerate(zip(matrices, golden)):
        assert want["a"] == _dump_matrix(m), n
        assert render(m) == {k: want[k] for k in ("factors", "u", "v")}, n


if __name__ == "__main__":
    doc = [{"a": _dump_matrix(m), **render(m)} for m in golden_matrices()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
