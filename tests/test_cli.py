"""CLI behavior: exit codes, JSON schema, determinism."""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import torsionpoly
from helpers import SWELL, sympy_roots
from torsionpoly.cli import main
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS
from torsionpoly.laurent import LaurentPoly

TREFOIL = "gens: x, y\nrel: x y x Y X Y\n"


@pytest.fixture
def trefoil_file(tmp_path):
    f = tmp_path / "trefoil.pres"
    f.write_text(TREFOIL)
    return str(f)


def test_torsion_pass_exit_zero(trefoil_file, capsys):
    code = main(["torsion", "--pres", trefoil_file, "--psi", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta: t^2 - t + 1" in out
    assert "c: 73" in out
    assert "verdict: pass" in out


def test_torsion_invalid_psi_exit_one(trefoil_file, capsys):
    code = main(["torsion", "--pres", trefoil_file, "--psi", "1,2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "kills-relators" in err


def test_torsion_vacuous_exit_zero(tmp_path, capsys):
    f = tmp_path / "free.pres"
    f.write_text("gens: x\n")
    code = main(["torsion", "--pres", str(f), "--psi", "1"])
    assert code == 0
    assert "verdict: vacuous" in capsys.readouterr().out


def test_torsion_json_schema(trefoil_file, capsys):
    code = main(["torsion", "--pres", trefoil_file, "--psi", "1,1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["presentation"] == TREFOIL
    assert doc["psi"] == [1, 1]
    assert doc["k"] == 6
    assert doc["c"] == "73"
    assert doc["delta"] == {"coeffs": ["1", "-1", "1"], "display": "t^2 - t + 1"}
    assert doc["verdict"] == "pass"
    assert len(doc["roots"]) == 2
    for root in doc["roots"]:
        assert set(root) == {"re", "im", "modulus", "mult"}
        assert abs(float(root["modulus"]) - 1.0) < 1e-10


def test_torsion_json_deterministic(trefoil_file, capsys):
    main(["torsion", "--pres", trefoil_file, "--psi", "1,1", "--json", "--seed", "7"])
    first = capsys.readouterr().out
    main(["torsion", "--pres", trefoil_file, "--psi", "1,1", "--json", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_torsion_certify_only(trefoil_file, capsys):
    code = main(["torsion", "--pres", trefoil_file, "--psi", "1,1", "--certify-only", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["roots"] == []
    assert doc["exact_certified"] is True


def test_torsion_bad_tolerance(trefoil_file, capsys):
    code = main(["torsion", "--pres", trefoil_file, "--psi", "1,1", "--tol", "1e-3"])
    assert code == 1


def test_scan_trefoil(trefoil_file, capsys):
    code = main(["scan", "--pres", trefoil_file, "--bound", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("psi ") == 1
    assert "verdict pass" in out


def test_scan_betti_zero_warns(tmp_path, capsys):
    f = tmp_path / "b0.pres"
    f.write_text("gens: x\nrel: x^2\n")
    code = main(["scan", "--pres", str(f), "--bound", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "no epimorphisms" in captured.err


def test_scan_json_round_trips(trefoil_file, capsys):
    main(["scan", "--pres", trefoil_file, "--bound", "2", "--json"])
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 1 and docs[0]["psi"] == [1, 1]


def test_scan_multi_relator_one_report_per_class(tmp_path, capsys):
    # three-torus: every map to Z survives, one report per primitive class
    f = tmp_path / "t3.pres"
    f.write_text("gens: a, b, s\nrel: a b A B\nrel: s a S A\nrel: s b S B\n")
    code = main(["scan", "--pres", str(f), "--bound", "2", "--json"])
    docs = json.loads(capsys.readouterr().out)
    assert code == 0
    import itertools
    import math

    expected = set()
    for v in itertools.product(range(-2, 3), repeat=3):
        if not any(v):
            continue
        if math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2])) != 1:
            continue
        first = next(x for x in v if x)
        expected.add(tuple(-x for x in v) if first < 0 else v)
    assert len(docs) == len(expected)
    assert {tuple(d["psi"]) for d in docs} == expected
    assert all(d["verdict"] in ("pass", "vacuous") for d in docs)


def test_mapping_torus_pass(capsys):
    code = main(["mapping-torus", "--matrix", "2,1,1,1", "--power", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t^2 - 3*t + 1" in out
    assert "power 3: pass" in out


def test_mapping_torus_identity(capsys):
    code = main(["mapping-torus", "--matrix", "1,0,0,1", "--power", "2"])
    assert code == 0
    assert "t^2 - 2*t + 1" in capsys.readouterr().out


def test_mapping_torus_bad_determinant(capsys):
    code = main(["mapping-torus", "--matrix", "2,0,0,1", "--power", "1"])
    assert code == 1
    assert "determinant" in capsys.readouterr().err


def test_sol_census_by_c(capsys):
    code = main(["sol-census", "--c", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace 3: 1 class(es)" in out
    assert "trace -3: 1 class(es)" in out


def test_sol_census_empty(capsys):
    code = main(["sol-census", "--c", "1"])
    assert code == 0
    assert "empty census" in capsys.readouterr().out


def test_sol_census_trace_bound_json(capsys):
    code = main(["sol-census", "--trace-bound", "5", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    traces = [row["trace"] for row in doc["census"]]
    assert traces == [3, -3, 4, -4, 5, -5]
    for row in doc["census"]:
        assert row["count"] == len(row["classes"])
        for cls in row["classes"]:
            assert {"word", "matrix", "reciprocal_class", "ambichiral"} <= set(cls)


def test_sol_census_bad_bound(capsys):
    assert main(["sol-census", "--trace-bound", "2"]) == 1
    assert main(["sol-census", "--c", "0.5"]) == 1


def test_parse_error_exit_one(tmp_path, capsys):
    f = tmp_path / "bad.pres"
    f.write_text("gens: x\nrel: q\n")
    code = main(["torsion", "--pres", str(f), "--psi", "1"])
    assert code == 1
    assert "unknown generator" in capsys.readouterr().err


def test_missing_file_exit_one(capsys):
    assert main(["torsion", "--pres", "/nonexistent.pres", "--psi", "1"]) == 1


def test_arithmetic_error_exit_one(capsys):
    assert main(["sol-census", "--c", "1/0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_size_budget_exit_one(tmp_path, capsys):
    f = tmp_path / "huge.pres"
    f.write_text("gens: x, y\nrel: x^100000 Y^99999\n")
    start = time.perf_counter()
    assert main(["torsion", "--pres", str(f), "--psi", "99999,100000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: the torsion polynomial may reach degree")


_NO_MPMATH = """
import io, sys
preloaded = set(sys.modules)
from torsionpoly import cli
UNUSED = ("torsionpoly.bundles", "torsionpoly.sl2z", "torsionpoly.corpus", "dataclasses", "mpmath")
LATER = ("dataclasses", "inspect", "ast", "dis", "mpmath")
for argv in (["torsion", "--psi", "1,1", "--certify-only"], ["torsion", "--psi", "1,1"],
             ["scan", "--bound", "2", "--certify-only"]):
    sys.stdin = io.StringIO("gens: x, y\\nrel: x y x Y X Y\\n")
    assert cli.main([*argv, "--pres", "-", "--json"]) == 0
    print(*argv, [m for m in UNUSED if m in sys.modules and m not in preloaded], file=sys.stderr)
for argv in (["mapping-torus", "--matrix", "2,1,1,1", "--power", "2"], ["sol-census", "--trace-bound", "5"]):
    assert cli.main(argv) == 0
    print(argv[0], [m for m in LATER if m in sys.modules and m not in preloaded], file=sys.stderr)
print(*(m in sys.modules for m in UNUSED[:2]), file=sys.stderr)
"""

_PLAIN_IMPORT = """
import sys
preloaded = set(sys.modules)
import torsionpoly.bundles, torsionpoly.sl2z, torsionpoly.corpus
print("dataclasses" in sys.modules and "dataclasses" not in preloaded)
"""


def test_cli_runs_without_importing_mpmath():
    """torsion and scan load neither mpmath nor the bundles/sl2z/corpus
    companions nor dataclasses; mapping-torus and sol-census run the
    companions without loading dataclasses (nor its inspect, ast and dis) or
    mpmath, and importing the companions loads no dataclasses."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NO_MPMATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "torsion --psi 1,1 --certify-only []",
        "torsion --psi 1,1 []",
        "scan --bound 2 --certify-only []",
        "mapping-torus []",
        "sol-census []",
        "True True",
    ]
    proc = subprocess.run([sys.executable, "-c", _PLAIN_IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_certify_only_finishes_on_coefficient_swell(tmp_path):
    f = tmp_path / "swell.pres"
    f.write_text(SWELL)
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = "import sys; from torsionpoly.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", run, "torsion", "--pres", str(f),
                           "--psi=-13,-10,-4", "--certify-only", "--json"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "pass" and len(doc["delta"]["coeffs"]) == 47


def _fmt(x):
    return format(x, ".15g")


def _zeroed(re, im, modulus, mult):
    """Root strings with components below 1e-15 * max(1, |z|) set to 0."""
    z = complex(float(re), float(im))
    small = 1e-15 * max(1.0, abs(z))
    return (re if abs(float(re)) >= small else "0",
            im if abs(float(im)) >= small else "0", modulus, mult)


@pytest.mark.parametrize("entry", THREE_MANIFOLD_CORPUS, ids=lambda e: e.name)
def test_corpus_root_strings_match_sympy(entry, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(entry.text))
    psi = ",".join(str(v) for v in entry.psi)
    main(["torsion", "--pres", "-", "--psi", psi, "--json", "--seed", "0"])
    doc = json.loads(capsys.readouterr().out)
    got = Counter(_zeroed(r["re"], r["im"], r["modulus"], r["mult"]) for r in doc["roots"])
    delta = LaurentPoly.from_coeffs([Fraction(c) for c in doc["delta"]["coeffs"]])
    expected = Counter()
    if delta.span():
        for r, mult in sympy_roots(delta):
            z = complex(r)
            expected[_zeroed(_fmt(z.real), _fmt(z.imag), _fmt(float(abs(r))), mult)] += 1
    assert got == expected


def _generic_one_relators(rng, count):
    """Seeded one-relator presentations in x, y with 30-36 letters, as the
    generic inputs of the benchmark's ``roots`` workload draws them."""
    out = []
    while len(out) < count:
        letters = []
        for _ in range(rng.randint(30, 36)):
            options = [a for a in "xyXY" if not letters or a != letters[-1].swapcase()]
            letters.append(rng.choice(options))
        e1 = letters.count("x") - letters.count("X")
        e2 = letters.count("y") - letters.count("Y")
        if letters[0] != letters[-1].swapcase() and (e1 or e2):
            g = math.gcd(e1, e2)
            out.append(("gens: x, y\nrel: " + " ".join(letters) + "\n", (e2 // g, -e1 // g)))
    return out


def _root_strings(text, psi, seed, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    main(["torsion", "--pres", "-", "--psi=" + ",".join(map(str, psi)), "--json", "--seed", str(seed)])
    return json.loads(capsys.readouterr().out)["roots"]


def test_root_strings_do_not_depend_on_the_seed(monkeypatch, capsys):
    # real roots are reported with "im": "0" once a sign change proves them
    # real, so no sub-ulp imaginary noise of the Aberth path reaches the JSON
    cases = [(e.text, e.psi) for e in THREE_MANIFOLD_CORPUS]
    cases += _generic_one_relators(random.Random(11), 30)
    degrees = []
    for text, psi in cases:
        roots = _root_strings(text, psi, 0, monkeypatch, capsys)
        assert roots == _root_strings(text, psi, 5, monkeypatch, capsys), (text, psi)
        degrees.append(sum(r["mult"] for r in roots))
    assert max(degrees) >= 20
    entry = next(e for e in THREE_MANIFOLD_CORPUS if e.name == "sol-bundle-trace-4")
    roots = _root_strings(entry.text, entry.psi, 0, monkeypatch, capsys)
    assert [r["im"] for r in roots] == ["0", "0"]
