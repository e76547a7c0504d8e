"""Inputs whose size would exhaust memory or time are refused up front:
letters of a presentation, the box of the epimorphism enumeration, letters
of a mapping-torus matrix, the power of a mapping-torus cover, and the trace
bound of the SL2(Z) census."""

import os
import subprocess
import sys
import time

import pytest

import torsionpoly
from helpers import brute_force_epimorphisms
from torsionpoly import bundles, cli, presentation, sl2z
from torsionpoly.cli import main
from torsionpoly.presentation import (
    ParseError, PresentationError, enumerate_epimorphisms, exponent_sum_matrix,
    parse_presentation,
)

# Runs the CLI in a child whose address space is capped at 1 GiB, so an
# expansion that slipped past a refusal fails fast instead of taking the host.
_CAPPED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
    "from torsionpoly.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_capped(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(torsionpoly.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


# -- letters of a presentation ------------------------------------------------


def test_parser_refuses_at_the_token_past_the_cap(monkeypatch):
    monkeypatch.setattr(presentation, "LETTER_CAP", 10)
    assert len(parse_presentation("gens: x, y\nrel: x^4 Y^6\n").relators[0]) == 10
    with pytest.raises(ParseError, match="more than 10 letters") as exc:
        parse_presentation("gens: x, y\nrel: x^4 Y^6\nrel: x y\n")
    assert (exc.value.line, exc.value.col) == (3, 6)
    with pytest.raises(ParseError) as exc:
        parse_presentation("gens: x\nrel: x^5 x^6\n")
    assert (exc.value.line, exc.value.col) == (2, 10)


def test_parser_cap_counts_before_free_reduction(monkeypatch):
    monkeypatch.setattr(presentation, "LETTER_CAP", 10)
    with pytest.raises(ParseError, match="more than 10 letters"):
        parse_presentation("gens: x\nrel: x^6 X^6\n")


def test_letter_cap_exit_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(presentation, "LETTER_CAP", 50)
    f = tmp_path / "long.pres"
    f.write_text("gens: x, y\nrel: x^30 Y^30\n")
    assert main(["torsion", "--pres", str(f), "--psi", "1,1"]) == 1
    assert "line 2, column 11: the presentation expands to more than 50 letters" in capsys.readouterr().err


def test_huge_exponent_refused_before_expanding(tmp_path):
    f = tmp_path / "huge.pres"
    f.write_text("gens: x\nrel: x^1000000000\n")
    proc = run_capped("torsion", "--pres", str(f), "--psi", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 2, column 6: the presentation expands to more than")


# -- box of the epimorphism enumeration ---------------------------------------

# a kernel of dimension 5 whose Gram matrix has negative entries; the row norm
# of G^-1 B^T is 3/2, so bound 2 gives coefficients in [-3, 3], a box of 7^5
SEVEN_GENERATORS = "gens: a, b, c, d, e, f, g\nrel: a b c D\nrel: e f G\n"


def test_enumeration_box_refused_one_past_the_cap(monkeypatch):
    pres = parse_presentation(SEVEN_GENERATORS)
    basis = presentation._kernel_basis(exponent_sum_matrix(pres), 7)
    assert len(basis) == 5
    assert any(sum(x * y for x, y in zip(u, v)) < 0 for u in basis for v in basis)
    monkeypatch.setattr(presentation, "_ENUMERATION_CAP", 7**5 - 1)
    with pytest.raises(PresentationError, match="enumeration box is too large"):
        enumerate_epimorphisms(pres, 2)
    monkeypatch.setattr(presentation, "_ENUMERATION_CAP", 7**5)
    assert enumerate_epimorphisms(pres, 2) == brute_force_epimorphisms(pres, 2)


def test_free_group_box_refused_before_enumerating(tmp_path, capsys):
    # 40 free generators at bound 4: a box of 9^40 points, refused after one
    # fraction-free pass over the 40 x 40 identity Gram matrix (milliseconds);
    # the time bound catches a precheck of d^2 cofactor determinants, which
    # grows as d^5 and takes tens of seconds at d = 40
    text = "gens: " + ", ".join(f"x{i}" for i in range(40)) + "\n"
    start = time.perf_counter()
    with pytest.raises(PresentationError, match="enumeration box is too large"):
        enumerate_epimorphisms(parse_presentation(text), 4)
    assert time.perf_counter() - start < 2.0
    f = tmp_path / "free40.pres"
    f.write_text(text)
    assert main(["scan", "--pres", str(f), "--bound", "4"]) == 1
    assert "epimorphism enumeration box is too large" in capsys.readouterr().err


# -- letters of a mapping-torus matrix ---------------------------------------


def test_mapping_torus_refuses_long_words(monkeypatch):
    monkeypatch.setattr(bundles, "LETTER_CAP", 10)
    pres, _ = bundles.mapping_torus_presentation([[2, 1], [1, 1]])
    assert pres.num_generators == 3
    with pytest.raises(ValueError, match="13 letters, past the cap of 10"):
        bundles.mapping_torus_presentation([[5, 3], [3, 2]])


def test_mapping_torus_cap_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(bundles, "LETTER_CAP", 10)
    assert main(["mapping-torus", "--matrix", "5,3,3,2"]) == 1
    assert "past the cap of 10" in capsys.readouterr().err


def test_huge_matrix_refused_before_building_words():
    proc = run_capped("mapping-torus", "--matrix", "1000000001,1000000000,1,1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the matrix entries need 2000000003 letters")


# -- power of a mapping-torus cover ---------------------------------------------


def test_power_cover_refuses_past_cap(monkeypatch):
    monkeypatch.setattr(bundles, "POWER_COVER_CAP", 3)
    assert bundles.power_cover([[2, 1], [1, 1]], 3).ok
    with pytest.raises(ValueError, match=r"n must lie in 1\.\.3, got 4"):
        bundles.power_cover([[2, 1], [1, 1]], 4)


def test_power_cap_exit_one_before_any_cover(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the --power refusal")

    monkeypatch.setattr(cli, "POWER_COVER_CAP", 3)
    for name in ("verify_monodromy_torsion", "power_cover"):
        monkeypatch.setattr(bundles, name, refuse)
    assert main(["mapping-torus", "--matrix", "2,1,1,1", "--power", "4"]) == 1
    assert "--power must lie in 1..3, got 4" in capsys.readouterr().err


def test_power_help_reads_the_one_cap(monkeypatch, capsys):
    assert bundles.POWER_COVER_CAP is presentation.POWER_COVER_CAP is cli.POWER_COVER_CAP
    monkeypatch.setattr(cli, "POWER_COVER_CAP", 3)
    with pytest.raises(SystemExit):
        main(["mapping-torus", "--help"])
    assert "n <= 3" in " ".join(capsys.readouterr().out.split())


def test_huge_power_refused():
    proc = run_capped("mapping-torus", "--matrix", "2,1,1,1", "--power", "1000")
    assert proc.returncode == 1
    assert proc.stderr == f"error: --power must lie in 1..{bundles.POWER_COVER_CAP}, got 1000\n"


# -- trace bound of the census ------------------------------------------------


def test_census_refuses_trace_bound_past_cap(monkeypatch):
    monkeypatch.setattr(sl2z, "CENSUS_TRACE_CAP", 10)
    assert sl2z.classes_with_trace(10) and sl2z.sol_candidates(10)
    for call, arg in ((sl2z.classes_with_trace, 11), (sl2z.classes_with_trace, -11),
                      (sl2z.sol_candidates, 12)):
        with pytest.raises(ValueError, match="exceeds the census cap of 10"):
            call(arg)


def test_census_cap_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(sl2z, "CENSUS_TRACE_CAP", 10)
    assert main(["sol-census", "--trace-bound", "11"]) == 1
    assert main(["sol-census", "--c", "12"]) == 1
    assert capsys.readouterr().err.count("exceeds the census cap of 10") == 2


def test_census_of_a_real_root_bound_refused():
    proc = run_capped("sol-census", "--c", "98305")
    assert proc.returncode == 1
    assert "trace bound 98305 exceeds the census cap of 1000" in proc.stderr
    assert run_capped("sol-census", "--trace-bound", "1001").returncode == 1
