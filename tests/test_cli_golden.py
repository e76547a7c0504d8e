"""Byte-for-byte CLI output against a checked-in golden file.

The golden file holds the float-free outputs only (certify-only reports,
exact mapping-torus checks and the SL2(Z) census), so it pins the exact
algebra without depending on the root finder.  Regenerate it only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from helpers import SWELL
from torsionpoly.cli import main
from torsionpoly.corpus import THREE_MANIFOLD_CORPUS

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
SCAN_ENTRIES = ("trefoil", "figure-eight", "cinquefoil", "torus-knot-3-4", "nil-bundle")


def golden_commands():
    """(label, argv, stdin text) for every command in the golden file."""
    out = []
    for entry in THREE_MANIFOLD_CORPUS:
        psi = ",".join(str(v) for v in entry.psi)
        out.append((f"torsion {entry.name}",
                    ["torsion", "--pres", "-", "--psi", psi, "--certify-only", "--json"],
                    entry.text))
    for entry in THREE_MANIFOLD_CORPUS:
        if entry.name in SCAN_ENTRIES:
            out.append((f"scan {entry.name}",
                        ["scan", "--pres", "-", "--bound", "2", "--certify-only", "--json"],
                        entry.text))
    for matrix in ("2,1,1,1", "3,2,1,1"):
        out.append((f"mapping-torus {matrix}",
                    ["mapping-torus", "--matrix", matrix, "--power", "3", "--json"], ""))
    # hyperbolic, elliptic and parabolic monodromies at the power-cover cap
    for matrix in ("10,-9,-11,10", "0,-1,1,0", "1,1,0,1"):
        out.append((f"mapping-torus {matrix} power 32",
                    ["mapping-torus", "--matrix", matrix, "--power", "32", "--json"], ""))
    out.append(("sol-census trace-bound 10", ["sol-census", "--trace-bound", "10", "--json"], ""))
    out.append(("sol-census c 7/2", ["sol-census", "--c", "7/2", "--json"], ""))
    # the parent took minutes on this input; its delta was checked against
    # sympy's GCD of the minors when the entry was added
    out.append(("torsion coefficient swell",
                ["torsion", "--pres", "-", "--psi=-13,-10,-4", "--certify-only", "--json"],
                SWELL))
    return out


def render(argv, stdin_text):
    """{"exit": code, "stdout": text} of one in-process CLI run."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_command():
    assert [g["label"] for g in _golden()] == [label for label, _, _ in golden_commands()]


@pytest.mark.parametrize("label, argv, stdin_text", golden_commands(),
                         ids=[label for label, _, _ in golden_commands()])
def test_cli_output_matches_golden(label, argv, stdin_text):
    golden = {g["label"]: g for g in _golden()}[label]
    assert golden["argv"] == argv
    assert render(argv, stdin_text) == {"exit": golden["exit"], "stdout": golden["stdout"]}


if __name__ == "__main__":
    doc = [{"label": label, "argv": argv, **render(argv, stdin_text)}
           for label, argv, stdin_text in golden_commands()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
