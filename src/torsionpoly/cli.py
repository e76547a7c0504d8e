"""Command-line front end with machine-readable output.

Subcommands: ``torsion`` (one map to Z), ``scan`` (all maps up to a
sup-norm bound), ``mapping-torus`` (characteristic-polynomial cross-checks
and power covers), ``sol-census`` (hyperbolic monodromy census).  Exit
codes: 0 success, 1 input error or refusal, 2 a failed ``mapping-torus``
cross-check.  JSON output is byte-deterministic for fixed inputs and seed.
``bundles`` and ``sl2z`` are imported inside the commands that run them, so
a ``torsion`` or ``scan`` process never loads them.  No record of the
package is built by a record decorator, so no subcommand pays for its
imports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .presentation import (
    POWER_COVER_CAP,
    ParseError,
    PresentationError,
    parse_presentation,
    serialize_presentation,
)
from .torsion import AnnulusReport, InvalidEpimorphism, annulus_certify, scan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2


def _fmt(x: float) -> str:
    return format(x, ".15g")


def _poly_json(p) -> dict:
    return {"coeffs": [str(c) for c in p.dense()], "display": p.display()}


def _root_json(z: complex, mult: int) -> dict:
    return {"re": _fmt(z.real), "im": _fmt(z.imag), "modulus": _fmt(abs(z)), "mult": mult}


def _report_json(pres_text: str, rep: AnnulusReport) -> dict:
    return {
        "presentation": pres_text,
        "psi": list(rep.psi),
        "k": rep.complexity,
        "c": str(rep.c),
        "delta": _poly_json(rep.delta),
        "roots": [_root_json(z, m) for z, m in rep.roots],
        "verdict": rep.verdict,
        "cauchy_radius": str(rep.cauchy_radius),
        "cauchy_radius_reciprocal": str(rep.cauchy_radius_reciprocal),
        "exact_certified": rep.exact_certified,
        "failure": rep.failure,
    }


def _print_report_text(rep: AnnulusReport, out) -> None:
    print(f"psi: {','.join(str(v) for v in rep.psi)}", file=out)
    print(f"k: {rep.complexity}", file=out)
    print(f"c: {rep.c}", file=out)
    print(f"delta: {rep.delta.display()}", file=out)
    certified = "certified" if rep.exact_certified else "not decisive"
    print(
        f"cauchy radii: {rep.cauchy_radius} and {rep.cauchy_radius_reciprocal}"
        f" vs c = {rep.c} -> {certified}",
        file=out,
    )
    for z, m in rep.roots:
        sign = "-" if z.imag < 0 else "+"
        print(
            f"root: {_fmt(z.real)} {sign} {_fmt(abs(z.imag))}i  modulus {_fmt(abs(z))}  mult {m}",
            file=out,
        )
    print(f"verdict: {rep.verdict}", file=out)


def _read_presentation(path: str):
    if path == "-":
        return parse_presentation(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer vector, got {text!r}")


def _check_tol(tol: float) -> float:
    if not (0 < tol <= 1e-4):
        raise ValueError(f"tolerance must lie in (0, 1e-4], got {tol}")
    return tol


def cmd_torsion(args) -> int:
    pres = _read_presentation(args.pres)
    rep = annulus_certify(
        pres,
        _parse_int_vector(args.psi),
        tol=_check_tol(args.tol),
        certify_only=args.certify_only,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(_report_json(serialize_presentation(pres), rep), indent=2))
    else:
        _print_report_text(rep, sys.stdout)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.bound < 1:
        raise ValueError("--bound must be >= 1")
    pres = _read_presentation(args.pres)
    reports = scan(
        pres,
        args.bound,
        tol=_check_tol(args.tol),
        certify_only=args.certify_only,
        seed=args.seed,
    )
    if not reports:
        print("warning: no epimorphisms to Z within the bound", file=sys.stderr)
    if args.json:
        text = serialize_presentation(pres)
        print(json.dumps([_report_json(text, r) for r in reports], indent=2))
    else:
        for rep in reports:
            psi = ",".join(str(v) for v in rep.psi)
            print(f"psi {psi}: delta = {rep.delta.display()}; verdict {rep.verdict}")
    return EXIT_OK


def cmd_mapping_torus(args) -> int:
    vals = _parse_int_vector(args.matrix)
    if len(vals) != 4:
        raise ValueError("--matrix expects 4 integers a,b,c,d")
    mat = [[vals[0], vals[1]], [vals[2], vals[3]]]
    if not 1 <= args.power <= POWER_COVER_CAP:
        raise ValueError(f"--power must lie in 1..{POWER_COVER_CAP}, got {args.power}")
    tol = _check_tol(args.tol)
    from .bundles import power_cover, verify_monodromy_torsion
    check = verify_monodromy_torsion(mat)
    powers = [power_cover(mat, n, tol) for n in range(1, args.power + 1)]
    ok = check.ok and all(p.ok for p in powers)
    if args.json:
        doc = {
            "matrix": [list(r) for r in check.matrix],
            "torsion": _poly_json(check.torsion),
            "charpoly": _poly_json(check.characteristic),
            "torsion_matches_charpoly": check.ok,
            "powers": [
                {
                    "n": p.n,
                    "charpoly_power": _poly_json(p.power),
                    "exact_ok": p.exact_ok,
                    "numeric_ok": p.numeric_ok,
                }
                for p in powers
            ],
            "verdict": "pass" if ok else "fail",
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"matrix: {mat}")
        print(f"characteristic polynomial: {check.characteristic.display()}")
        print(f"mapping-torus torsion polynomial: {check.torsion.display()}")
        print(f"torsion equals charpoly: {'pass' if check.ok else 'FAIL'}")
        for p in powers:
            status = "pass" if p.ok else "FAIL"
            print(f"power {p.n}: {status} ({p.power.display()})")
        print(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_FAIL


def _census(args):
    from .sl2z import sol_candidates
    if args.c is not None:
        c = Fraction(args.c)
        if c < 1:
            raise ValueError("--c must be >= 1")
        top = int(c + 1 / c)
        return str(c), top, sol_candidates(c)
    bound = args.trace_bound
    if bound is None or bound <= 2:
        raise ValueError("--trace-bound must be an integer > 2")
    return None, bound, sol_candidates(bound)


def cmd_sol_census(args) -> int:
    from .sl2z import inverse_class, rl_to_matrix
    c_str, bound, census = _census(args)

    def derived(w) -> tuple:
        inv = inverse_class(w)
        return w.display(), rl_to_matrix(w), inv.display(), inv == w  # census words are canonical

    if args.json:
        keys = ("word", "matrix", "reciprocal_class", "ambichiral")
        doc = {
            "c": c_str,
            "trace_bound": bound,
            "census": [
                {"trace": tau, "count": len(words), "classes": [dict(zip(keys, derived(w))) for w in words]}
                for tau, words in census
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        if not census:
            print("empty census (no hyperbolic traces within the bound)")
        for tau, words in census:
            print(f"trace {tau}: {len(words)} class(es)")
            for word, mat, inv, ambichiral in map(derived, words):
                tag = "self-reciprocal" if ambichiral else f"reciprocal: {inv}"
                print(f"  {word}  {mat}  [{tag}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionpoly",
        description="Torsion polynomials of maps to Z with certified root-annulus bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, psi_or_bound):
        p.add_argument("--pres", required=True, help="presentation file, or - for stdin")
        if psi_or_bound == "psi":
            p.add_argument("--psi", required=True, help="comma-separated integers, one per generator")
        else:
            p.add_argument("--bound", type=int, required=True, help="sup-norm bound on the maps to Z")
        p.add_argument("--tol", type=float, default=1e-10, help="numeric root tolerance (default 1e-10)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--certify-only", action="store_true",
                       help="skip the roots; no floating point")
        p.add_argument("--seed", type=int, default=0, help="determinism seed for the root finder")

    p = sub.add_parser("torsion", help="torsion polynomial and annulus verdict for one map to Z")
    common(p, "psi")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("scan", help="annulus reports for all maps to Z up to a bound")
    common(p, "bound")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("mapping-torus", help="torus-bundle torsion vs characteristic polynomial, with power covers")
    p.add_argument("--matrix", required=True, help="a,b,c,d entries of a det-1 integer matrix")
    p.add_argument("--power", type=int, default=1, help=f"check covers for powers 1..n, n <= {POWER_COVER_CAP}")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mapping_torus)

    p = sub.add_parser("sol-census", help="hyperbolic SL2(Z) classes per trace within a bound")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", help="root bound c >= 1 (trace bound becomes floor(c + 1/c))")
    group.add_argument("--trace-bound", type=int, help="explicit trace bound > 2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sol_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, PresentationError, InvalidEpimorphism, ValueError, OSError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
