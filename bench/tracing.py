"""Spans at the module boundaries of torsionpoly, recorded from outside it.

``Tracer.installed()`` replaces each traced public function, in every
torsionpoly module namespace that binds it, by a wrapper that records a
span ``(name, start, end, parent, info)``.  Because the defining module's
own global is replaced too, a call is traced wherever it is resolved
through a module namespace: calls between modules through the caller's
import, calls inside a module through its global.  Spans stay in memory;
``layer_metrics`` turns the spans of one pass into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import statistics
import sys
import time
from fractions import Fraction

TRACED = {
    "presentation": ("parse_presentation", "enumerate_epimorphisms", "complexity_k"),
    "freegroup": ("fox_derivative",),
    "torsion": ("specialize_jacobian", "torsion_polynomial", "annulus_certify", "scan"),
    "laurent": ("rank", "smith_normal_form", "determinant", "gcd", "cauchy_root_radius",
                "complex_roots"),
    "bundles": ("charpoly", "verify_monodromy_torsion", "power_cover",
                "enumerate_candidate_charpolys"),
    "sl2z": ("classes_with_trace", "sol_candidates"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
DERIVED = (
    ("laurent.complex_roots.degree_sum", "count"),
    ("laurent.complex_roots.max_degree", "count"),
    ("freegroup.fox_per_entry", "ratio"),
    ("torsion.numeric_decided_ratio", "ratio"),
    ("bundles.candidate_numeric_ratio", "ratio"),
    ("sl2z.classes_found", "count"),
)


def _full_reports(fn, args, kwargs, result):
    """(full reports, reports the exact certificate did not decide)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["certify_only"]:
        return (0, 0)
    reports = result if isinstance(result, list) else [result]
    undecided = sum(1 for r in reports if r.verdict != "vacuous" and not r.exact_certified)
    return (len(reports), undecided)


def _candidates_examined(fn, args, kwargs, result):
    """Size of the candidate box: 2 * prod(2 floor(C(beta,k) c^k n^beta) + 1)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    beta, n, c = (bound.arguments[k] for k in ("beta", "n_denominator", "c"))
    c = Fraction(c)
    volume = 2
    for k in range(1, beta):
        volume *= 2 * math.floor(math.comb(beta, k) * c ** k * n ** beta) + 1
    return volume


def _census_size(fn, args, kwargs, result):
    if result and isinstance(result[0], tuple):  # sol_candidates: (trace, words) pairs
        return sum(len(words) for _, words in result)
    return len(result)


# info recorded per span: fn(original, args, kwargs, result) -> value
OBSERVE = {
    "laurent.complex_roots": lambda fn, a, k, r: a[0].span(),
    "torsion.specialize_jacobian": lambda fn, a, k, r: r.num_relators * r.num_generators,
    "torsion.annulus_certify": _full_reports,
    "torsion.scan": _full_reports,
    "bundles.enumerate_candidate_charpolys": _candidates_examined,
    "sl2z.classes_with_trace": _census_size,
    "sl2z.sol_candidates": _census_size,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVE.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if observe is not None:
                spans[idx] = (name, start, end, parent, observe(fn, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in every torsionpoly module; restore on exit."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "torsionpoly" or key.startswith("torsionpoly."))]
        patched = []
        try:
            for mod_name, fns in TRACED.items():
                defining = sys.modules[f"torsionpoly.{mod_name}"]
                for fn_name in fns:
                    original = getattr(defining, fn_name)
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def take(self) -> list:
        """The spans recorded so far; the tracer starts empty again."""
        spans = list(self.spans)
        self.spans.clear()  # the wrappers hold this list object
        return spans


def layer_metrics(spans: list, factor=lambda start: 1.0) -> dict[str, float]:
    """Calls, self time and derived ratios from the spans of one pass.

    ``factor(start)`` scales the duration of a span that starts at ``start``
    (the speed normalization of the call it belongs to).
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    duration = [(end - start) * factor(start) for _, start, end, _, _ in spans]
    child_s = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += duration[i]
    for i, (name, _, _, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += duration[i] - child_s[i]

    def infos(name, parent_name=None):
        return [info for n, _, _, parent, info in spans
                if n == name and (parent_name is None
                                  or (parent >= 0 and spans[parent][0] == parent_name))]

    degrees = infos("laurent.complex_roots")
    entries = sum(infos("torsion.specialize_jacobian"))
    full = infos("torsion.annulus_certify") + infos("torsion.scan")
    n_full = sum(f for f, _ in full)
    examined = sum(infos("bundles.enumerate_candidate_charpolys"))
    numeric_in_search = len(infos("laurent.complex_roots", "bundles.enumerate_candidate_charpolys"))
    census = [info for n, _, _, parent, info in spans
              if n.startswith("sl2z.") and (parent < 0 or not spans[parent][0].startswith("sl2z."))]

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_s[name] * 1000
    out["laurent.complex_roots.degree_sum"] = sum(degrees)
    out["laurent.complex_roots.max_degree"] = max(degrees, default=0)
    out["freegroup.fox_per_entry"] = calls["freegroup.fox_derivative"] / entries if entries else 0.0
    out["torsion.numeric_decided_ratio"] = sum(u for _, u in full) / n_full if n_full else 0.0
    out["bundles.candidate_numeric_ratio"] = numeric_in_search / examined if examined else 0.0
    out["sl2z.classes_found"] = sum(census)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass (they repeat exactly); medians of times."""
    out = dict(per_pass[0])
    for key in out:
        if key.endswith("_ms"):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
