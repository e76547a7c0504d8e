"""The names that ``bench/tracing.py`` looks up in torsionpoly.

The tracer finds each traced function with ``getattr`` on its defining
module, and tells census results apart by whether their first entry is a
tuple; a move inside the package that breaks either would otherwise show
only in a traced benchmark run.  The tracer is loaded from its file, as the
benchmark loads it, and nothing under ``bench/`` is imported as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from torsionpoly.sl2z import RLWord, classes_with_trace, sol_candidates


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", tracing.SPAN_NAMES)
def test_every_traced_name_resolves_in_its_module(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"torsionpoly.{module}"), function))


def test_every_observed_span_is_traced():
    assert set(tracing.OBSERVE) <= set(tracing.SPAN_NAMES)


def test_census_words_are_not_tuples():
    assert not issubclass(RLWord, tuple)
    census, words = sol_candidates(10), classes_with_trace(10)
    assert tracing._census_size(None, (), {}, census) == sum(len(w) for _, w in census)
    assert tracing._census_size(None, (), {}, words) == len(words) == 6
