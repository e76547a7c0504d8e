"""Smoke test of the benchmark at its minimal input size.

    python -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced at ``--scale smoke``, checks that
every metric BENCHMARK.json names is emitted with its unit, that a wrong
expected value planted here (not in the program) raises ``fail_ratio``,
and that the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace), "--scale", "smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(capsys, workload, trace):
    res = _result(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], (int, float))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    if trace and workload == "exact-scan":
        assert res["metrics"]["laurent.complex_roots.calls"]["value"] == 0
        assert res["metrics"]["laurent.smith_normal_form.calls"]["value"] > 0


def _plant_wrong_expected(workload) -> str:
    """Replace one call's expected value by a wrong one of the same shape."""
    for call in workload.calls:
        exp = call.expected
        if isinstance(exp, tuple) and isinstance(exp[0], workloads.CyclotomicQuotient):
            call.expected = (workloads.torus_delta(2, 7), exp[1])
        elif call.check is workloads._check_power_cover:
            call.expected = (exp[0], [1, 0, 1])
        elif call.check is workloads._check_cli:
            call.expected = (exp[0], exp[1] + " ")
        else:
            continue
        return call.label
    raise AssertionError("no call to plant a wrong expected value in")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_expected_value_raises_fail_ratio(name):
    workload = workloads.build(name, SEED, "smoke", str(run.ROOT))
    run.resolve_references(workload.calls)
    label = _plant_wrong_expected(workload)
    _, attempted, failures, details = run.measure(workload, 0, "smoke")
    assert details["fail_ratio"] > 0
    assert all(f.startswith(label) for f in failures)
    assert len(failures) == attempted // len(workload.calls)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "roots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
