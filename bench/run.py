"""Benchmark of torsionpoly: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload roots --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A closed loop with one client: the top-level calls of a pass run back to
back in this process (``cli-cold`` starts one child interpreter per call and
waits for it), and passes repeat until ``--seconds`` is used up, with at
least three passes and enough for the tail percentile to have 40 samples.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics of BENCHMARK.json, from passes
that alternate untraced and traced so that the tracing overhead is
measured too.  Every call's output is checked; ``failed`` counts calls
that raised or failed their check.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("roots", "exact-scan", "monodromy", "cli-cold")
MIN_TAIL_SAMPLES = {"full": 40, "smoke": 11}
PROBES = {"full": 3, "smoke": 1}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import torsionpoly from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import torsionpoly
    except ImportError as exc:
        raise ProgramMissing(f"cannot import torsionpoly from {SRC}: {exc}") from exc
    where = Path(torsionpoly.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"torsionpoly was imported from {where}, not from {SRC}")
    return torsionpoly


def _child_seconds(args: list[str], env=None, parse=False) -> float:
    """Wall time of a child interpreter, or with ``parse`` the float it prints last."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1]) if parse else wall


def setup_seconds(workload: str, seed: int, scale: str) -> float:
    """Median over child processes of: import torsionpoly, generate the inputs."""
    args = [str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
            "--seed", str(seed), "--scale", scale]
    return statistics.median(_child_seconds(args, parse=True) for _ in range(PROBES[scale]))


def setup_probe(workload: str, seed: int, scale: str) -> float:
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.build(workload, seed, scale, str(ROOT))
    return time.perf_counter() - start


def cli_startup_ms(scale: str) -> tuple[float, float]:
    """(bare interpreter wall, in-child `import torsionpoly.cli`), medians in ms."""
    k = PROBES[scale]
    bare = statistics.median(_child_seconds(["-c", "pass"]) for _ in range(k))
    code = ("import time; t = time.perf_counter(); import torsionpoly.cli; "
            "print(time.perf_counter() - t)")
    imp = statistics.median(_child_seconds(["-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), parse=True)
                            for _ in range(k))
    return bare * 1000, imp * 1000


def environment(seed: int) -> dict:
    import mpmath

    try:
        import gmpy2  # noqa: F401
        gmpy2_present = True
    except ImportError:
        gmpy2_present = False
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2_importable": gmpy2_present,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- passes -------------------------------------------------------------------


def resolve_references(calls) -> None:
    """Fill in expected outputs that come from running the program untimed."""
    cache = {}
    for call in calls:
        if call.expected is None and call.reference is not None:
            key = id(call.reference)
            if key not in cache:
                try:
                    cache[key] = call.reference()
                except Exception as exc:  # a broken reference fails its calls
                    cache[key] = ("reference raised", f"{type(exc).__name__}: {exc}")
            call.expected = cache[key]


# Other tenants of the machine slow its cores by up to a third, in waves
# that last seconds, which no number of passes averages away.  So a fixed
# calibration kernel (exact Fraction polynomial products, bench code that
# never touches torsionpoly) is timed before every call and after the last
# one, and each call's latency is scaled by REFERENCE_KERNEL_S / (mean kernel
# time just before and after the call): times are reported at the speed at
# which the kernel takes 4 ms, about the fastest it runs on the 2-vCPU Xeon
# host the benchmark was set up on.  The raw medians go to the details line.
REFERENCE_KERNEL_S = 0.004


def _kernel() -> dict:
    a = {i: Fraction(i + 1, 3 * i + 2) for i in range(24)}
    b = {i: Fraction(2 * i - 7, i + 5) for i in range(24)}
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    _kernel()
    return time.perf_counter() - start


@dataclass
class Pass:
    latencies: list[float]  # raw seconds per call
    kernels: list[float]  # kernel seconds before each call and after the last
    starts: list[float]  # clock reading at each call's start
    failures: list[str]

    def factors(self) -> list[float]:
        return [2 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(self.kernels, self.kernels[1:])]

    def scaled(self) -> list[float]:
        return [lat * f for lat, f in zip(self.latencies, self.factors())]


def run_pass(calls) -> Pass:
    """Time the calls back to back, each between two kernel timings, then check them."""
    gc.collect()
    clock = time.perf_counter
    done = Pass([], [kernel_seconds()], [], [])
    outputs = []
    for call in calls:
        t = clock()
        try:
            outputs.append((call.fn(), None))
        except Exception as exc:  # counted as a failed call
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        done.latencies.append(clock() - t)
        done.starts.append(t)
        done.kernels.append(kernel_seconds())
    for call, (out, err) in zip(calls, outputs):
        if err is None:
            try:
                err = call.check(out, call.expected)
            except Exception as exc:  # a check that cannot read the output
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            done.failures.append(f"{call.label}: {err}")
    return done


def run_passes(calls, seconds: float, need: int, traced_with=None):
    """Passes until ``seconds`` is used up, at least ``need`` of them.

    With a tracer, each round is an untraced pass followed by a traced one.
    """
    plain, traced, spans = [], [], []
    begin = time.perf_counter()
    round_s = 0.0
    while len(plain) < need or time.perf_counter() - begin + round_s <= seconds:
        start = time.perf_counter()
        plain.append(run_pass(calls))
        if traced_with is not None:
            with traced_with.installed():
                traced.append(run_pass(calls))
            spans.append(traced_with.take())
        round_s = time.perf_counter() - start
    return plain, traced, spans


def tail(latencies: list[float], base: int) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 of ``base`` samples above it.

    The percentile is fixed by ``base``, the sample count of the minimum
    number of passes, so it is the same on every commit; its value is read
    from all the samples of the run.
    """
    ordered = sorted(latencies)
    if base <= 10:
        return ordered[-1], 100.0
    pct = (base - 10) / base
    return ordered[math.ceil(pct * len(ordered)) - 1], 100.0 * pct


def min_passes(calls, scale: str) -> int:
    return max(3, math.ceil(MIN_TAIL_SAMPLES[scale] / len(calls)))


def measure(workload, seconds: float, scale: str):
    """Untraced passes: (metrics without setup_s, attempted, failures, details)."""
    resolve_references(workload.calls)
    need = min_passes(workload.calls, scale)
    passes, _, _ = run_passes(workload.calls, seconds, need)
    scaled = [p.scaled() for p in passes]
    walls = [sum(s) for s in scaled]
    latencies = [x for s in scaled for x in s]
    tail_ms, tail_pct = tail(latencies, need * len(workload.calls))
    failures = [f for p in passes for f in p.failures]
    if workload.child_rss:
        rss = max(workload.child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "call_tail_ms": (tail_ms * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = [x for p in passes for x in p.latencies]
    details = {
        "passes": len(passes),
        "calls_per_pass": len(workload.calls),
        "call_tail_percentile": round(tail_pct, 2),
        "call_samples": len(latencies),
        "fail_ratio": len(failures) / len(latencies),
        "pass_walls_s": [round(w, 4) for w in walls],
        "raw_wall_s": statistics.median(sum(p.latencies) for p in passes),
        "raw_call_p50_ms": statistics.median(raw) * 1000,
        "fastest_kernel_ms": min(k for p in passes for k in p.kernels) * 1000,
        "median_speed_factor": statistics.median(f for p in passes for f in p.factors()),
    }
    return metrics, len(latencies), failures, details


def measure_traced(workload, seconds: float, scale: str):
    """Alternate untraced and traced passes: (per-layer metrics, attempted, failures, details)."""
    import tracing

    calls = workload.traced_calls
    resolve_references(calls)
    plain, traced, spans = run_passes(calls, seconds, 1, tracing.Tracer())
    layers = []
    for p, pass_spans in zip(traced, spans):
        factors = p.factors()
        layers.append(tracing.layer_metrics(
            pass_spans, lambda t, p=p, f=factors: f[max(0, bisect.bisect_right(p.starts, t) - 1)]))
    plain_walls = [sum(p.scaled()) for p in plain]
    traced_walls = [sum(p.scaled()) for p in traced]
    failures = [f for p in plain + traced for f in p.failures]
    attempted = len(calls) * (len(plain) + len(traced))
    interp_ms, import_ms = cli_startup_ms(scale)
    values = tracing.median_metrics(layers)
    values["cli.interpreter_ms"] = interp_ms
    values["cli.import_ms"] = import_ms
    values["cli.main_ms"] = statistics.median(plain_walls) * 1000 if workload.name == "cli-cold" else 0.0
    values["fail_ratio"] = len(failures) / attempted
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    details = {
        "untraced_passes_s": [round(w, 4) for w in plain_walls],
        "traced_passes_s": [round(w, 4) for w in traced_walls],
    }
    return values, attempted, failures, details


def per_layer_units() -> dict[str, str]:
    import tracing

    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(dict(tracing.DERIVED))
    units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
                  "fail_ratio": "ratio", "trace.overhead_s": "s"})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input size; smoke is the minimal size used by the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import plus input generation, print seconds")
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, args.scale))
            return 0
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    # one core for this process and its children, so that the calibration
    # kernel times the core the measured code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        workload = workloads.build(args.workload, args.seed, args.scale, str(ROOT))
        values, attempted, failures, details = measure_traced(workload, args.seconds, args.scale)
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        setup = setup_seconds(args.workload, args.seed, args.scale)
        workload = workloads.build(args.workload, args.seed, args.scale, str(ROOT))
        measured, attempted, failures, details = measure(workload, args.seconds, args.scale)
        metrics = {"setup_s": {"value": setup, "unit": "s"}}
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in measured.items()})
    details["failures"] = sorted(set(failures))[:10]
    print(json.dumps({"details": details}), flush=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
