"""Benchmark for pmx: one closed-loop client driving one workload.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --quick [--workload files]

A run builds the workload's input pool from ``--seed``, sets up, then
repeats whole passes over the pool until ``--seconds`` have gone by.  Every
operation's output is checked; an operation that raises or fails a check
counts as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``setup_s`` is the median over several fresh interpreters, each timed from
its start until it has imported pmx, built the pool and warmed up.  BLAS
and OpenMP are pinned to one thread before numpy loads, in this process and
in those probes.  ``--quick`` runs a few operations of each workload and
shows that every check fails when its expected value is wrong.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACES = HERE / "traces"
WORKLOAD_NAMES = ("sweep", "files", "supermap", "certify")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
QUICK_OPS = 2


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_workloads():
    """Import pmx from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "pmx" / "__init__.py").is_file():
        _fail(f"pmx sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pmx

    if Path(pmx.__file__).resolve().parent != SRC / "pmx":
        _fail(f"imported pmx from {pmx.__file__}, expected {SRC / 'pmx'}")
    import workloads

    return workloads


def setup(name: str, seed: int, workdir: str):
    """Import, build the seeded pool, and warm up; returns the workload."""
    workload = _import_workloads().make_workload(name, seed, workdir)
    workload.warm_up()
    return workload


def judge(workload, item, result, checks) -> str | None:
    """Check one operation's result; the failure message, or None if it passed."""
    try:
        workload.check(item, result, checks)
    except Exception as exc:  # any error while checking fails the operation
        return f"{type(exc).__name__}: {exc}"
    return None


def measure_setup(args: argparse.Namespace) -> float:
    """Median set-up time of ``SETUP_PROBES`` fresh interpreters."""
    times = []
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            _fail(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return statistics.median(times)


def timed_loop(workload, seconds: float, tracer=None):
    """Whole passes over the pool until ``seconds`` have elapsed."""
    import workloads

    durations: list[float] = []
    failed = 0
    good_time = 0.0
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        for item in workload.pool:
            if tracer is not None:
                tracer.op = len(durations)
                tracer.active = True
            error = None
            t = time.perf_counter()
            try:
                result = workload.run(item)
            except Exception:
                error = traceback.format_exc()
            finally:
                dt = time.perf_counter() - t
                if tracer is not None:
                    tracer.active = False
            durations.append(dt)
            if error is None:
                error = judge(workload, item, result, workloads.Checks())
            if error is None:
                good_time += dt
            else:
                failed += 1
                print(f"operation {len(durations) - 1} failed: {error}", file=sys.stderr)
    return durations, failed, good_time


def run(args: argparse.Namespace) -> int:
    if not (SRC / "pmx" / "__init__.py").is_file():
        _fail(f"pmx sources not found under {SRC}")
    setup_s = measure_setup(args)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        durations, failed, good_time = timed_loop(workload, args.seconds, tracer)
    _remove_if_empty(WORK)
    attempted = len(durations)
    timing = {
        "ops_per_s": ((attempted - failed) / good_time if good_time else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    if tracer is None:
        metrics = timing
    else:
        from tracing import PER_LAYER

        values = tracer.per_layer(attempted)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        TRACES.mkdir(exist_ok=True)
        tracer.write(str(TRACES / f"{args.workload}-seed{args.seed}.jsonl"))
    summary = {name: round(value, 6) for name, (value, _) in timing.items()}
    print(f"timing trace={args.trace} {json.dumps(summary)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def quick(args: argparse.Namespace) -> int:
    """A few checked operations per workload; every check must be able to fail."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    workloads = _import_workloads()
    ok = True
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        for name in names:
            workload = setup(name, args.seed, workdir)
            checks = set()
            for item in workload.pool[:QUICK_OPS]:
                result = workload.run(item)
                recorder = workloads.Checks()
                error = judge(workload, item, result, recorder)
                if error is not None:
                    print(f"quick {name}: operation failed: {error}")
                    ok = False
                silent = [
                    check
                    for check in dict.fromkeys(recorder.names)
                    if judge(workload, item, result, workloads.Checks(check)) is None
                ]
                if silent:
                    print(f"quick {name}: wrong expected value not caught by {silent}")
                    ok = False
                checks.update(recorder.names)
            print(
                f"quick {name}: {min(QUICK_OPS, len(workload.pool))} operations checked; "
                f"each of {len(checks)} checks fails the operation on a wrong expected value"
            )
    _remove_if_empty(WORK)
    print(f"quick overall={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-run every check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        return quick(args)
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.setup_probe:
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
