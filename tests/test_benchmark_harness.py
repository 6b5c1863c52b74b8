"""Smoke test of the benchmark harness against the package's public API."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "files", "supermap", "certify"])
def test_quick_run_passes(workload):
    # the harness imports pmx from this checkout and checks every output,
    # so a moved or renamed public name or a broken check fails here first
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--quick", "--workload", workload],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "quick overall=PASS" in done.stdout.splitlines()


def test_tracer_installs_over_every_layer():
    # --quick never traces, so only this reaches Tracer.install(), which
    # imports every module named in tracing.LAYERS
    code = (
        "import sys; sys.path[:0] = ['src', 'benchmarks']; "
        "from tracing import Tracer; Tracer().install()"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
