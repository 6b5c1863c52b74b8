"""Golden-output tests: each demo prints exactly its checked-in text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_has_a_golden_text():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem.removeprefix("demo_") for p in GOLDEN.glob("demo_*.txt")
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden_text(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_text()
