"""Every exported name resolves, in each module and in the package."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmx

MODULES = (
    "operator_core",
    "hs_algebra",
    "process_space",
    "supermaps",
    "rigidity",
    "extremality",
    "cli",
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_name_in_all(name):
    namespace = {}
    exec(f"from pmx.{name} import *", namespace)
    module = importlib.import_module(f"pmx.{name}")
    assert module.__all__
    assert set(module.__all__) <= set(namespace)


def test_package_names_are_the_module_objects():
    modules = [importlib.import_module(f"pmx.{name}") for name in MODULES]
    exported = {n for m in modules for n in m.__all__}
    names = [n for n in vars(pmx) if not n.startswith("_") and n not in MODULES]
    assert names
    for n in names:
        assert n in exported, n
        owners = [m for m in modules if n in m.__all__]
        assert all(getattr(m, n) is getattr(pmx, n) for m in owners), n


def test_package_and_cli_run_without_scipy():
    # the tests import SciPy themselves, so a fresh interpreter checks that
    # pmx, a verify suite and a sweep load none of it
    code = (
        "import contextlib, io, sys\n"
        "import pmx, pmx.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert pmx.cli.main(['verify', 'switch']) == 0\n"
        "    assert pmx.cli.main(['sweep', '--lambdas', '0,0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
