"""Every exported name resolves, in each module and in the package."""

import importlib

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
