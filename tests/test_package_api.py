"""Public-API surface checks: exports exist, subpackages import cleanly."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import warnings

import pytest

PACKAGES = [
    "repro",
    "repro.geometry",
    "repro.chip",
    "repro.designs",
    "repro.faults",
    "repro.reconfig",
    "repro.yieldsim",
    "repro.fluidics",
    "repro.assays",
    "repro.viz",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


_REACHABILITY_PROBE = """
import pkgutil, sys
import repro, repro.cli, repro.experiments.registry, repro.serve.app
loaded = set(sys.modules)  # walk_packages imports the packages it visits
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__" and info.name not in loaded:
        print(info.name)
"""


def test_every_module_is_reachable_from_a_shipped_path():
    # The CLI, the HTTP service and the experiment registry are the shipped
    # entry points; a module none of them imports is dead library surface.
    # A fresh interpreter keeps imports made by other tests out of the check.
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _REACHABILITY_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []


def test_version():
    import repro

    assert repro.__version__ == "1.1.0"


def test_pyproject_version_is_single_sourced():
    # The distribution version is read from repro.__version__, not copied.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    import repro

    root = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        pytest.skip("not running from a source checkout")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        config = pyprojecttoml.read_configuration(path)
    assert config["project"]["version"] == repro.__version__


def test_error_hierarchy_rooted():
    import repro.errors as errors

    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError) or exc is errors.ReproError


def test_layering_no_upward_imports():
    # The geometry substrate must not depend on anything above it.
    import repro.geometry.hex as hexmod
    import repro.geometry.hexgrid as gridmod

    for module in (hexmod, gridmod):
        source = open(module.__file__).read()
        for upper in ("repro.chip", "repro.designs", "repro.reconfig",
                      "repro.yieldsim", "repro.fluidics", "repro.assays"):
            assert upper not in source, f"{module.__name__} imports {upper}"
