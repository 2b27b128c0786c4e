"""Public-API surface checks: exports exist, subpackages import cleanly."""

from __future__ import annotations

import ast
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


#: Definitions nothing in ``src/repro`` names, each kept for a stated reason.
#: Anything else that loses its last caller must be deleted, not listed.
UNREFERENCED_ALLOWLIST = {
    # The public API: `repro.__all__` is its only in-package mention.
    "repro:get_engine": "public API",
    "repro:run_experiment": "public API",
    "repro:list_experiments": "public API",
    # `@register` experiment functions, reached through the registry.
    "repro.experiments.scenario_clustered:run_fig7_clustered": "registered experiment",
    "repro.experiments.scenario_clustered:run_fig9_clustered": "registered experiment",
    "repro.experiments.scenario_clustered:run_gradient": "registered experiment",
    "repro.experiments.scenario_functional:run_fig7_functional": "registered experiment",
    "repro.experiments.scenario_functional:run_fig9_functional": "registered experiment",
    "repro.experiments.scenario_functional:run_multiplexed": "registered experiment",
    # Oracles and test doubles the suite checks shipped code against.
    "repro.yieldsim.montecarlo:YieldSimulator": "object-level oracle for the kernel",
    "repro.yieldsim.montecarlo:YieldSimulator.run_survival": "oracle entry point",
    "repro.yieldsim.montecarlo:YieldSimulator.run_fixed_faults": "oracle entry point",
    "repro.yieldsim.exact:exact_yield": "exact-enumeration oracle",
    "repro.functional.funnel:_FunnelContext._residue_run": "object-level residue oracle",
    "repro.functional.funnel:_bfs_distances": "boolean-mask entry to the bit-sliced BFS",
    "repro.yieldsim.executors:InlineExecutor": "in-process executor for tests and perfbench",
    "repro.yieldsim.resilience:FaultInjectingExecutor": "chaos-test double",
    "repro.yieldsim.cachestore:FaultInjectingStore": "chaos-test double",
    "repro.serve.app:BackgroundServer": "in-thread server for tests and smoke scripts",
    # Validators the CI smoke scripts run over emitted telemetry.
    "repro.obs.trace:validate_trace": "CI trace validator",
    "repro.obs.events:validate_event_line": "CI event-log validator",
    # Readers a benchmark or test uses to check other code.
    "repro.obs.trace:span_signature": "checks trace determinism",
    "repro.designs.catalog:table1_rows": "checks the catalog against Table 1",
    "repro.experiments.fig2:Fig2Result.max_collateral": "checks the Fig. 2 cost series",
    "repro.experiments.ablation_defects:DefectModelAblationResult.gaps": "checks the ablation's gaps",
    "repro.experiments.fig9:Fig9Result.yield_at": "reads Fig. 9 points in benches",
    "repro.experiments.fig11:Fig11Result.yield_at": "reads Fig. 11 points in benches",
    "repro.experiments.fig13:Fig13Result.yield_at": "reads Fig. 13 points in benches",
    "repro.yieldsim.stats:YieldEstimate.consistent_with": "compares estimates in tests",
    "repro.yieldsim.stats:YieldEstimate.clearly_above": "compares estimates in tests",
    "repro.obs.counters:ScreenStats.screened": "checks kernel funnel counters",
    "repro.obs.counters:CriterionStats.screened": "checks criterion funnel counters",
    "repro.yieldsim.defects:SpotDefects.mean_kill_fraction": "checks the spot sampler's rate",
    "repro.yieldsim.defects:RadialGradient.mean_survival": "checks the gradient sampler's rate",
    "repro.chip.biochip:Biochip.is_connected": "checks the redesigned chip",
    "repro.geometry.hexgrid:HexRegion.is_connected": "checks RectRegion",
}


def _unreferenced_definitions(root):
    """``module:Qualname`` of every non-dunder def/class under ``root`` whose
    name appears nowhere in the package (as a name, an attribute or an
    identifier string) outside its own body and outside ``__all__``."""
    defs, refs = [], {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((f"{module}:{prefix}{child.name}", path, child))
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
        exports = [
            range(n.lineno, n.end_lineno + 1) for n in ast.walk(tree)
            if isinstance(n, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in n.targets)
        ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                name = n.value
            else:
                continue
            if name.isidentifier() and not any(n.lineno in span for span in exports):
                refs.setdefault(name, []).append((path, n.lineno))
    return {
        key
        for key, path, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and all(
            ref_path == path and node.lineno <= line <= node.end_lineno
            for ref_path, line in refs.get(node.name, [])
        )
    }


def test_every_definition_is_referenced_or_allowlisted():
    # A function, method or class nothing in the package names is dead
    # library surface, reachable only from its own unit tests.  Equality
    # also fails a stale allowlist entry whose definition gained a caller
    # or was deleted.
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    assert _unreferenced_definitions(root) == set(UNREFERENCED_ALLOWLIST)


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
