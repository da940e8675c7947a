"""The benchmark under perfbench/ reaches into geosplit by name: the traced
mode rebinds the functions listed in `tracing._TARGETS`, and the workloads
import their entry points from the package.  A rename or deletion in src
must fail here rather than in a benchmark run."""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _geosplit_imports(name):
    """(module, attribute) of every `from geosplit... import ...` in a file."""
    with open(os.path.join(PERFBENCH, f"{name}.py")) as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("geosplit")
            for alias in node.names]


def test_every_traced_target_resolves():
    targets = _load("tracing")._TARGETS
    assert targets
    for module, attr, *_ in targets:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


@pytest.mark.parametrize("name", ["workloads", "tracing", "timed_cli", "traced_cli", "worker"])
def test_every_geosplit_import_resolves(name):
    imports = _geosplit_imports(name)
    assert imports
    for module, attr in imports:
        mod = importlib.import_module(module)
        # `from geosplit import cli` names a submodule
        assert hasattr(mod, attr) or importlib.util.find_spec(f"{module}.{attr}"), (module, attr)


def test_geodesic_tally_jobs_pass(tmp_path):
    """Every job of the geodesic_tally workload runs once, in its order, and
    every check passes: the workload relies on `len()` of the enumeration,
    `classes=` on `empirical_tally` and `ClassData`, and the tally's `total`
    and `counts`."""
    import random

    workloads = _load("workloads")
    ctx = workloads.Context(str(tmp_path))
    for job in workloads.geodesic_tally(random.Random(0)):
        job.fn(ctx)
    assert ctx.checks
    assert [c for c in ctx.checks if not c[1]] == []


def test_dual_sweep_jobs_pass(tmp_path):
    """Every job of the dual_sweep workload runs once, in its order, and
    every check passes: the workload relies on `dual_type_report` returning
    the element count and an empty mismatch list on its whole level grid."""
    import random

    workloads = _load("workloads")
    ctx = workloads.Context(str(tmp_path))
    for job in workloads.dual_sweep(random.Random(0)):
        job.fn(ctx)
    assert len(ctx.checks) == 2 * len(workloads.DUAL_GRID)
    assert [c for c in ctx.checks if not c[1]] == []
