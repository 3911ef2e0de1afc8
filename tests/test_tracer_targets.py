"""The benchmark names package functions in two ways: the layer tracer by
module and attribute path, and its scripts by importing them.  A rename or
deletion in the package must fail here rather than in a benchmark run.  The
benchmark's sources are read with ``ast``, not imported, so nothing under
perfbench/ runs or changes."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def _traced():
    tree = ast.parse(LAYERTRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/layertrace.py")


@pytest.mark.parametrize("module,path,metric", _traced())
def test_traced_target_resolves(module, path, metric):
    # the tracer wraps owner.__dict__[attr], so the attribute must be
    # defined on its owner itself, not inherited
    owner = importlib.import_module(f"umbral_flow.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"{module}.{path} ({metric})"


def _package_imports():
    """(file, module, name) for every import from the package in the
    benchmark's scripts, name None for a plain ``import``.  Child-process
    code held in string constants counts too, one import line at a time."""
    found = []

    def walk(tree, where):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "umbral_flow":
                found.extend((where, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                found.extend((where, a.name, None) for a in node.names
                             if a.name.split(".")[0] == "umbral_flow")
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                for line in node.value.splitlines():
                    if line.lstrip().startswith(("import umbral_flow",
                                                 "from umbral_flow")):
                        walk(ast.parse(line.strip()), where)

    for path in sorted(PERFBENCH.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name)
    return found


def test_benchmark_imports_found():
    # the guard below must see the scripts' imports at all
    assert {(m, n) for _, m, n in _package_imports()} >= {
        ("umbral_flow.umbral", "apply_flow"),
        ("umbral_flow.config", "Config"),
        ("umbral_flow.cli", None),
    }


@pytest.mark.parametrize("where,module,name", _package_imports())
def test_benchmark_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"{where}: from {module} import {name}"
