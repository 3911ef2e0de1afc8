"""The benchmark's layer tracer names package functions by module and
attribute path; a rename in the package must fail here rather than in a
traced benchmark run.  The tracer's table is read from its source, not
imported, so nothing under perfbench/ runs or changes."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
