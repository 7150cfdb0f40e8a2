"""The layer tracer in ``perfbench/tracer.py`` wraps barrec functions and
methods by name; every name it lists must exist, so that a rename fails
here rather than inside a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def table_keys(name):
    """The keys of the dict literal assigned to ``name`` in the tracer,
    read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError("%s not found in %s" % (name, TRACER.name))


@pytest.mark.parametrize("module, name", table_keys("SPAN_FUNCTIONS"))
def test_span_function_resolves(module, name):
    assert callable(getattr(importlib.import_module("barrec." + module),
                            name))


@pytest.mark.parametrize("cls, method", table_keys("SPAN_METHODS"))
def test_span_method_resolves(cls, method):
    pfun = importlib.import_module("barrec.pfun")
    assert method in vars(getattr(pfun, cls))
