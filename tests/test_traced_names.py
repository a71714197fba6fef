"""The names the traced benchmark run wraps (`perfbench/tracer.py`) exist:
a rename that would stop the traced run fails here on every Python."""

import ast
import functools
import importlib
import inspect
from pathlib import Path

from poissonsym.geom import MetricSpace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _constant(name: str):
    """The literal value the tracer binds to name at module level."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} binds no {name}")


def test_traced_functions_are_module_level_functions():
    for layer, names in _constant("FUNCTIONS").items():
        module = importlib.import_module(f"poissonsym.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{layer}.{name} is no function"
            assert (fn.__module__, fn.__qualname__) \
                == (module.__name__, name), f"{layer}.{name} is not defined there"


def test_traced_tensors_are_cached_properties():
    for name in _constant("TENSORS"):
        assert isinstance(MetricSpace.__dict__.get(name),
                          functools.cached_property), name
