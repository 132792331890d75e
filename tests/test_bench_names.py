"""The benchmark (bench/child.py) looks package functions up by name: the
traced ones in the module that defines them, the top-level calls at the
module that calls them. A renamed or moved function would only show up as an
AttributeError in a traced benchmark run; these tests catch it here."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def child_constant(name):
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {CHILD}")


def test_traced_functions_are_defined_where_named():
    for module_name, names in child_constant("TRACED").items():
        module = importlib.import_module(f"qdelnet.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"qdelnet.{module_name}.{name} is gone"
            # Span names come from the defining module (child.span_name).
            assert fn.__module__ == module.__name__, f"{name} is defined in {fn.__module__}"


def test_top_level_sites_are_bound_to_traced_functions():
    traced = {
        id(getattr(importlib.import_module(f"qdelnet.{m}"), name))
        for m, names in child_constant("TRACED").items()
        for name in names
    }
    for module_name, attr in child_constant("TOP_LEVEL_SITES"):
        module = importlib.import_module(f"qdelnet.{module_name}")
        assert id(getattr(module, attr, None)) in traced, f"qdelnet.{module_name}.{attr}"
