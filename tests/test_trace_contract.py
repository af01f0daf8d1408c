"""The benchmark's tracing (bench/tracing.py) wraps dualmin functions by name;
a refactor that moves one of them would break `bench/run.py --trace 1`."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped():
    """The WRAPPED list of (module, attribute or Class.attribute, span), read
    from the source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no WRAPPED list")


def _resolve(module, attr):
    value = importlib.import_module(f"dualmin.{module}")
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def test_every_wrapped_name_resolves():
    missing = []
    for module, attr, _ in _wrapped():
        try:
            _resolve(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_wrapped_methods_are_defined_in_their_own_class():
    # the tracer swaps cls.__dict__[method], so an inherited method cannot be wrapped
    inherited = []
    for module, attr, _ in _wrapped():
        if "." in attr:
            cls_name, method = attr.split(".")
            if method not in vars(_resolve(module, cls_name)):
                inherited.append(f"{module}.{attr}")
    assert not inherited
