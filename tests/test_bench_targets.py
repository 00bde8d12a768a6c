"""The names that perfbench/spans.py traces must resolve in the package.

The tracer replaces functions and one method by name, so moving one of them
(say, ``AMatrix.to_json`` into a base class) breaks ``perfbench/run.py
--trace 1`` without failing anything else. spans.py is read and executed
here without importing it as a file, so nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

import cstar_schur.generate  # noqa: F401  generate_targets reads it from sys.modules

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    mod = types.ModuleType("perfbench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_function_targets_resolve():
    spans = _spans()
    for span, (modname, name) in {**spans.FUNCTION_TARGETS, **spans.generate_targets()}.items():
        assert callable(getattr(importlib.import_module(modname), name, None)), span


def test_method_targets_are_defined_on_the_class_itself():
    # the tracer reads and restores vars(cls)[attr], not an inherited attribute
    spans = _spans()
    for span, (modname, cls_name, attr) in spans.METHOD_TARGETS.items():
        cls = getattr(importlib.import_module(modname), cls_name)
        assert attr in vars(cls), span


def test_generation_targets_are_found():
    assert _spans().generate_targets()
