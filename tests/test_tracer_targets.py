"""Every function that the benchmark's tracer patches still exists in momint.

``perfbench/tracer.py`` is imported read-only, for its ``TARGETS`` table. A
deleted or renamed traced name fails here, not only in the benchmark's own
self-test.
"""

import importlib
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    # compiled from its text, so no bytecode cache is written beside it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(PATH.read_text(), str(PATH), "exec"), namespace)
    return namespace["TARGETS"]


@pytest.mark.parametrize("name, module_name, path", [t[:3] for t in load_targets()])
def test_traced_name_resolves(name, module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        # the tracer patches the class's own attribute, never an inherited one
        assert attr in vars(getattr(module, class_name)), f"{name}: {path}"
    else:
        assert callable(getattr(module, path)), f"{name}: {path}"
