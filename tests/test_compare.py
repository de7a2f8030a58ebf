"""``tools/compare.py`` pairs violations by description before diffing numbers."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_tool", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(*violations):
    return {"passed": False, "results": {"checks": [{
        "check": "cone", "attempted": 3,
        "violations": [{"description": d, "value": v} for d, v in violations]}]}}


def test_violations_that_differ_only_in_order_are_a_reorder(compare):
    changes = {}
    base = report(("(1 - t)^2 * (1 + t)^0", -1.0), ("(1 - t)^1 * (1 + t)^1", -0.5))
    head = report(("(1 - t)^1 * (1 + t)^1", -0.5), ("(1 - t)^2 * (1 + t)^0", -1.0))
    assert compare._walk_changes(base, head, "", changes) == 1
    assert changes == {}


def test_one_changed_value_is_one_change_whatever_the_order(compare):
    changes = {}
    base = report(("(1 - t)^2 * (1 + t)^0", -1.0), ("(1 - t)^1 * (1 + t)^1", -0.5))
    head = report(("(1 - t)^1 * (1 + t)^1", -0.25), ("(1 - t)^2 * (1 + t)^0", -1.0))
    assert compare._walk_changes(base, head, "", changes) == 0
    assert changes == {".results.checks[].violations[].value": (0.25, 0.5, 1)}
