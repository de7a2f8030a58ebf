"""``tools/compare.py`` pairs violations by description before diffing
numbers, and names every other change with an example."""

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
    others = {}
    assert compare._walk_changes(base, head, "", changes, others) == 1
    assert changes == {} and others == {}


def test_one_changed_value_is_one_change_whatever_the_order(compare):
    changes = {}
    base = report(("(1 - t)^2 * (1 + t)^0", -1.0), ("(1 - t)^1 * (1 + t)^1", -0.5))
    head = report(("(1 - t)^1 * (1 + t)^1", -0.25), ("(1 - t)^2 * (1 + t)^0", -1.0))
    others = {}
    assert compare._walk_changes(base, head, "", changes, others) == 0
    assert changes == {".results.checks[].violations[].value": (0.25, 0.5, 1)}
    assert others == {}



def walk(compare, base, head):
    changes, others = {}, {}
    assert compare._walk_changes(base, head, "", changes, others) == 0
    return changes, others


def test_a_changed_description_is_named_with_its_example(compare):
    changes, others = walk(compare, report(("t^2 * (1 - t)", -0.5)),
                           report(("t^2 * (1 + t)", -0.5)))
    assert changes == {}
    assert others == {".results.checks[].violations[].description":
                      (1, ('"t^2 * (1 - t)"', '"t^2 * (1 + t)"'))}


def test_a_flipped_verdict_is_named_with_its_example(compare):
    base, head = report(), report()
    head["passed"] = True
    changes, others = walk(compare, base, head)
    assert changes == {}
    assert others == {".passed": (1, ("false", "true"))}


def test_a_grown_violations_list_names_its_length_and_new_entry(compare):
    changes, others = walk(compare, report(("t", -1.0)),
                           report(("t", -1.0), ("1 - t", -0.25)))
    assert changes == {}
    assert others == {
        ".results.checks[].violations": (1, ("length 1", "length 2")),
        ".results.checks[].violations[]":
            (1, ("<absent>", '{"description": "1 - t", "value": -0.25}')),
    }


def test_a_key_on_one_side_and_a_null_are_named(compare):
    base = {"rayleigh": {"upper": 1.0}, "limit": None}
    head = {"rayleigh": {"error": "rank 0"}, "limit": 2.0}
    changes, others = walk(compare, base, head)
    assert changes == {}
    assert others == {
        ".rayleigh.upper": (1, ("1.0", "<absent>")),
        ".rayleigh.error": (1, ("<absent>", '"rank 0"')),
        ".limit": (1, ("null", "2.0")),
    }
