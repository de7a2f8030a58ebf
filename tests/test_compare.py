"""``tools/compare.py`` pairs violations by description before diffing
numbers, names every other change with an example, and checks the changes
against declared envelopes."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

import numpy as np
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


def expectations(compare, tmp_path, entries):
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(entries))
    return compare._load_expectations(str(path))


GROWTH = {"results": {"polynomials": {"x1*x2 + 0.25": {"growth_bound": {"value": 1.0}}}},
          "passed": True}


def changed_growth(value, passed=True):
    return {"results": {"polynomials": {"x1*x2 + 0.25": {"growth_bound": {"value": value}}}},
            "passed": passed}


def test_a_change_inside_its_envelope_fits_and_its_use_is_printed(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*.growth_bound.value", "allow": {"rel": 1e-9}}])
    changes, others = walk(compare, GROWTH, changed_growth(1.0 + 2e-10))
    usage, outside = compare.check_envelopes(entries, changes, others)
    assert outside == []
    assert usage == ["  2.000e-10 of rel 1e-09 at .results.polynomials.*.growth_bound.value"
                     " | 1 changes"]


def test_a_key_on_one_side_takes_the_next_entry_past_a_numeric_one(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*.growth_bound.value", "allow": {"abs": 1e-9}},
        {"path": ".results.polynomials.x1*x2 + 0.25.growth_bound.*", "allow": "any"}])
    # one report keeps its value, another gains it in place of an error
    changes, _ = walk(compare, GROWTH, changed_growth(1.0 + 2e-10))
    failed = {"results": {"polynomials": {"x1*x2 + 0.25": {"growth_bound": {"error": "e"}}}},
              "passed": True}
    _, others = walk(compare, failed, GROWTH)
    usage, outside = compare.check_envelopes(entries, changes, others)
    assert outside == []
    assert [line.rsplit("| ", 1)[1] for line in usage] == ["1 changes", "2 changes"]
    # a number beyond the abs entry fails, whatever the next entry allows
    changes, others = walk(compare, GROWTH, changed_growth(1.0 + 1e-8))
    _, outside = compare.check_envelopes(entries, changes, others)
    assert len(outside) == 1 and "allowed: abs 1e-09" in outside[0]


def test_a_number_beyond_an_abs_entry_takes_a_later_rel_entry(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*.growth_bound.value", "allow": {"abs": 1e-8}},
        {"path": ".results.polynomials.x1*x2 + 0.25.growth_bound.value", "allow": {"rel": 1e-15}}])
    # a small value within the abs bound beside a huge one moved by one ulp
    changes, others, numbers = {}, {}, {}
    for base, head in ((1e-8, 2e-22), (9.042911911062565e29, 9.042911911062564e29)):
        compare._walk_changes(changed_growth(base), changed_growth(head), "", changes, others,
                              numbers=numbers)
    usage, outside = compare.check_envelopes(entries, changes, others, numbers=numbers)
    assert outside == []
    assert [line.rsplit("| ", 1)[1] for line in usage] == ["1 changes", "1 changes"]
    # without the per-number list, the path's largest changes fit neither entry
    _, outside = compare.check_envelopes(entries, changes, others)
    assert len(outside) == 1 and "allowed: abs 1e-08" in outside[0]


def test_an_exceeded_envelope_fails(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*.growth_bound.value", "allow": {"abs": 1e-12}}])
    changes, others = walk(compare, GROWTH, changed_growth(1.0 + 1e-9))
    _, outside = compare.check_envelopes(entries, changes, others)
    assert len(outside) == 1 and ".growth_bound.value" in outside[0]


def test_an_unlisted_number_must_stay_identical(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*.rayleigh.upper", "allow": "any"}])
    changes, others = walk(compare, GROWTH, changed_growth(1.0 + 1e-15))
    _, outside = compare.check_envelopes(entries, changes, others)
    assert len(outside) == 1 and "allowed: identical" in outside[0]


def test_an_undeclared_flipped_verdict_fails(compare, tmp_path):
    # an envelope on the numbers does not cover the verdict they feed
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*", "allow": {"rel": 1.0}}])
    changes, others = walk(compare, GROWTH, changed_growth(1.5, passed=False))
    _, outside = compare.check_envelopes(entries, changes, others)
    assert len(outside) == 1 and outside[0].startswith("  .passed | true -> false")


def test_a_declared_flipped_verdict_is_counted(compare, tmp_path):
    entries = expectations(compare, tmp_path, [{"path": ".passed", "allow": "any"}])
    changes, others = walk(compare, GROWTH, {**GROWTH, "passed": False})
    usage, outside = compare.check_envelopes(entries, changes, others)
    assert outside == [] and usage[0].endswith("at .passed | 1 changes")


@pytest.mark.parametrize("entry", [
    {"path": ".passed"}, {"path": ".passed", "allow": "some"},
    {"path": ".passed", "allow": {"abs": "1e-9"}}, {"path": 1, "allow": "any"},
    {"path": ".passed", "allow": {"abs": 1.0, "rel": 1.0}}, ".passed",
])
def test_a_malformed_expectation_is_refused(compare, tmp_path, entry):
    with pytest.raises(ValueError, match="needs 'path'"):
        expectations(compare, tmp_path, [entry])


# -- invocation entries: changed exit codes, stderr and stdout -----------------


def outcome(code=0, stdout="", stderr="", report='{"passed": true}'):
    return {"code": code, "stdout": stdout, "stderr": stderr, "report": report}


JUXTAPOSED = ("analyze-juxtaposed-factors", outcome(0),
              outcome(2, stderr="error: expected an operator before 't' at position 1\n",
                      report=None))


def test_an_undeclared_exit_change_still_fails(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"invocation": "analyze-other", "exit": [0, 2]},
        {"invocation": "analyze-*", "exit": [1, 2]}])
    assert compare.absorb_invocation(entries, *JUXTAPOSED) == ["exit", "stderr", "report"]
    assert [e["used"] for e in entries if "used" in e] == []


def test_a_declared_exit_change_and_its_stderr_pass(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"invocation": "analyze-juxtaposed-*", "exit": [0, 2]},
        {"invocation": "analyze-juxtaposed-factors", "stderr": "before 't' at position 1$"}])
    assert compare.absorb_invocation(entries, *JUXTAPOSED) == []
    assert [e["used"] for e in entries] == [1, 1]
    assert compare.unused_entries(entries) == []


def test_a_stderr_entry_matches_the_working_trees_stderr_only(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"invocation": "*", "stderr": "at position None"}])
    base = outcome(2, stderr="error: expected integer exponent at position None\n", report=None)
    head = outcome(2, stderr="error: expected integer exponent at position 2\n", report=None)
    assert compare.absorb_invocation(entries, "analyze-truncated-exponent", base, head) == [
        "stderr"]
    entries[0]["entry"]["stderr"] = "exponent at position 2"
    assert compare.absorb_invocation(entries, "analyze-truncated-exponent", base, head) == []


FLIPPED_VALUE = ("certify-growth",
                 outcome(1, stdout="growth: FAIL (1 checked, 0 skipped)\n"
                                   "  violation: L((t)^2) = 1 > 0.25 -> 0.75\n"),
                 outcome(1, stdout="growth: FAIL (1 checked, 0 skipped)\n"
                                   "  violation: L((t)^2) = 1 > 0.25 -> -0.75\n"))


def test_a_stdout_entry_covers_a_changed_stdout_with_the_same_exit_code(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"invocation": "certify-*", "stdout": r"-> -0\.75$"}])
    assert compare.absorb_invocation(entries, *FLIPPED_VALUE) == []
    assert entries[0]["used"] == 1 and compare.unused_entries(entries) == []


def test_a_stdout_entry_whose_regex_does_not_match_fails(compare, tmp_path):
    # matched on the working tree's side only: the parent's value is no cover
    entries = expectations(compare, tmp_path, [
        {"invocation": "certify-*", "stdout": r"-> 0\.75$"}])
    assert compare.absorb_invocation(entries, *FLIPPED_VALUE) == ["stdout"]
    assert compare.unused_entries(entries) == [r'  stdout "-> 0\\.75$" at certify-*']


def test_an_unused_stdout_entry_fails(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"invocation": "certify-*", "stdout": "violation"}])
    assert compare.absorb_invocation(entries, *JUXTAPOSED) == ["exit", "stderr", "report"]
    assert compare.unused_entries(entries) == ['  stdout "violation" at certify-*']


def test_an_unused_entry_fails(compare, tmp_path):
    entries = expectations(compare, tmp_path, [
        {"path": ".results.polynomials.*.rayleigh.upper", "allow": {"rel": 1e-9}},
        {"invocation": "spectral#*", "exit": [0, 1]},
        {"path": ".passed", "allow": {"flip": [True, False]}}])
    changes, others = walk(compare, GROWTH, changed_growth(1.0 + 1e-12))
    usage, _ = compare.check_envelopes(entries, changes, others, {})
    assert compare.absorb_invocation(entries, *JUXTAPOSED) == ["exit", "stderr", "report"]
    assert compare.unused_entries(entries) == [
        "  rel 1e-09 at .results.polynomials.*.rayleigh.upper",
        '  exit [0, 1] at spectral#*',
        "  flip [true, false] at .passed"]
    assert usage[0].endswith("| 0 changes")


def flipped(compare, tmp_path, direction, base_passed, head_passed):
    entries = expectations(compare, tmp_path, [{"path": ".passed", "allow": {"flip": direction}}])
    changes, others, flips = {}, {}, {}
    assert compare._walk_changes({**GROWTH, "passed": base_passed},
                                 {**GROWTH, "passed": head_passed}, "", changes, others,
                                 flips) == 0
    usage, outside = compare.check_envelopes(entries, changes, others, flips)
    return entries[0]["used"], outside


def test_a_flip_in_the_declared_direction_is_absorbed(compare, tmp_path):
    assert flipped(compare, tmp_path, [True, False], True, False) == (1, [])


def test_a_flip_in_the_wrong_direction_fails(compare, tmp_path):
    used, outside = flipped(compare, tmp_path, [True, False], False, True)
    assert used == 0
    assert outside == ["  .passed | false -> true | 1 | allowed: flip [true, false]"]


@pytest.mark.parametrize("entry", [
    {"invocation": "x"}, {"invocation": "x", "exit": [0, 0]}, {"invocation": "x", "exit": 2},
    {"invocation": "x", "exit": [0, 2], "stderr": "e"}, {"invocation": 1, "stderr": "e"},
    {"invocation": "x", "stderr": "("}, {"invocation": "x", "stdout": "("},
    {"invocation": "x", "stdout": 1}, {"invocation": "x", "stdout": "e", "stderr": "e"},
    {"path": ".passed", "allow": {"flip": [True, True]}},
    {"path": ".passed", "allow": {"flip": ["true", "false"]}},
])
def test_a_malformed_invocation_or_flip_entry_is_refused(compare, tmp_path, entry):
    with pytest.raises(ValueError, match="needs '(path|invocation)'"):
        expectations(compare, tmp_path, [entry])


def test_median_interval_on_seeded_synthetic_ratios(compare):
    rng = np.random.default_rng(7)

    def intervals(centre, runs=200):
        """(median, low, high) of ``runs`` sets of 40 ratios, each ``centre``
        times a lognormal factor of 3% spread."""
        return [compare.median_interval(centre * np.exp(rng.normal(0.0, 0.03, 40)), rng, 1000)
                for _ in range(runs)]

    aa = intervals(1.0)
    assert all(low <= median <= high for median, low, high in aa)
    # A/A: the 95% interval holds 1.0 in about 95% of runs
    assert sum(low <= 1.0 <= high for _, low, high in aa) >= 180
    # a 5% change is flagged, in its direction, in every run at this spread
    assert all(high < 1.0 for _, _, high in intervals(0.95))
    assert all(low > 1.0 for _, low, _ in intervals(1.05))
    ratios = np.exp(rng.normal(0.0, 0.03, size=40))
    once = compare.median_interval(ratios, np.random.default_rng(3))
    assert once == compare.median_interval(ratios, np.random.default_rng(3))
    assert once[0] == float(np.median(ratios))
    few = compare.median_interval(ratios[:8], np.random.default_rng(3))
    assert few[2] - few[1] > once[2] - once[1]


def test_timing_runs_interleaved_on_a_workload(compare):
    # a smoke test of the machinery on two cycles; it does not gate on time
    result = compare.time_trees(PATH.parents[1] / "src", PATH.parents[1] / "src", "real_poly",
                                seed=11, cycles=2)
    assert result["cycles"] == 2 and len(result["ratios"]) == 2
    assert all(math.isfinite(r) and r > 0 for r in result["ratios"])
    low, high = result["interval"]
    assert low <= result["median_ratio"] <= high
    assert result["base_ms"] > 0 and result["head_ms"] > 0


#: appended to the ``cli.py`` of a copy of ``src``: after each invocation,
#: busy-wait for a twentieth of the time it took, so every cycle runs 5%
#: longer whatever the speed of the machine
DELAY = '''

_undelayed_main = main


def main(argv=None):
    import time

    start = time.perf_counter()
    try:
        return _undelayed_main(argv)
    finally:
        end = time.perf_counter()
        while time.perf_counter() < end + 0.05 * (end - start):
            pass
'''

#: cycles of the injected-delay test, on a shared 2-core VM: 20 and 30 each
#: missed the delay in some of 5 runs, and 40 held in 20 runs on their own
#: but missed it once in 3 runs of the whole suite; 60 held in 15 of 15, the
#: interval's low end at 1.022 or above, in about 10 s a run
DELAY_CYCLES = 60


def test_timing_flags_a_five_percent_delay(compare, tmp_path):
    src = PATH.parents[1] / "src"
    delayed = tmp_path / "src"
    shutil.copytree(src, delayed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(delayed / "momint" / "cli.py", "a", encoding="utf-8") as handle:
        handle.write(DELAY)
    result = compare.time_trees(src, delayed, "real_poly", seed=11, cycles=DELAY_CYCLES)
    assert result["interval"][0] > 1.0, result
