"""Malformed-document fuzz of the five commands.

Each fuzz document is a valid input document of one command with one field
mutated: a key deleted, a list entry duplicated, or a field set to one of
``VALUES``. Every run must end in exit 0 or 1 with empty stderr and a report
that strict JSON parses, or in exit 2 with exactly one ``error:`` line. It
never raises, warns or hangs: pytest turns warnings into errors, and a
per-document alarm turns a hang into a failure.

``fuzz_cases`` is seeded and imports nothing from momint, so other tools can
build the same corpus (``tools/compare.py`` runs it through two trees).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import signal
from pathlib import Path

import pytest

SEED = 20261018
#: fuzz documents per base run; 12 base runs give 1,260 documents
PER_BASE = 105
#: seconds one document may take before it counts as a hang
ALARM_S = 10

VALUES = [None, 0.0, -0.0, 1e308, 10**30, -(10**30), 2**70, math.nan, math.inf,
          -math.inf, "", [], {}, True]

ATOMS = [((0.5, -0.25), 0.5), ((-0.75, 0.5), 0.3), ((0.25, 0.75), 0.2)]
COMPLEX_ATOMS = [(0.5 + 0.25j, 0.6), (-0.3 + 0.6j, 0.4)]


def moment_document(max_degree: int) -> dict:
    """The 2-D moment document of ATOMS, summed atom by atom."""
    moments = []
    for total in range(max_degree + 1):
        for i in range(total, -1, -1):
            value = sum(w * x**i * y ** (total - i) for (x, y), w in ATOMS)
            moments.append({"index": [i, total - i], "value": value})
    return {"dimension": 2, "max_degree": max_degree, "moments": moments}


def complex_values_document(max_level: int) -> dict:
    """Every entry f(m, n) = sum w z^m conj(z)^n of COMPLEX_ATOMS."""
    values = []
    for m in range(max_level + 1):
        for n in range(max_level + 1):
            v = sum(w * z**m * z.conjugate() ** n for z, w in COMPLEX_ATOMS)
            values.append({"m": m, "n": n, "re": v.real, "im": v.imag})
    return {"max_level": max_level, "values": values}


CERTIFY_CONFIG = {
    "variables": ["x", "y"],
    "checks": [
        {"check": "products", "factors": [{"upper": "1 - x", "lower": "1 + x"},
                                          {"upper": "1 - y", "lower": "1 + y"}],
         "max_factors": 3},
        {"check": "cone", "a": "x", "b": "y", "jk_max": 2},
        {"check": "ball", "radius": 1.5, "order": 1, "coordinates": ["x", "y"]},
        {"check": "growth", "generators": [{"poly": "x*y", "bound": 1.0, "prefactor": 1.0}]},
        {"check": "weak_absolute_value", "entries": [{"poly": "x", "value": 1.0}],
         "functional_bound": 1.0, "tol": 1e-9},
        {"check": "schmudgen", "constraints": ["1 - x^2", "1 - y^2"], "order": 1},
        {"check": "interval", "entries": [{"poly": "y", "lower": -1.0, "upper": 1.0}],
         "order": 1},
    ],
}

#: every check with only its required keys, in the default variables x1, x2:
#: each optional key takes its check's default
CERTIFY_DEFAULTS = {
    "checks": [
        {"check": "products", "factors": [{"upper": "1 - x1", "lower": "1 + x1"}]},
        {"check": "cone", "a": "x1"},
        {"check": "ball", "radius": 1.5},
        {"check": "growth", "generators": [{"poly": "x1*x2", "bound": 1.0}]},
        {"check": "weak_absolute_value", "entries": [{"poly": "x1", "value": 1.0}],
         "functional_bound": 1.0},
        {"check": "schmudgen", "constraints": ["1 - x1^2", "1 - x2^2"]},
        {"check": "interval", "entries": [{"poly": "x2", "lower": -1.0, "upper": 1.0}]},
    ],
}

#: (name, files, argv): ``{file}`` in argv names a file, ``{out}`` the report
BASES = [
    ("oracle-atoms",
     {"measure": {"atoms": [{"point": list(p), "weight": w} for p, w in ATOMS]}},
     ["oracle", "{measure}", "--degree", "6", "--out", "{out}", "--quiet"]),
    ("oracle-box",
     {"measure": {"box": {"bounds": [[-1.0, 0.5], [0.0, 2.0]], "order": 4}}},
     ["oracle", "{measure}", "--degree", "6", "--out", "{out}", "--quiet"]),
    ("analyze", {"moments": moment_document(6)},
     ["analyze", "{moments}", "--out", "{out}", "--quiet"]),
    ("analyze-poly", {"moments": moment_document(4)},
     ["analyze", "{moments}", "--poly", "x1*x2 - 0.5", "--order", "1", "--out", "{out}",
      "--quiet"]),
    ("certify-moments", {"moments": moment_document(6), "config": CERTIFY_CONFIG},
     ["certify", "{moments}", "{config}", "--out", "{out}", "--quiet"]),
    ("certify-config", {"config": CERTIFY_CONFIG, "moments": moment_document(6)},
     ["certify", "{moments}", "{config}", "--out", "{out}", "--quiet"]),
    ("certify-products",
     {"config": {"variables": ["x", "y"], "checks": [CERTIFY_CONFIG["checks"][0]]},
      "moments": moment_document(6)},
     ["certify", "{moments}", "{config}", "--out", "{out}", "--quiet"]),
    ("certify-cone",
     {"config": {"variables": ["x", "y"], "checks": [CERTIFY_CONFIG["checks"][1]]},
      "moments": moment_document(6)},
     ["certify", "{moments}", "{config}", "--out", "{out}", "--quiet"]),
    ("certify-defaults", {"config": CERTIFY_DEFAULTS, "moments": moment_document(6)},
     ["certify", "{moments}", "{config}", "--out", "{out}", "--quiet"]),
    ("spectral",
     {"operator": {"matrix": [[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 3.0]],
                   "vector": [1.0, 0.5, -0.25]}},
     ["spectral", "{operator}", "--out", "{out}", "--quiet"]),
    ("spectral-nodes",
     {"operator": {"matrix": [[0.0, 1.0], [1.0, 0.0]], "vector": [1.0, 0.0]}},
     ["spectral", "{operator}", "--nodes", "1", "--out", "{out}", "--quiet"]),
    ("disc-atoms",
     {"moments": {"max_level": 4, "atoms": [{"re": z.real, "im": z.imag, "weight": w}
                                            for z, w in COMPLEX_ATOMS]}},
     ["disc", "{moments}", "--radius", "1.5", "--constant", "3", "--out", "{out}", "--quiet"]),
    ("disc-values", {"moments": complex_values_document(2)},
     ["disc", "{moments}", "--radius", "1", "--constant", "2", "--out", "{out}", "--quiet"]),
]


def _paths(node, prefix=()):
    """Every path (tuple of keys and indices) to a value inside ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


def mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one field mutated, and a label saying how."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    ops = ["delete", "set"] + (["duplicate"] if isinstance(parent, list) else [])
    op = rng.choice(ops)
    label = "/".join(map(str, path))
    if op == "delete":
        del parent[key]
        return doc, f"delete {label}"
    if op == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
        return doc, f"duplicate {label}"
    value = rng.choice(VALUES)
    parent[key] = copy.deepcopy(value)
    return doc, f"set {label} = {value!r}"


def fuzz_cases() -> list:
    """(name, files, argv) of the seeded fuzz documents: the first file of
    each base run mutated PER_BASE times."""
    cases = []
    for base, files, argv in BASES:
        rng = random.Random(f"{SEED}:{base}")
        target = next(iter(files))
        for i in range(PER_BASE):
            doc, how = mutate(files[target], rng)
            cases.append((f"{base}#{i} {how}", {**files, target: doc}, argv))
    return cases


def _tiny_atoms_table() -> dict:
    return {"dimension": 1, "max_degree": 4, "moments": [
        {"index": [k], "value": v} for k, v in enumerate([1.0, 0.0, 1e200, 0.0, 1e300])]}


def _unit_table() -> dict:
    """Uniform on [0, 1] through degree 8."""
    return {"dimension": 1, "max_degree": 8,
            "moments": [{"index": [k], "value": 1.0 / (k + 1)} for k in range(9)]}


def _certify(config: dict, *options: str) -> tuple:
    return {"moments": _unit_table(), "config": config}, [
        "certify", "{moments}", "{config}", *options, "--out", "{out}", "--quiet"]


def _disc_level_12(*options: str) -> tuple:
    return {"moments": {"max_level": 12, "atoms": [{"re": 0.5, "im": 0.1, "weight": 1.0}]}}, [
        "disc", "{moments}", *options, "--quiet"]


#: growth of t over uniform[0, 1] against the bound 0.1: a failing check
_GROWTH_FAILS = {"checks": [{"check": "growth", "generators": [{"poly": "t", "bound": 0.1}]}]}


def _ball(**fields) -> tuple:
    return _certify({"checks": [{"check": "ball", "radius": 1.5, **fields}]})


#: each kind without a required key, and each entry object without one
_MISSING = [
    ("products", {"max_factors": 2}, "products check needs 'factors'"),
    ("cone", {"b": "t"}, "cone check needs 'a'"),
    ("ball", {"order": 1}, "ball check needs 'radius'"),
    ("growth", {}, "growth check needs 'generators'"),
    ("weak_absolute_value", {"entries": [{"poly": "t", "value": 1}]},
     "weak_absolute_value check needs 'functional_bound'"),
    ("weak_absolute_value", {"functional_bound": 1}, "weak_absolute_value check needs 'entries'"),
    ("schmudgen", {"order": 1}, "schmudgen check needs 'constraints'"),
    ("interval", {"order": 1}, "interval check needs 'entries'"),
    ("products", {"factors": [{"upper": "1 - t"}]}, "factors entry needs 'lower'"),
    ("growth", {"generators": [{"poly": "t"}]}, "generators entry needs 'bound'"),
    ("interval", {"entries": [{"poly": "t", "upper": 1}]}, "entries entry needs 'lower'"),
]

#: (name, files, argv, exit code, text in the error line or the report)
FIXED = [
    # an overflowing localized matrix is a field's error; the PSD verdict passes
    ("analyze-growth-overflow", {"moments": _tiny_atoms_table()},
     ["analyze", "{moments}", "--poly", "1e200*t", "--out", "{out}", "--quiet"], 0,
     '"rayleigh": {"error": "matrix has non-finite entries"}'),
    ("analyze-matrix-overflow", {"moments": _tiny_atoms_table()},
     ["analyze", "{moments}", "--poly", "1e300*t^4", "--out", "{out}", "--quiet"], 0,
     '"rayleigh": {"error": "matrix has non-finite entries"}'),
    ("disc-saturated-limits",
     {"moments": {"max_level": 12, "atoms": [{"re": 0.5, "im": 0.1, "weight": 1.0}]}},
     ["disc", "{moments}", "--radius", "1e30", "--constant", "1", "--out", "{out}", "--quiet"],
     0, '"limit": null'),
    ("cone-unknown-key", *_certify({"checks": [{"check": "cone", "a": "t", "jkmax": 1}]}), 2,
     "unknown key 'jkmax' in cone check"),
    ("products-unknown-key", *_certify({"checks": [
        {"check": "products", "factors": [{"upper": "1 - t", "lower": "t"}], "max_factor": 2}]}),
     2, "unknown key 'max_factor' in products check"),
    ("products-order", *_certify({"checks": [
        {"check": "products", "factors": [{"upper": "1 - t", "lower": "t"}], "order": 2}]}),
     2, "unknown key 'order' in products check"),
    ("factor-unknown-key", *_certify({"checks": [
        {"check": "products", "factors": [{"upper": "1 - t", "lowr": "t"}]}]}),
     2, "unknown key 'lowr' in factors entry"),
    ("config-unknown-key", *_certify({"checks": [{"check": "cone", "a": "t"}], "tol": 1}),
     2, "unknown key 'tol' in check configuration"),
    ("products-huge-cap", *_certify({"checks": [
        {"check": "products", "factors": [{"upper": "1 - t", "lower": "t"}],
         "max_factors": 10**30}]}), 0, '"attempted": 44'),
    ("cone-huge-jk-max", *_certify({"checks": [{"check": "cone", "a": "t", "jk_max": 10**30}]}),
     1, '"attempted": 72'),
    ("spectral-huge-vector",
     {"operator": {"matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
                   "vector": [1e308, 1.0, 0.5]}},
     ["spectral", "{operator}", "--out", "{out}", "--quiet"], 0, '"nodes": [1.0]'),
    ("spectral-tiny-vector",
     {"operator": {"matrix": [[1.0, 0.0], [0.0, 2.0]], "vector": [1e-200, 1e-200]}},
     ["spectral", "{operator}", "--out", "{out}", "--quiet"], 0, '"passed": true'),
    # a configuration number that is not finite is refused where it is read
    ("growth-nan-bound", *_certify({"checks": [
        {"check": "growth", "generators": [{"poly": "t", "bound": math.nan}]}]}),
     2, "bound must be finite, got nan"),
    ("growth-infinite-bound", *_certify({"checks": [
        {"check": "growth", "generators": [{"poly": "t", "bound": math.inf}]}]}),
     2, "bound must be finite, got inf"),
    ("growth-infinite-prefactor", *_certify({"checks": [
        {"check": "growth", "generators": [{"poly": "t", "bound": 1, "prefactor": math.inf}]}]}),
     2, "prefactor must be finite, got inf"),
    ("weak-absolute-infinite-value", *_certify({"checks": [
        {"check": "weak_absolute_value", "entries": [{"poly": "t", "value": math.inf}],
         "functional_bound": 1}]}), 2, "value must be finite, got inf"),
    ("weak-absolute-infinite-functional-bound", *_certify({"checks": [
        {"check": "weak_absolute_value", "entries": [{"poly": "t", "value": 1}],
         "functional_bound": math.inf}]}), 2, "functional_bound must be finite, got inf"),
    ("ball-infinite-radius", *_certify({"checks": [{"check": "ball", "radius": math.inf}]}),
     2, "radius must be finite, got inf"),
    ("interval-nan-lower", *_certify({"checks": [
        {"check": "interval", "entries": [{"poly": "t", "lower": math.nan, "upper": 1}]}]}),
     2, "lower must be finite, got nan"),
    ("interval-infinite-upper", *_certify({"checks": [
        {"check": "interval", "entries": [{"poly": "t", "lower": 0, "upper": math.inf}]}]}),
     2, "upper must be finite, got inf"),
    ("config-nan-tol", *_certify({"checks": [{**_GROWTH_FAILS["checks"][0], "tol": math.nan}]}),
     2, "tol must be finite, got nan"),
    # a present tol is read like every present key: null is no way back to the default
    ("config-null-tol",
     {"moments": {"dimension": 1, "max_degree": 4, "moments": [
         {"index": [k], "value": v} for k, v in enumerate([1.0, 0.0, 1.0, 0.0, 1.0])]},
      "config": {"checks": [{"check": "growth", "generators": [{"poly": "t", "bound": 0.99}],
                             "tol": None}]}},
     ["certify", "{moments}", "{config}", "--tol", "0.5", "--out", "{out}", "--quiet"], 2,
     "tol must be a number, got None"),
    ("disc-nan-constant",
     {"moments": {"max_level": 4, "atoms": [{"re": 0.5, "im": 0.1, "weight": 1.0}]}},
     ["disc", "{moments}", "--radius", "1", "--constant", "nan", "--quiet"], 2,
     "must be positive"),
    ("oracle-atom-overflow", {"measure": {"atoms": [{"point": [1e308], "weight": 1.0}]}},
     ["oracle", "{measure}", "--degree", "4", "--out", "{out}", "--quiet"], 2, "overflow"),
    ("oracle-infinite-box",
     {"measure": {"box": {"bounds": [[0.0, math.inf]], "order": 5}}},
     ["oracle", "{measure}", "--degree", "4", "--out", "{out}", "--quiet"], 2, "not finite"),
    ("oracle-infinite-weight",
     {"measure": {"atoms": [{"point": [0.5], "weight": math.inf}]}},
     ["oracle", "{measure}", "--degree", "4", "--out", "{out}", "--quiet"], 2, "not finite"),
    # a letter of degree 0 fits the degree budget at any length
    ("products-constant-side", *_certify({"checks": [
        {"check": "products", "factors": [{"upper": "2", "lower": "t"}],
         "max_factors": 10**30}]}), 2, "factor 1 upper side must have positive degree"),
    ("cone-constant-a", *_certify({"checks": [{"check": "cone", "a": "1"}]}), 2,
     "cone a must have positive degree"),
    # b = 1 makes the prefactor zero: its C(J + 2, 2) members count as
    # attempted without being formed, beside the 44 plain members that fit
    ("cone-zero-prefactor-huge-jk-max",
     *_certify({"checks": [{"check": "cone", "a": "t", "b": "1", "jk_max": 10**30}]}), 1,
     f'"attempted": {math.comb(10**30 + 2, 2) + 44}'),
    ("cone-negative-jk-max", *_certify({"checks": [{"check": "cone", "a": "t", "jk_max": -1}]}),
     2, "jk_max must be >= 0"),
    ("certify-infinite-tol", *_certify(_GROWTH_FAILS, "--tol", "inf"), 2,
     "--tol must be finite"),
    ("config-infinite-tol", *_certify({"checks": [{**_GROWTH_FAILS["checks"][0],
                                                   "tol": math.inf}]}), 2, "tol must be finite"),
    ("analyze-infinite-tol",
     {"moments": {"dimension": 1, "max_degree": 4, "moments": [
         {"index": [k], "value": v} for k, v in enumerate([1.0, 0.0, -1.0, 0.0, 1.0])]}},
     ["analyze", "{moments}", "--tol", "inf", "--out", "{out}", "--quiet"], 2,
     "--tol must be finite"),
    ("disc-infinite-radius", *_disc_level_12("--radius", "inf", "--constant", "1", "--out",
                                             "{out}"), 2, "--radius must be finite"),
    ("disc-infinite-radius-no-out", *_disc_level_12("--radius", "inf", "--constant", "1"), 2,
     "--radius must be finite"),
    ("disc-infinite-constant", *_disc_level_12("--radius", "1", "--constant", "inf", "--out",
                                               "{out}"), 2, "--constant must be finite"),
    # polynomial text: adjacent factors are no sum, and end-of-text errors name a position
    ("analyze-juxtaposed-factors", {"moments": _unit_table()},
     ["analyze", "{moments}", "--poly", "2t", "--out", "{out}", "--quiet"], 2,
     "error: expected an operator before 't' at position 1"),
    ("analyze-truncated-exponent", {"moments": _unit_table()},
     ["analyze", "{moments}", "--poly", "t^", "--out", "{out}", "--quiet"], 2,
     "error: expected integer exponent at position 2"),
    # argparse's own errors are one error line too, with no usage block
    ("certify-tol-not-a-number", *_certify(_GROWTH_FAILS, "--tol", "abc"), 2,
     "argument --tol: invalid float value: 'abc'"),
    ("disc-missing-radius", *_disc_level_12("--constant", "1"), 2,
     "the following arguments are required: --radius"),
    # argparse reads -inf as an option, not as a negative number
    ("disc-negative-infinite-radius", *_disc_level_12("--radius", "-inf", "--constant", "1"), 2,
     "argument --radius: expected one argument"),
    # the command word selects the parser that is built
    ("unknown-command", {}, ["frobnicate"], 2, "invalid choice: 'frobnicate'"),
    ("no-command", {}, [], 2, "the following arguments are required: command"),
    ("disc-unrecognized-option",
     *_disc_level_12("--radius", "1", "--constant", "1", "--bogus"), 2,
     "unrecognized arguments: --bogus"),
    ("disc-abbreviated-options",
     *_disc_level_12("--rad", "1.5", "--const", "2", "--out", "{out}"), 0, '"radius": 1.5'),
    ("disc-option-equals-value",
     *_disc_level_12("--radius=1.5", "--constant", "2", "--out", "{out}"), 0, '"radius": 1.5'),
    # a present key is read, whatever its value: a falsy one is no default
    *[(f"ball-coordinates-{value!r}", *_ball(coordinates=value), 2,
       "coordinates must be a list of strings") for value in ({}, 0, "", False)],
    ("ball-coordinates-empty", *_ball(coordinates=[]), 2, "coordinate list is empty"),
    ("growth-generators-empty", *_certify({"checks": [{"check": "growth", "generators": []}]}),
     2, "generator list is empty"),
    ("interval-entries-empty", *_certify({"checks": [{"check": "interval", "entries": []}]}),
     2, "entry list is empty"),
    ("weak-absolute-value-entries-empty", *_certify({"checks": [
        {"check": "weak_absolute_value", "entries": [], "functional_bound": 1.0}]}),
     2, "entry list is empty"),
    ("config-variables-zero", *_certify({"variables": 0, "checks": _GROWTH_FAILS["checks"]}), 2,
     "variables must be a list of strings"),
    *[(f"missing-key: {message}", *_certify({"checks": [
        {"check": kind, **fields}]}), 2, message) for kind, fields, message in _MISSING],
    ("check-kind-object", *_certify({"checks": [{"check": {}}]}), 2, "unknown check kind {}"),
    ("oracle-atom-without-weight", {"measure": {"atoms": [{"point": [0.5]}]}},
     ["oracle", "{measure}", "--degree", "4", "--out", "{out}", "--quiet"], 2,
     "malformed measure document: 'weight'"),
    ("oracle-box-without-bounds", {"measure": {"box": {"order": 4}}},
     ["oracle", "{measure}", "--degree", "4", "--out", "{out}", "--quiet"], 2,
     "malformed measure document: 'bounds'"),
    ("analyze-duplicate-vars", {"moments": moment_document(4)},
     ["analyze", "{moments}", "--vars", "x,x", "--out", "{out}", "--quiet"], 2,
     "duplicate variable names"),
    ("disc-clamped-diagonal", {"moments": {"max_level": 2, "values": [
        {"m": m, "n": n, "re": {(0, 0): 1.0, (1, 1): -0.5}.get((m, n), 0.0), "im": 0.0}
        for m in range(3) for n in range(3)]}},
     ["disc", "{moments}", "--radius", "1", "--constant", "1", "--out", "{out}", "--quiet"], 1,
     '"clamped": true'),
]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def materialize(files: dict, argv: list, where: Path) -> tuple[list, Path]:
    """Write ``files`` under ``where`` and fill the argv template."""
    names = {"out": str(where / "report.json")}
    for name, doc in files.items():
        path = where / f"{name}.json"
        path.write_text(json.dumps(doc))
        names[name] = str(path)
    return [arg.format(**names) for arg in argv], where / "report.json"


class Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise Hang(f"no exit within {ALARM_S} s")


def run_case(files: dict, argv: list, where: Path) -> tuple[int, str, str, str | None]:
    """(exit code, stdout, stderr, report text or None) of one in-process run,
    interrupted by ALARM_S."""
    from momint.cli import main

    where.mkdir(parents=True, exist_ok=True)
    args, out = materialize(files, argv, where)
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    report = out.read_text() if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), report


def contract_breach(code: int, stderr: str, report: str | None) -> str | None:
    """Why one run breaks the exit contract, or None."""
    if code in (0, 1):
        if stderr:
            return f"exit {code} with stderr {stderr!r}"
        if report is None:
            return f"exit {code} without a report"
        try:
            strict_json(report)
        except ValueError as exc:
            return f"exit {code} with a report that is not strict JSON: {exc}"
        return None
    lines = stderr.splitlines()
    if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
        return f"exit {code} with stderr {stderr!r}"
    return None


@pytest.mark.parametrize("base", [name for name, _, _ in BASES])
def test_mutated_documents_keep_the_exit_contract(tmp_path, base):
    breaches = []
    cases = [case for case in fuzz_cases() if case[0].split("#")[0] == base]
    assert len(cases) == PER_BASE
    for i, (name, files, argv) in enumerate(cases):
        try:
            code, _, stderr, report = run_case(files, argv, tmp_path / str(i))
        except Exception as exc:  # a traceback, a warning or a hang
            breaches.append(f"{name}: raised {exc!r}")
            continue
        breach = contract_breach(code, stderr, report)
        if breach:
            breaches.append(f"{name}: {breach}")
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("base, files, argv", BASES, ids=[name for name, _, _ in BASES])
def test_base_documents_are_valid(tmp_path, base, files, argv):
    code, _, stderr, report = run_case(files, argv, tmp_path)
    assert code in (0, 1) and contract_breach(code, stderr, report) is None


def test_fuzz_corpus_is_seeded_and_large():
    cases = fuzz_cases()
    assert len(cases) >= 1200
    assert [name for name, _, _ in cases] == [name for name, _, _ in fuzz_cases()]


@pytest.mark.parametrize("name, files, argv, code, text", FIXED, ids=[c[0] for c in FIXED])
def test_fixed_documents(tmp_path, name, files, argv, code, text):
    got, stdout, stderr, report = run_case(files, argv, tmp_path)
    assert got == code, stderr
    assert contract_breach(got, stderr, report) is None
    if code == 2:
        assert text in stderr
    else:
        assert text in report

