#!/usr/bin/env python3
"""Run one seeded corpus through two trees and diff every invocation.

Usage (from anywhere inside the repository):

    python tools/compare.py --base REF
    python tools/compare.py --base REF --time WORKLOAD [--cycles N] [--seed S]

REF (any git revision, such as ``HEAD`` or a commit id) has its ``src``
extracted with ``git archive`` into a temporary directory; the other side is
the working tree that holds this script, uncommitted edits included. One
corpus is generated once from the working tree:

* ``perfbench/workloads.build`` for all three workloads, seeds 5 and 6,
  12 cycles each;
* random atom tables for ``analyze``, listed in ``itertools.product``
  order as ``perfbench`` lists its signed tables, so that ``from_text``
  ranks their entries through its map from entry text to rank: signed,
  zero-mass, with ``--order`` and ``--tol``, and with polynomials beyond the
  degree budget;
* one ``certify`` run per check kind, one of every kind with only its
  required keys (``CERTIFY_DEFAULTS``), and five runs of the products and
  cone semiring: on a degree-16 table a pair whose sides do not sum to a
  constant, the whole box semiring in d=2 (``max_factors`` 16) and a cone
  with ``jk_max`` 8; a pair of degree 5 on a degree-8 table and a cone with
  a quartic prefactor on a degree-6 table, whose products have a half of
  degree above n_max;
* random ``spectral`` operators of orders 1-16 and scales 1e-3 to 1e1, some
  with ``--nodes``, some with half-zero start vectors, and operators whose
  Krylov space ends early: a repeated eigenvalue, or a start vector
  orthogonal to some eigenvectors;
* group ``layouts``: 12 valid atom tables written in layouts that
  ``from_text`` leaves to ``json`` and the pair reader (``LAYOUTS``), each
  through ``analyze`` and ``certify``, drawn after every other input so that
  none of those moves;

each invocation as given and again with ``--quiet`` toggled, and then the
malformed documents of ``tests/test_fuzz_cli.py``: the seeded mutations
(group ``fuzz``) and the fixed cases (group ``fixed``).

Each tree runs the corpus in its own subprocess, in process through its own
``momint.cli.main``, in its own copy of the corpus directory, so report
paths are the same relative paths on both sides. For every invocation the
report bytes, stdout, stderr and exit code are compared. The summary gives
the number of differing invocations per group, and for changed numbers in
the reports the largest absolute and relative change per JSON path (list
indices collapsed to ``[]``). Every other change (a string, bool or null, a
key or violation on one side only, a list whose length changed) is counted
per JSON path with its first ``base -> head`` example. Entries of a
``violations`` list are paired by ``description``, not by position, and a
list that differs only in order is counted as reordered. Exit status 1 on
any difference, else 0.

With ``--expect FILE`` the change is checked against declared entries
instead. FILE is a JSON list of entries of two kinds:

* ``{"path": PATTERN, "allow": ALLOWANCE}``: PATTERN is a collapsed JSON
  path of the reports in which ``*`` matches any text, and the first entry
  that matches a path applies to it. ALLOWANCE is ``"identical"``,
  ``{"abs": x}`` or ``{"rel": x}`` (the largest change of a number at the
  path), ``{"flip": [OLD, NEW]}`` (booleans that change from OLD to NEW,
  such as a verdict at ``.passed``; a change the other way fails) or
  ``"any"`` (any change, strings and bools included). An ``abs`` or
  ``rel`` entry covers numbers only: a string, bool or null, or a key on
  one side only, at its path takes the next entry that matches. A number
  beyond an ``abs`` or ``rel`` entry takes the next ``abs`` or ``rel``
  entry that matches its path and holds it, never an ``"any"`` one;
* ``{"invocation": PATTERN, "exit": [OLD, NEW]}``, ``{"invocation":
  PATTERN, "stderr": REGEX}`` or ``{"invocation": PATTERN, "stdout":
  REGEX}``: PATTERN is an invocation name in which ``*`` matches any text.
  An ``exit`` entry covers an exit code that changes from OLD to NEW,
  together with the stdout of that invocation and a report that only one
  side writes; a ``stderr`` or ``stdout`` entry covers a changed stderr or
  stdout that REGEX matches (``re.search``) on the working tree's side, such
  as the violation values that a non-quiet ``certify`` prints.

Every exit code, stdout and stderr that no entry covers, every string, bool
or null, every number at an unlisted path and the order of every violations
list must stay identical. The summary prints how much each entry absorbed:
changed values for a path entry, invocations for an invocation entry. An
entry that absorbs nothing fails, so that no entry outlives the change it
declares. Exit status 0 only when every difference fits and every entry is
used.

With ``--time WORKLOAD`` the two trees are timed instead, interleaved, on one
perfbench workload (``real_psd``, ``real_poly`` or ``operator_disc``). Each
tree gets one worker process, which puts its tree's ``src`` first on its path,
builds ``workloads.build(WORKLOAD, S, N, dir)`` from the working tree's
``perfbench/workloads.py`` (seed 11 and 40 cycles unless given) and runs
every cycle once to warm up. Then, cycle by cycle, the driver asks the two
workers in turn, in an order drawn at random per cycle, to run cycle i
REPEATS times in process through their own ``momint.cli.main``; a cycle's
time is the minimum of its runs. The summary gives each tree's median cycle
time and the median of the per-cycle ratios working tree / REF with a
bootstrap 95% interval. The last line of standard output is the same as one
JSON object. Only one worker runs at a time, so the trees never compete for
the cores. This resolves what the perfbench pairs cannot; it replaces
neither them nor a ``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEEDS = (5, 6)
WORKLOAD_CYCLES = 12
CORPUS_SEED = 20261018
#: seconds one invocation may run before it is recorded as a hang
ALARM_S = 3
#: rows of each per-path change table
CHANGE_ROWS = 25
#: characters of one example value in the non-numeric change table
EXAMPLE_CHARS = 60
#: the example value of a key or violation that one side lacks
ABSENT = "<absent>"
#: defaults of ``--time``: the perfbench seed of the claims, and cycles
TIME_SEED = 11
TIME_CYCLES = 40
#: runs of one cycle per request; the cycle's time is their minimum
REPEATS = 5
#: resamples of the bootstrap interval, and the seed of it and of the order
BOOTSTRAP_RESAMPLES = 4000
TIME_RNG_SEED = 20261020


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: str, doc, dumps=json.dumps) -> str:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(dumps(doc))
    return path


def _toggle_quiet(argv: list) -> list:
    return [a for a in argv if a != "--quiet"] if "--quiet" in argv else argv + ["--quiet"]


def _out_of(argv: list):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _moment_document(points: np.ndarray, weights: np.ndarray, max_degree: int) -> dict:
    """The moments of sum_i w_i delta(x_i), summed atom by atom with numpy
    and listed as ``perfbench/workloads.raw_moments`` lists them, in
    ``itertools.product`` order, not in graded-lex order."""
    import workloads

    moments = workloads.raw_moments(points, weights, max_degree)
    return {"dimension": points.shape[1], "max_degree": max_degree,
            "moments": [{"index": list(e), "value": v} for e, v in moments.items()]}


def _analyze_runs(rng) -> list:
    """320 analyze invocations on random atom tables of dimension 1-3."""
    runs = []
    for i in range(320):
        d = 1 + i % 3
        degree = (4, 6, 8)[(i // 3) % 3]
        k = int(rng.integers(1, 5))
        points = rng.uniform(-2.0, 2.0, (k, d))
        weights = rng.uniform(0.2, 1.5, k)
        if i % 5 == 1:
            weights[0] = -weights[0]
        elif i % 5 == 2:
            weights[-1] = -float(np.sum(weights[:-1])) if k > 1 else 0.0
        path = _write(f"analyze/{i}.json", _moment_document(points, weights, degree))
        names = ["t"] if d == 1 else [f"x{j + 1}" for j in range(d)]
        argv = ["analyze", path]
        if i % 4:
            polys = [names[0], f"{names[-1]} - 0.5", f"{names[0]}^{degree // 2 + 1}"]
            if d > 1:
                polys.append(f"{names[0]}*{names[1]} + 0.25")
            for text in polys[: 1 + i % len(polys)]:
                argv += ["--poly", text]
        if i % 3 == 1:
            argv += ["--order", str(int(rng.integers(0, 6)))]
        if i % 7 == 3:
            argv += ["--tol", ("0", "1e-6", "0.5")[i % 3]]
        runs.append((f"analyze#{i}", argv + ["--out", f"analyze/{i}.report.json"]))
    return runs


#: (name, table degree, check) of the semiring runs. On the degree-16 table
#: the atom at x = -0.75 lies outside 0.6 -+ x, and the truncated growth
#: bound of x lies below max |x|, so every report carries violations. The
#: last two have halves of degree above n_max: the pair 0.5 -+ x^5 on a
#: degree-8 table (the atom at y = 0.75 lies outside 0.6 -+ y), and a cone
#: whose prefactor cb^2 - b^2 has degree 4 on a degree-6 table
SEMIRING_CHECKS = [
    ("products-non-constant-sum", 16,
     {"check": "products", "factors": [{"upper": "x", "lower": "1 - x^2"},
                                       {"upper": "0.6 - x", "lower": "0.6 + x"}],
      "max_factors": 6}),
    ("products-cap-16", 16,
     {"check": "products", "factors": [{"upper": "0.6 - x", "lower": "0.6 + x"},
                                       {"upper": "1 - y", "lower": "1 + y"}],
      "max_factors": 16}),
    ("cone-jk-max-8", 16, {"check": "cone", "a": "x", "b": "y", "jk_max": 8}),
    ("products-tall-pair", 8,
     {"check": "products", "factors": [{"upper": "0.5 - x^5", "lower": "0.5 + x^5"},
                                       {"upper": "0.6 - y", "lower": "0.6 + y"}],
      "max_factors": 4}),
    ("cone-tall-prefactor", 6, {"check": "cone", "a": "x", "b": "x*y + y^2", "jk_max": 4}),
]


def _certify_runs(fuzz) -> list:
    """One certify invocation per check kind, one of them all, and one of
    them all with only their required keys, on the fuzz module's degree-6
    table; then the semiring runs on tables of the fuzz module's atoms."""
    moments = _write("certify/moments.json", fuzz.moment_document(6))
    runs = []
    for name, doc in (("all", fuzz.CERTIFY_CONFIG), ("defaults", fuzz.CERTIFY_DEFAULTS)):
        config = _write(f"certify/{name}.json", doc)
        runs.append((f"certify#{name}",
                     ["certify", moments, config, "--out", f"certify/{name}.report.json"]))
    for check in fuzz.CERTIFY_CONFIG["checks"]:
        kind = check["check"]
        config = _write(f"certify/{kind}.json",
                        {"variables": fuzz.CERTIFY_CONFIG["variables"], "checks": [check]})
        runs.append((f"certify#{kind}",
                     ["certify", moments, config, "--out", f"certify/{kind}.report.json"]))
    for name, degree, check in SEMIRING_CHECKS:
        moments = _write(f"certify/moments{degree}.json", fuzz.moment_document(degree))
        config = _write(f"certify/{name}.json",
                        {"variables": fuzz.CERTIFY_CONFIG["variables"], "checks": [check]})
        runs.append((f"certify#{name}",
                     ["certify", moments, config, "--out", f"certify/{name}.report.json"]))
    return runs


def _spectral_runs(rng) -> list:
    """200 spectral invocations on random symmetric operators, then 24 on
    operators whose Krylov space from h is short: a repeated eigenvalue, or
    h orthogonal to some eigenvectors."""
    runs = []
    for i in range(200):
        n = 1 + i % 16
        raw = rng.normal(size=(n, n))
        matrix = 0.5 * (raw + raw.T) * 10.0 ** rng.uniform(-3.0, 1.0)
        vector = rng.normal(size=n)
        if i % 4 == 1:
            vector[: n // 2] = 0.0
        path = _write(f"spectral/{i}.json", {"matrix": matrix.tolist(), "vector": vector.tolist()})
        argv = ["spectral", path]
        if i % 3 == 2:
            argv += ["--nodes", str(int(rng.integers(1, n + 1)))]
        runs.append((f"spectral#{i}", argv + ["--out", f"spectral/{i}.report.json"]))
    for i in range(200, 224):
        n = 2 + i % 15
        eigenvalues = rng.uniform(-3.0, 3.0, n)
        vector = rng.normal(size=n)
        if i % 2:
            eigenvalues[: n // 2 + 1] = eigenvalues[0]
        else:
            vector[: n // 2] = 0.0
        rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
        matrix = rotation * eigenvalues @ rotation.T
        path = _write(f"spectral/{i}.json",
                      {"matrix": matrix.tolist(), "vector": (rotation @ vector).tolist()})
        runs.append((f"spectral#{i}", ["spectral", path, "--out", f"spectral/{i}.report.json"]))
    return runs


#: writers of a moment document in layouts that ``MomentSequence.from_text``
#: leaves to ``json``: indented, compact, with its keys in another order,
#: with its integral values as JSON ints, and with one value as a string
LAYOUTS = {
    "indent": lambda doc: json.dumps(doc, indent=1),
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "reordered-keys": lambda doc: json.dumps({
        "moments": [{"value": m["value"], "index": m["index"]} for m in doc["moments"]],
        "max_degree": doc["max_degree"], "dimension": doc["dimension"]}),
    "integral-ints": lambda doc: json.dumps({**doc, "moments": [
        {**m, "value": int(m["value"]) if m["value"].is_integer() else m["value"]}
        for m in doc["moments"]]}),
    "string-value": lambda doc: json.dumps({**doc, "moments": [
        {**m, "value": "0.5"} if i == 1 else m for i, m in enumerate(doc["moments"])]}),
}


def _layout_runs(rng) -> list:
    """12 valid atom tables of dimension 1-3, written in the layouts of
    LAYOUTS in turn, each through analyze and certify. The tables written
    with integral values have integral atoms and weights."""
    runs = []
    for i in range(12):
        d, degree, layout = 1 + i % 3, (6, 8)[i % 2], list(LAYOUTS)[i % len(LAYOUTS)]
        k = int(rng.integers(1, 5))
        if layout == "integral-ints":
            points = rng.integers(-2, 3, (k, d)).astype(float)
            weights = rng.integers(1, 4, k).astype(float)
        else:
            points = rng.uniform(-2.0, 2.0, (k, d))
            weights = rng.uniform(0.2, 1.5, k)
        path = _write(f"layouts/{i}.json", _moment_document(points, weights, degree),
                      LAYOUTS[layout])
        names = ["t"] if d == 1 else [f"x{j + 1}" for j in range(d)]
        config = _write(f"layouts/{i}.config.json", {"variables": names, "checks": [
            {"check": "products", "factors": [{"upper": f"2 - {names[0]}",
                                               "lower": f"2 + {names[0]}"}]},
            {"check": "ball", "radius": 3.5},
            {"check": "interval", "entries": [{"poly": names[-1], "lower": -2.0, "upper": 2.0}]},
        ]})
        name = f"layouts#{i}:{layout}"
        runs.append((f"{name}:analyze", ["analyze", path, "--poly", f"{names[-1]} - 0.5",
                                         "--out", f"layouts/{i}.analyze.json"]))
        runs.append((f"{name}:certify", ["certify", path, config,
                                         "--out", f"layouts/{i}.certify.json"]))
    return runs


def build_corpus(where: Path) -> list:
    """Write the corpus inputs under ``where`` (relative paths) and return
    the invocations as dicts with ``id``, ``group``, ``argv`` and ``out``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    fuzz = _load("fuzz_documents", ROOT / "tests" / "test_fuzz_cli.py")
    rng = np.random.default_rng(CORPUS_SEED)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        groups = {"workloads": [], "analyze": _analyze_runs(rng),
                  "certify": _certify_runs(fuzz), "spectral": _spectral_runs(rng),
                  "layouts": _layout_runs(rng)}
        for workload in sorted(workloads.CYCLES):
            for seed in WORKLOAD_SEEDS:
                Path(f"{workload}{seed}").mkdir()
                cycles = workloads.build(workload, seed, WORKLOAD_CYCLES, f"{workload}{seed}")
                for c, cycle in enumerate(cycles):
                    for s, step in enumerate(cycle):
                        groups["workloads"].append((f"{workload}:{seed}:{c}:{s}", step.argv))
        corpus = []
        for group, runs in groups.items():
            for name, argv in runs:
                for variant, args in (("", argv), ("~quiet", _toggle_quiet(argv))):
                    corpus.append({"id": name + variant, "group": group, "argv": args,
                                   "out": _out_of(args)})
        fixed = [(name, files, argv) for name, files, argv, _, _ in fuzz.FIXED]
        for group, cases in (("fuzz", fuzz.fuzz_cases()), ("fixed", fixed)):
            for i, (name, files, argv) in enumerate(cases):
                folder = Path(group) / str(i)
                folder.mkdir(parents=True)
                args, _ = fuzz.materialize(files, argv, folder)
                corpus.append({"id": name, "group": group, "argv": args, "out": _out_of(args)})
    finally:
        os.chdir(cwd)
    return corpus


class _Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Hang(f"no exit within {ALARM_S} s")


def run_tree(src: str, rundir: str):
    """Worker: run ``corpus.json`` of ``rundir`` through the momint under
    ``src`` and write ``results.json`` there."""
    sys.path.insert(0, src)
    os.chdir(rundir)
    # every warning of every invocation reaches stderr, whatever ran before
    warnings.simplefilter("always")
    from momint.cli import main

    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    for inv in json.loads(Path("corpus.json").read_text()):
        out = inv["out"]
        if out and os.path.exists(out):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        signal.alarm(ALARM_S)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(inv["argv"])
        except BaseException as exc:  # a traceback or a hang is an outcome too
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
        report = Path(out).read_text() if out and os.path.exists(out) else None
        results.append({
            "code": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue().replace(src, "<src>"),
            "report": report,
        })
    Path("results.json").write_text(json.dumps(results))


def _by_description(entries: list):
    """{description: entry} of a violations list, or None when its entries
    are not objects with distinct descriptions."""
    if all(isinstance(e, dict) and "description" in e for e in entries):
        keyed = {e["description"]: e for e in entries}
        if len(keyed) == len(entries):
            return keyed
    return None


def _shown(value) -> str:
    """A JSON value as one short line of the summary."""
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= EXAMPLE_CHARS else text[: EXAMPLE_CHARS - 3] + "..."


def _record(others, path, base: str, head: str):
    """Count one non-numeric change at ``path``; keep the first example."""
    count, example = others.get(path, (0, (base, head)))
    others[path] = (count + 1, example)


def _walk_changes(base, head, path, changes, others, flips=None, numbers=None) -> int:
    """Record the largest |change| and relative change of the numbers per
    collapsed path in ``changes``, and the count and first example of every
    other change in ``others``: a changed string, bool or null, a key or a
    violation on one side only, a list whose length changed. ``flips``, when
    given, counts each changed bool per (path, base, head), and ``numbers``
    lists the (|change|, relative change) of each number per path. Return
    the number of violations lists that differ only in order."""
    if base == head:
        return 0
    reordered = 0
    if isinstance(base, dict) and isinstance(head, dict):
        for key in {**base, **head}:
            if key in base and key in head:
                reordered += _walk_changes(base[key], head[key], f"{path}.{key}",
                                           changes, others, flips, numbers)
            else:
                _record(others, f"{path}.{key}",
                        _shown(base[key]) if key in base else ABSENT,
                        _shown(head[key]) if key in head else ABSENT)
    elif isinstance(base, list) and isinstance(head, list):
        if len(base) != len(head):
            _record(others, path, f"length {len(base)}", f"length {len(head)}")
        keyed = path.endswith(".violations") and (_by_description(base), _by_description(head))
        pairs = zip(base, head) if len(base) == len(head) else []
        if keyed and None not in keyed:
            reordered += int(keyed[0] == keyed[1])
            pairs = [(keyed[0][key], keyed[1][key]) for key in keyed[0] if key in keyed[1]]
            # violations that one side only reports: paired by position when
            # both sides have as many (a changed description), else one-sided
            only_base = [e for key, e in keyed[0].items() if key not in keyed[1]]
            only_head = [e for key, e in keyed[1].items() if key not in keyed[0]]
            if len(only_base) == len(only_head):
                pairs += zip(only_base, only_head)
            else:
                for entry in only_base:
                    _record(others, f"{path}[]", _shown(entry), ABSENT)
                for entry in only_head:
                    _record(others, f"{path}[]", ABSENT, _shown(entry))
        for b, h in pairs:
            reordered += _walk_changes(b, h, f"{path}[]", changes, others, flips, numbers)
    elif (isinstance(base, (int, float)) and isinstance(head, (int, float))
          and not isinstance(base, bool) and not isinstance(head, bool)):
        absolute = abs(float(head) - float(base))
        relative = absolute / max(abs(float(base)), abs(float(head)))
        if math.isnan(absolute):
            absolute = relative = math.inf
        worst = changes.get(path, (0.0, 0.0, 0))
        changes[path] = (max(worst[0], absolute), max(worst[1], relative), worst[2] + 1)
        if numbers is not None:
            numbers.setdefault(path, []).append((absolute, relative))
    else:
        _record(others, path, _shown(base), _shown(head))
        if flips is not None and isinstance(base, bool) and isinstance(head, bool):
            flips[path, base, head] = flips.get((path, base, head), 0) + 1
    return reordered


def _difference(base: dict, head: dict) -> str | None:
    """What differs between two outcomes of one invocation, or None."""
    parts = []
    if base["code"] != head["code"]:
        parts.append(f"exit {base['code']} -> {head['code']}")
    for field in ("stdout", "stderr", "report"):
        if base[field] != head[field]:
            parts.append(f"{field} differs")
    return ", ".join(parts) or None


def _pattern(text: str):
    """A compiled pattern in which ``*`` matches any text."""
    return re.compile(".*".join(map(re.escape, text.split("*"))))


def _valid_allowance(allow) -> bool:
    if allow in ("identical", "any"):
        return True
    if not isinstance(allow, dict) or len(allow) != 1:
        return False
    kind, value = next(iter(allow.items()))
    if kind == "flip":
        return (isinstance(value, list) and len(value) == 2
                and all(isinstance(v, bool) for v in value) and value[0] != value[1])
    return kind in ("abs", "rel") and isinstance(value, (int, float)) and not isinstance(
        value, bool)


def _valid_invocation_entry(entry: dict) -> bool:
    if not isinstance(entry.get("invocation"), str) or len(entry) != 2:
        return False
    if "exit" in entry:
        codes = entry["exit"]
        return (isinstance(codes, list) and len(codes) == 2 and codes[0] != codes[1]
                and all(isinstance(c, int) and not isinstance(c, bool) for c in codes))
    stream = next((key for key in ("stderr", "stdout") if key in entry), None)
    if stream and isinstance(entry[stream], str):
        try:
            re.compile(entry[stream])
        except re.error:
            return False
        return True
    return False


def _load_expectations(path: str) -> list:
    """The entries of an expectation file, each a dict with its ``kind``
    (``"path"`` or ``"invocation"``), its compiled ``pattern`` and its
    ``entry``; ValueError on a malformed entry."""
    entries = []
    for entry in json.loads(Path(path).read_text()):
        if isinstance(entry, dict) and "invocation" in entry:
            if not _valid_invocation_entry(entry):
                raise ValueError(f"expectation entry {entry!r} needs 'invocation' and one of "
                                 "'exit' (a list of two different exit codes), 'stderr' or "
                                 "'stdout' (a regular expression)")
            entries.append({"kind": "invocation", "pattern": _pattern(entry["invocation"]),
                            "entry": entry})
            continue
        if not isinstance(entry, dict):
            entry = {"path": None}
        if not (isinstance(entry.get("path"), str) and set(entry) == {"path", "allow"}
                and _valid_allowance(entry["allow"])):
            raise ValueError(f"expectation entry {entry!r} needs 'path' and an 'allow' of "
                             '"identical", "any", {"abs": x}, {"rel": x} or {"flip": [a, b]}')
        entries.append({"kind": "path", "pattern": _pattern(entry["path"]), "entry": entry})
    return entries


def _shown_allowance(allow) -> str:
    if isinstance(allow, str):
        return allow
    kind, value = next(iter(allow.items()))
    return f"{kind} {json.dumps(value) if kind == 'flip' else format(value, 'g')}"


def _shown_entry(entry: dict) -> str:
    """One entry of an expectation file as the summary names it."""
    if "invocation" in entry:
        key = next(key for key in ("exit", "stderr", "stdout") if key in entry)
        return f"{key} {json.dumps(entry[key])} at {entry['invocation']}"
    return f"{_shown_allowance(entry['allow'])} at {entry['path']}"


def check_envelopes(expectations: list, changes: dict, others: dict,
                    flips: dict | None = None, numbers: dict | None = None) -> tuple[list, list]:
    """Check the per-path changes of ``_walk_changes`` against the path
    entries of the expectations. Return the usage lines, one per path entry,
    and the violation lines, one per path whose change lies outside its
    envelope (every path that no entry matches allows no change). A
    ``flip`` allowance checks the direction of each bool in ``flips``. With
    ``numbers``, each number is checked on its own, and one beyond an abs
    or rel entry takes the next that holds it; without, a path's largest
    changes stand for all its numbers. Each entry's ``used`` is set to the
    number of changes it absorbed."""
    entries = [e for e in expectations if e["kind"] == "path"]
    worst = {id(e): [0.0, 0.0] for e in entries}
    for e in entries:
        e["used"] = 0
    outside = []

    def bounded(allow):
        return isinstance(allow, dict) and "flip" not in allow

    def allowance(path, number=True):
        for e in entries:
            allow = e["entry"]["allow"]
            # an abs or rel entry covers numbers only
            if e["pattern"].fullmatch(path) and (number or not bounded(allow)):
                return e, allow
        return None, "identical"

    def holds(allow, absolute, relative):
        return allow == "any" or bounded(allow) and (
            absolute <= allow.get("abs", math.inf) and relative <= allow.get("rel", math.inf))

    for path, (absolute, relative, count) in sorted(changes.items()):
        first, allow = allowance(path)
        # a number beyond an abs or rel entry takes the next one that holds it
        takers = [e for e in entries if e["pattern"].fullmatch(path)
                  and bounded(e["entry"]["allow"])] if bounded(allow) else [first]
        beyond = []
        for change in (numbers or {}).get(path, [(absolute, relative)] * count):
            taker = next((e for e in takers if e and holds(e["entry"]["allow"], *change)), None)
            if taker is None:
                beyond.append(change)
            else:
                taker["used"] += 1
            owner = taker or first
            if owner is not None:
                row = worst[id(owner)]
                row[:] = max(row[0], change[0]), max(row[1], change[1])
        if beyond:
            outside.append(f"  {path} | abs {max(a for a, _ in beyond):.3e}, "
                           f"rel {max(r for _, r in beyond):.3e} | {len(beyond)} | "
                           f"allowed: {_shown_allowance(allow)}")
    for path, (count, (base, head)) in sorted(others.items()):
        e, allow = allowance(path, number=False)
        wrong = count
        if isinstance(allow, dict) and "flip" in allow:
            wrong -= (flips or {}).get((path, *allow["flip"]), 0)
        elif allow == "any":
            wrong = 0
        if e is not None:
            e["used"] += count - wrong
        if wrong:
            outside.append(f"  {path} | {base} -> {head} | {wrong} | "
                           f"allowed: {_shown_allowance(allow)}")
    lines = []
    for e in entries:
        absolute, relative = worst[id(e)]
        allow = e["entry"]["allow"]
        if bounded(allow):
            kind, limit = next(iter(allow.items()))
            amount = f"{absolute if kind == 'abs' else relative:.3e} of {kind} {limit:g}"
        elif isinstance(allow, dict):
            amount = f"flip {json.dumps(allow['flip'])}"
        else:
            amount = f"abs {absolute:.3e}, rel {relative:.3e} ({allow})"
        lines.append(f"  {amount} at {e['entry']['path']} | {e['used']} changes")
    return lines, outside


def absorb_invocation(expectations: list, name: str, base: dict, head: dict) -> list:
    """What of one invocation's outcome no invocation entry covers: a list
    of ``"exit"``, ``"stdout"``, ``"stderr"`` and ``"report"`` (a report on
    one side only, or one that does not parse), empty when the entries
    cover every such difference. A report present and parsed on both sides
    is left to the path entries. Each entry's ``used`` counts the
    invocations it covered."""
    entries = [e for e in expectations if e["kind"] == "invocation"
               and e["pattern"].fullmatch(name)]
    uncovered = []
    exit_entry = next((e for e in entries if e["entry"].get("exit") == [base["code"],
                                                                          head["code"]]), None)
    if base["code"] != head["code"]:
        if exit_entry is None:
            uncovered.append("exit")
        else:
            exit_entry["used"] = exit_entry.get("used", 0) + 1
    # an exit entry's two codes differ, so it matches only a changed exit code
    for stream in ("stdout", "stderr"):
        if base[stream] == head[stream] or (stream == "stdout" and exit_entry):
            continue
        stream_entry = next((e for e in entries if stream in e["entry"]
                             and re.search(e["entry"][stream], head[stream])), None)
        if stream_entry is None:
            uncovered.append(stream)
        else:
            stream_entry["used"] = stream_entry.get("used", 0) + 1
    one_sided = (base["report"] is None) != (head["report"] is None)
    if one_sided and exit_entry is None:
        uncovered.append("report")
    return uncovered


def unused_entries(expectations: list) -> list:
    """One line per entry that absorbed nothing (``used`` 0 or unset)."""
    return [f"  {_shown_entry(e['entry'])}" for e in expectations if not e.get("used")]


def _extract(base_ref: str, base_tree: Path):
    """``src`` of ``base_ref`` under ``base_tree``, through ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base_ref, "src"],
                             check=True, capture_output=True).stdout
    base_tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)


def compare(base_ref: str, expect: str | None = None) -> int:
    expectations = _load_expectations(expect) if expect else None
    workdir = Path(tempfile.mkdtemp(prefix="momint-compare-"))
    base_tree = workdir / "base"
    try:
        _extract(base_ref, base_tree)
        corpus_dir = workdir / "corpus"
        corpus_dir.mkdir()
        corpus = build_corpus(corpus_dir)
        (corpus_dir / "corpus.json").write_text(json.dumps(corpus))
        workers = {}
        for side, tree in (("base", base_tree), ("head", ROOT)):
            rundir = workdir / f"run-{side}"
            shutil.copytree(corpus_dir, rundir)
            workers[side] = (rundir, subprocess.Popen(
                [sys.executable, __file__, "--worker", str(tree / "src"), str(rundir)]))
        results = {}
        for side, (rundir, proc) in workers.items():
            if proc.wait() != 0:
                print(f"compare: the {side} tree's worker exited {proc.returncode}")
                return 2
            results[side] = json.loads((rundir / "results.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    head_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    print(f"compare: base {base_ref} vs the working tree (HEAD {head_rev}), "
          f"{len(corpus)} invocations")
    groups: dict = {}
    differing = []
    changes: dict = {}
    others: dict = {}
    flips: dict = {}
    numbers: dict = {}
    reordered = 0
    uncovered = []  # differences that no entry covers
    for entry in expectations or []:
        entry["used"] = 0
    for inv, base, head in zip(corpus, results["base"], results["head"]):
        total, count = groups.get(inv["group"], (0, 0))
        what = _difference(base, head)
        groups[inv["group"]] = (total + 1, count + (what is not None))
        if what is None:
            continue
        parsed, lists = None, 0
        if base["report"] and head["report"] and base["report"] != head["report"]:
            try:
                parsed = json.loads(base["report"]), json.loads(head["report"])
            except ValueError:
                pass
            lists = _walk_changes(*parsed, "", changes, others, flips, numbers) if parsed else 0
            if lists:
                reordered += lists
                what += f" ({lists} violations lists reordered)"
        left = absorb_invocation(expectations or [], inv["id"], base, head)
        if base["report"] and head["report"] and base["report"] != head["report"] and not parsed:
            left.append("report")
        if lists or left:
            uncovered.append(f"  {inv['group']}: {inv['id']}: {what}")
        differing.append(f"  {inv['group']}: {inv['id']}: {what}")
    for group, (total, count) in groups.items():
        print(f"  {group}: {total} invocations, {count} differ")
    print(f"differing invocations: {len(differing)}")
    print(f"violations lists that differ only in order: {reordered}")
    for line in differing:
        print(line)
    if changes:
        print(f"largest number changes per JSON path (top {CHANGE_ROWS}):")
        print("  path | max abs change | max rel change | changed values")
        ranked = sorted(changes.items(), key=lambda item: -item[1][1])
        for path, (absolute, relative, count) in ranked[:CHANGE_ROWS]:
            print(f"  {path} | {absolute:.3e} | {relative:.3e} | {count}")
    if others:
        print(f"other changes per JSON path (top {CHANGE_ROWS}):")
        print("  path | changes | first example")
        ranked = sorted(others.items(), key=lambda item: (-item[1][0], item[0]))
        for path, (count, (base, head)) in ranked[:CHANGE_ROWS]:
            print(f"  {path} | {count} | {base} -> {head}")
    if expectations is None:
        return 1 if differing else 0
    usage, outside = check_envelopes(expectations, changes, others, flips, numbers)
    print(f"entry use ({expect}):")
    for line in usage:
        print(line)
    for entry in expectations:
        if entry["kind"] == "invocation":
            print(f"  {_shown_entry(entry['entry'])} | {entry['used']} invocations")
    print(f"invocations with a changed exit code, stdout or stderr, a reordered or "
          f"unparsed report that no entry covers: {len(uncovered)}")
    for line in uncovered:
        print(line)
    print(f"changes outside their envelope: {len(outside)}")
    for line in outside:
        print(line)
    unused = unused_entries(expectations)
    print(f"entries that absorbed nothing: {len(unused)}")
    for line in unused:
        print(line)
    return 1 if uncovered or outside or unused else 0


def time_worker(src: str, workdir: str, workload: str, seed: int, cycles: int):
    """Worker of ``--time``: build the workload under ``workdir``, run every
    cycle once, then answer each line ``i`` of standard input with the
    minimum seconds of REPEATS runs of cycle i, until end of input."""
    sys.path.insert(0, src)
    from momint.cli import main as cli_main

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    built = workloads.build(workload, seed, cycles, workdir)

    def run(cycle) -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for step in cycle:
                cli_main(step.argv)
        return time.perf_counter() - start

    for cycle in built:
        run(cycle)
    print("ready", flush=True)
    for line in sys.stdin:
        cycle = built[int(line)]
        print(min(run(cycle) for _ in range(REPEATS)), flush=True)


def median_interval(ratios, rng, resamples: int = BOOTSTRAP_RESAMPLES) -> tuple:
    """(median, low, high): the median of ``ratios`` and the 2.5% and 97.5%
    percentiles of the medians of ``resamples`` bootstrap resamples."""
    ratios = np.asarray(ratios, dtype=float)
    picks = rng.integers(0, len(ratios), size=(resamples, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def time_trees(base_src: Path, head_src: Path, workload: str, seed: int = TIME_SEED,
               cycles: int = TIME_CYCLES) -> dict:
    """Time the trees interleaved (see the module docstring): per cycle the
    minimum seconds of each side, and the median ratio head / base with its
    bootstrap 95% interval."""
    rng = np.random.default_rng(TIME_RNG_SEED)
    workdir = Path(tempfile.mkdtemp(prefix="momint-time-"))
    workers = {}
    try:
        for side, src in (("base", base_src), ("head", head_src)):
            (workdir / side).mkdir()
            workers[side] = subprocess.Popen(
                [sys.executable, __file__, "--time-worker", str(src), str(workdir / side),
                 workload, str(seed), str(cycles)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, proc in workers.items():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"the {side} tree's timing worker did not start")
        seconds = {"base": [], "head": []}
        for i in range(cycles):
            for side in rng.permutation(["base", "head"]):
                proc = workers[side]
                proc.stdin.write(f"{i}\n")
                proc.stdin.flush()
                reply = proc.stdout.readline()
                if not reply:
                    raise RuntimeError(f"the {side} tree's timing worker exited")
                seconds[side].append(float(reply))
    finally:
        for proc in workers.values():
            proc.communicate()  # end of input ends the worker
        shutil.rmtree(workdir, ignore_errors=True)
    ratios = np.array(seconds["head"]) / np.array(seconds["base"])
    median, low, high = median_interval(ratios, rng)
    return {"workload": workload, "seed": seed, "cycles": cycles, "repeats": REPEATS,
            "base_ms": 1e3 * float(np.median(seconds["base"])),
            "head_ms": 1e3 * float(np.median(seconds["head"])),
            "median_ratio": median, "interval": [low, high], "ratios": ratios.tolist()}


def time_compare(base_ref: str, workload: str, seed: int, cycles: int) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="momint-compare-"))
    try:
        _extract(base_ref, workdir / "base")
        result = time_trees(workdir / "base" / "src", ROOT / "src", workload, seed, cycles)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    low, high = result["interval"]
    print(f"time: {workload}, seed {seed}, {cycles} cycles, best of {REPEATS} runs each; "
          f"base {base_ref} vs the working tree")
    print(f"  median cycle: base {result['base_ms']:.3f} ms, working tree "
          f"{result['head_ms']:.3f} ms")
    print(f"  median ratio working tree / base: {result['median_ratio']:.4f} "
          f"(bootstrap 95% interval {low:.4f} .. {high:.4f})")
    print(json.dumps({key: value for key, value in result.items() if key != "ratios"}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--expect", metavar="FILE",
                        help="JSON list of declared change envelopes (see above)")
    parser.add_argument("--time", metavar="WORKLOAD",
                        choices=("real_psd", "real_poly", "operator_disc"),
                        help="time the two trees interleaved on a perfbench workload")
    parser.add_argument("--cycles", type=int, default=TIME_CYCLES,
                        help=f"cycles of --time (default {TIME_CYCLES})")
    parser.add_argument("--seed", type=int, default=TIME_SEED,
                        help=f"workload seed of --time (default {TIME_SEED})")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "RUNDIR"), help=argparse.SUPPRESS)
    parser.add_argument("--time-worker", nargs=5, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_tree(*args.worker)
        return 0
    if args.time_worker:
        src, workdir, workload, seed, cycles = args.time_worker
        time_worker(src, workdir, workload, int(seed), int(cycles))
        return 0
    if not args.base:
        parser.error("--base is required")
    if args.time:
        if args.expect:
            parser.error("--expect does not apply to --time")
        if args.cycles < 1:
            parser.error("--cycles must be at least 1")
        return time_compare(args.base, args.time, args.seed, args.cycles)
    return compare(args.base, args.expect)


if __name__ == "__main__":
    raise SystemExit(main())
