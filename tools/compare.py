#!/usr/bin/env python3
"""Run one seeded corpus through two trees and diff every invocation.

Usage (from anywhere inside the repository):

    python tools/compare.py --base REF

REF (any git revision, such as ``HEAD`` or a commit id) has its ``src``
extracted with ``git archive`` into a temporary directory; the other side is
the working tree that holds this script, uncommitted edits included. One
corpus is generated once from the working tree:

* ``perfbench/workloads.build`` for all three workloads, seeds 5 and 6,
  12 cycles each;
* random atom tables for ``analyze``: signed, zero-mass, with ``--order``
  and ``--tol``, and with polynomials beyond the degree budget;
* one ``certify`` run per check kind, and three runs of the products and
  cone semiring on a degree-16 table: a pair whose sides do not sum to a
  constant, the whole box semiring in d=2 (``max_factors`` 16), and a cone
  with ``jk_max`` 8;
* random ``spectral`` operators of orders 1-16 and scales 1e-3 to 1e1, some
  with ``--nodes``, some with half-zero start vectors;

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
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
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


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: str, doc) -> str:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc))
    return path


def _toggle_quiet(argv: list) -> list:
    return [a for a in argv if a != "--quiet"] if "--quiet" in argv else argv + ["--quiet"]


def _out_of(argv: list):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _moment_document(points: np.ndarray, weights: np.ndarray, max_degree: int) -> dict:
    """The moments of sum_i w_i delta(x_i), summed atom by atom with numpy."""
    d = points.shape[1]
    moments = []

    def exponents(total, dims):
        if dims == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in exponents(total - first, dims - 1):
                yield (first,) + rest

    for total in range(max_degree + 1):
        for e in exponents(total, d):
            value = float(np.sum(weights * np.prod(points ** np.array(e), axis=1)))
            moments.append({"index": list(e), "value": value})
    return {"dimension": d, "max_degree": max_degree, "moments": moments}


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


#: (name, check) of the semiring runs on the degree-16 table. The atom at
#: x = -0.75 lies outside 0.6 -+ x, and the truncated growth bound of x
#: lies below max |x|, so every report carries violations
SEMIRING_CHECKS = [
    ("products-non-constant-sum",
     {"check": "products", "factors": [{"upper": "x", "lower": "1 - x^2"},
                                       {"upper": "0.6 - x", "lower": "0.6 + x"}],
      "max_factors": 6}),
    ("products-cap-16",
     {"check": "products", "factors": [{"upper": "0.6 - x", "lower": "0.6 + x"},
                                       {"upper": "1 - y", "lower": "1 + y"}],
      "max_factors": 16}),
    ("cone-jk-max-8", {"check": "cone", "a": "x", "b": "y", "jk_max": 8}),
]


def _certify_runs(fuzz) -> list:
    """One certify invocation per check kind, and one of them all, on the
    fuzz module's table; then the semiring runs on its degree-16 table."""
    moments = _write("certify/moments.json", fuzz.moment_document(6))
    config = _write("certify/all.json", fuzz.CERTIFY_CONFIG)
    runs = [("certify#all", ["certify", moments, config, "--out", "certify/all.report.json"])]
    for check in fuzz.CERTIFY_CONFIG["checks"]:
        kind = check["check"]
        config = _write(f"certify/{kind}.json",
                        {"variables": fuzz.CERTIFY_CONFIG["variables"], "checks": [check]})
        runs.append((f"certify#{kind}",
                     ["certify", moments, config, "--out", f"certify/{kind}.report.json"]))
    moments = _write("certify/moments16.json", fuzz.moment_document(16))
    for name, check in SEMIRING_CHECKS:
        config = _write(f"certify/{name}.json",
                        {"variables": fuzz.CERTIFY_CONFIG["variables"], "checks": [check]})
        runs.append((f"certify#{name}",
                     ["certify", moments, config, "--out", f"certify/{name}.report.json"]))
    return runs


def _spectral_runs(rng) -> list:
    """200 spectral invocations on random symmetric operators."""
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
                  "certify": _certify_runs(fuzz), "spectral": _spectral_runs(rng)}
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


def _walk_changes(base, head, path, changes, others) -> int:
    """Record the largest |change| and relative change of the numbers per
    collapsed path in ``changes``, and the count and first example of every
    other change in ``others``: a changed string, bool or null, a key or a
    violation on one side only, a list whose length changed. Return the
    number of violations lists that differ only in order."""
    if base == head:
        return 0
    reordered = 0
    if isinstance(base, dict) and isinstance(head, dict):
        for key in {**base, **head}:
            if key in base and key in head:
                reordered += _walk_changes(base[key], head[key], f"{path}.{key}",
                                           changes, others)
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
            reordered += _walk_changes(b, h, f"{path}[]", changes, others)
    elif (isinstance(base, (int, float)) and isinstance(head, (int, float))
          and not isinstance(base, bool) and not isinstance(head, bool)):
        absolute = abs(float(head) - float(base))
        relative = absolute / max(abs(float(base)), abs(float(head)))
        if math.isnan(absolute):
            absolute = relative = math.inf
        worst = changes.get(path, (0.0, 0.0, 0))
        changes[path] = (max(worst[0], absolute), max(worst[1], relative), worst[2] + 1)
    else:
        _record(others, path, _shown(base), _shown(head))
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


def compare(base_ref: str) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="momint-compare-"))
    base_tree = workdir / "base"
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base_ref, "src"],
                                 check=True, capture_output=True).stdout
        base_tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
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
    reordered = 0
    for inv, base, head in zip(corpus, results["base"], results["head"]):
        total, count = groups.get(inv["group"], (0, 0))
        what = _difference(base, head)
        groups[inv["group"]] = (total + 1, count + (what is not None))
        if what is None:
            continue
        if base["report"] and head["report"] and base["report"] != head["report"]:
            try:
                parsed = json.loads(base["report"]), json.loads(head["report"])
            except ValueError:
                parsed = None
            lists = _walk_changes(*parsed, "", changes, others) if parsed else 0
            if lists:
                reordered += lists
                what += f" ({lists} violations lists reordered)"
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
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "RUNDIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_tree(*args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")
    return compare(args.base)


if __name__ == "__main__":
    raise SystemExit(main())
