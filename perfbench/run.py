#!/usr/bin/env python3
"""End-to-end benchmark of the momint command line, with an outside-in trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload real_psd --seed 1 --seconds 30 --trace 0

One client runs a closed loop in process: it calls ``momint.cli.main(argv)``
and sends the next invocation only after the previous one returns. The
workload (see ``workloads.py``) is a fixed number of cycles of fresh seeded
inputs, ``round(seconds * rate)`` for the workload's baseline rate but at
least ``MIN_CYCLES``, so the sample count, and with it the tail percentile, is
the same on every commit.
Every report is checked against a reference the benchmark computes itself, and
one sampled cycle is run twice and must give byte-identical reports.

``--trace 0`` prints the end-to-end metrics: set-up time (``import
momint.cli`` in a fresh interpreter, median of several), median cycle
latency and invocations per second, the share of invocations that agree with
the reference, and peak RSS. The cycle tail and the median of a host-speed
kernel (``calibration.py``, a diagnostic only) go to the result file.
``--trace 1`` runs every cycle untraced and traced and prints the per-layer
metrics from the spans, normalised per CLI invocation, plus per-command
latency from the untraced pass and the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full result goes
to ``perfbench/out/``. Exit status 2, with no result, when the momint sources
are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COMMANDS = ("oracle", "analyze", "certify", "spectral", "disc")
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
#: every workload runs each of its commands at least once per cycle, so this
#: many cycles put every command's tail above its median
MIN_CYCLES = 2 * TAIL_BEYOND + 1
#: wall-clock budget for the measured passes of one run, so a much slower
#: program still exits well inside the 180 s a run may take
PASS_BUDGET_S = 120.0

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import momint.cli; print(time.perf_counter() - t)"
)


def load_cli():
    """Import momint from the sources beside the benchmark, or return None."""
    if not (SRC / "momint" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import momint
    import momint.cli

    if Path(momint.__file__).resolve().parent != (SRC / "momint").resolve():
        return None
    return momint


def tail(samples: list) -> tuple:
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it, or the median when no percentile above the
    median leaves that many."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def environment(momint) -> dict:
    import numpy as np

    info = {
        "kernel_backend": momint.kernel_backend(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": "unknown",
        "blas_threads": "unknown",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        import glob

        libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
        lib = ctypes.CDLL(libs[0])
        info["blas_threads"] = int(lib.scipy_openblas_get_num_threads64_())
    except (OSError, AttributeError, IndexError):
        pass
    return info


def import_seconds() -> float:
    """Seconds to import momint.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip())


def invoke(cli_main, argv) -> tuple:
    """(exit code or None if it raised, stderr text, seconds)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli_main(argv)
        except Exception as exc:  # an uncaught exception is a failed invocation
            rc = None
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = perf_counter() - start
    return rc, err.getvalue(), elapsed


def new_pass() -> dict:
    return {"records": [], "cycle_times": [], "wall": 0.0}


def run_cycle(cli_main, cycle, into: dict) -> list:
    """Run one cycle's invocations back to back; add records and time to ``into``."""
    start = perf_counter()
    records = [(step,) + invoke(cli_main, step.argv) for step in cycle]
    elapsed = perf_counter() - start
    into["records"] += records
    into["cycle_times"].append(elapsed)
    into["wall"] += elapsed
    return records


def snapshot(cycle) -> list:
    out = []
    for step in cycle:
        try:
            out.append(Path(step.out).read_bytes())
        except FileNotFoundError:
            out.append(None)
    return out


class Checker:
    """Checks records against their references (and, for a repeated cycle,
    its reports against the bytes of its earlier run) and tallies the outcome."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reference = workloads.Reference()
        self.kinds = collections.Counter()
        self.unexplained = []
        self.exit_codes = collections.defaultdict(collections.Counter)

    def check(self, records, earlier=None):
        for i, (step, rc, stderr, _) in enumerate(records):
            self.attempted += 1
            self.exit_codes[step.command][str(rc)] += 1
            problems = []
            try:
                step.check(rc, stderr, self.reference)
            except workloads.Disagreement as exc:
                problems.append(exc)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(
                    workloads.Disagreement("unreadable_report", f"{step.command}: {exc!r}"))
            if earlier is not None and snapshot([step]) != [earlier[i]]:
                problems.append(workloads.Disagreement(
                    "nondeterministic", f"{step.command} report differs between two runs"))
            self.failed += bool(problems)
            for problem in problems:
                self.kinds[problem.kind] += 1
                if problem.kind not in workloads.KNOWN_DEFECTS:
                    self.unexplained.append(str(problem))


def command_latency(records) -> dict:
    by_command = collections.defaultdict(list)
    for step, _, _, seconds in records:
        by_command[step.command].append(seconds)
    out = {}
    for command in COMMANDS:
        samples = by_command.get(command, [])
        if samples:
            value, pct = tail(samples)
            out[command] = {"p50_ms": 1e3 * statistics.median(samples), "tail_ms": 1e3 * value,
                            "tail_percentile": pct, "samples": len(samples)}
        else:
            out[command] = {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0, "samples": 0}
    return out


def end_to_end_metrics(timed: dict, checker: Checker, setup: list, host: list) -> tuple:
    """All as measured. The cycle tail goes to the notes only: host bursts
    dominate it. The host-speed kernel's median is a note for reading runs
    taken at different times; it corrects nothing."""
    cycles = timed["cycle_times"]
    cycle_tail, pct = tail(cycles)
    attempted = checker.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cycle_p50_ms": (1e3 * statistics.median(cycles), "ms"),
        "ops_per_s": (len(timed["records"]) / timed["wall"], "1/s"),
        "ok_ratio": ((attempted - checker.failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "cycles": len(cycles),
        "cycle_tail_percentile": pct,
        "cycle_tail_ms": 1e3 * cycle_tail,
        "host_kernel_median_ms": 1e3 * statistics.median(host),
        "cycle_times_ms": [1e3 * t for t in cycles],
        "setup_samples_s": setup,
    }
    return metrics, notes


def per_layer_metrics(spans: tracer.Tracer, untraced: dict, traced: dict) -> dict:
    summary = spans.summarize()
    records = traced["records"]
    n = len(records)
    empty = {"calls": 0, "self_s": 0.0, "measure": []}

    def row(name):
        return summary.get(name, empty)

    def per_call(name):
        return row(name)["calls"] / n, "count"

    def self_ms(name):
        return 1e3 * row(name)["self_s"] / n, "ms"

    def measure_sum(name, index=None):
        values = row(name)["measure"]
        if index is not None:
            values = [v[index] for v in values]
        return sum(values) / n, "count"

    metrics = {}
    for name in ("linalg.sym_eig", "linalg.psd_check", "linalg.pencil_extremes",
                 "moments.moment_matrix", "moments.apply", "polynomials.mul",
                 "bounds.archimedean_bound"):
        metrics[f"{name}.calls"] = per_call(name)
        metrics[f"{name}.self_ms"] = self_ms(name)
    sizes = row("linalg.sym_eig")["measure"]
    metrics["linalg.sym_eig.n_max"] = (max(sizes, default=0), "order")
    metrics["linalg.sym_eig.n3_sum"] = (sum(s**3 for s in sizes) / n, "n3-computed")
    metrics["moments.moment_matrix.entries"] = measure_sum("moments.moment_matrix")
    metrics["moments.apply.terms"] = measure_sum("moments.apply")
    metrics["polynomials.mul.term_pairs"] = measure_sum("polynomials.mul")
    for name in ("moments.from_measure", "moments.from_document", "moments.to_document",
                 "polynomials.parse_polynomial", "bounds.growth_bound", "bounds.rayleigh_bounds",
                 "certify.run_check_config", "spectral.operator_moments",
                 "spectral.quadrature_from_moments", "spectral.rayleigh_interval",
                 "semigroup.psd_kernel_check", "semigroup.disc_check",
                 "semigroup.from_complex_atoms"):
        metrics[f"{name}.self_ms"] = self_ms(name)
    metrics["cli.self_ms"] = self_ms(tracer.ROOT)

    arch_calls = row("bounds.archimedean_bound")["calls"]
    inside = spans.count_within("linalg.sym_eig", "bounds.archimedean_bound")
    metrics["bounds.archimedean_bound.eigensolves_per_call"] = (
        inside / arch_calls if arch_calls else 0.0, "count")
    metrics["certify.evaluations"] = measure_sum("certify.run_check_config", 0)
    metrics["certify.skipped"] = measure_sum("certify.run_check_config", 1)

    requested = returned = 0
    discs = 0
    for step, rc, _, _ in records:
        if step.command == "spectral":
            with open(step.argv[1], "r", encoding="utf-8") as handle:
                requested += len(json.load(handle)["matrix"])
            if rc in (0, 1):
                with open(step.out, "r", encoding="utf-8") as handle:
                    returned += len(json.load(handle)["results"]["nodes"])
        discs += step.command == "disc"
    metrics["spectral.nodes_recovered_ratio"] = (
        returned / requested if requested else 0.0, "ratio")
    kernel = row("semigroup.psd_kernel_check")
    metrics["semigroup.psd_kernel_check.calls_per_disc"] = (
        kernel["calls"] / discs if discs else 0.0, "count")
    metrics["semigroup.psd_kernel_check.kernel_order"] = (max(kernel["measure"], default=0), "order")
    metrics["trace.overhead_ratio"] = (traced["wall"] / untraced["wall"] - 1.0, "ratio")
    for command, stats in command_latency(untraced["records"]).items():
        metrics[f"cli.{command}.p50_ms"] = (stats["p50_ms"], "ms")
        metrics[f"cli.{command}.tail_ms"] = (stats["tail_ms"], "ms")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("real_psd", "real_poly", "operator_disc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def timed_run(cli_main, cycles, checker: Checker, started: float) -> tuple:
    """The closed loop, with the set-up and host-kernel samples spread evenly
    between cycles, so they see the same host conditions as the cycles do.
    Returns the timed pass, the set-up samples and the kernel samples."""
    import_seconds()  # may compile bytecode; not a sample
    setup_at = {len(cycles) * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    setup, host, timed = [], [], new_pass()
    for i, cycle in enumerate(cycles):
        if perf_counter() > started + PASS_BUDGET_S:
            break
        if i in setup_at:
            setup.append(import_seconds())
            host.append(calibration.kernel_seconds())
        run_cycle(cli_main, cycle, timed)
    checker.check(timed["records"])
    return timed, setup, host


def traced_run(cli_main, cycles, checker: Checker, started: float, spans_path: str) -> tuple:
    """Each cycle runs untraced and traced on the same inputs, in alternating
    order, so the two passes see the same host and the overhead is paired.
    The untraced pass has every cycle, so its per-command tails are real."""
    spans = tracer.Tracer()
    entry = spans.entry(cli_main)
    untraced, traced = new_pass(), new_pass()

    def traced_cycle(cycle):
        spans.install()
        try:
            return run_cycle(entry, cycle, traced)
        finally:
            spans.uninstall()

    for i, cycle in enumerate(cycles):
        if perf_counter() > started + PASS_BUDGET_S:
            break
        if i % 2:
            checker.check(traced_cycle(cycle))
        checker.check(run_cycle(cli_main, cycle, untraced))
        if not i % 2:
            checker.check(traced_cycle(cycle))
    metrics = per_layer_metrics(spans, untraced, traced)
    spans.dump(spans_path)
    notes = {"cycles": len(traced["cycle_times"]), "spans": len(spans.spans)}
    return metrics, notes, command_latency(untraced["records"])


def repeat_sample(cli_main, sample, first_bytes, checker: Checker):
    """The determinism check, outside the measured passes: run the sampled
    cycle again and compare its reports with those of its first run."""
    checker.check(run_cycle(cli_main, sample, new_pass()), earlier=first_bytes)


def main(argv=None) -> int:
    args = parse_args(argv)
    momint = load_cli()
    if momint is None:
        print(f"error: momint sources not found under {SRC}", file=sys.stderr)
        return 2

    started = perf_counter()
    count = max(MIN_CYCLES, round(args.seconds * workloads.CYCLES_PER_SECOND[args.workload]))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        cycles = workloads.build(args.workload, args.seed, count, str(workdir))
        sample = cycles[args.seed % len(cycles)]
        for step in sample:  # the sampled cycle's first run; it also warms up
            invoke(momint.cli.main, step.argv)
        first_bytes = snapshot(sample)
        checker = Checker()
        if args.trace:
            metrics, notes, latency = traced_run(
                momint.cli.main, cycles, checker, started, str(OUT / f"spans-{args.workload}.json"))
            repeat_sample(momint.cli.main, sample, first_bytes, checker)
        else:
            timed, setup, host = timed_run(momint.cli.main, cycles, checker, started)
            repeat_sample(momint.cli.main, sample, first_bytes, checker)
            metrics, notes = end_to_end_metrics(timed, checker, setup, host)
            latency = command_latency(timed["records"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = checker.kinds
    unexplained = checker.unexplained
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(momint),
        "loop": {"clients": 1, "kind": "closed", "cycles_planned": count, **notes},
        "command_latency": latency,
        "reference_checks": checker.reference.comparisons,
        "determinism_checked": len(sample),
        "exit_codes": {k: dict(v) for k, v in checker.exit_codes.items()},
        "failures": dict(failures),
        "known_defects": {k: v for k, v in workloads.KNOWN_DEFECTS.items() if k in failures},
        "unexplained": unexplained,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run_s": perf_counter() - started,
    }
    with open(OUT / f"result-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{notes['cycles']} of {count} cycles, 1 client, closed loop")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in result["environment"].items()))
    for command, stats in latency.items():
        if stats["samples"]:
            print(f"  {command:9s} p50 {stats['p50_ms']:9.2f} ms   "
                  f"tail p{stats['tail_percentile']:.0f} {stats['tail_ms']:9.2f} ms   "
                  f"({stats['samples']} samples)")
    if not args.trace:
        print(f"  cycle tail p{notes['cycle_tail_percentile']:.0f} of {notes['cycles']} cycles: "
              f"{notes['cycle_tail_ms']:.2f} ms; host kernel median "
              f"{notes['host_kernel_median_ms']:.3f} ms")
    print(f"exit codes: {result['exit_codes']}")
    print(f"reference checks: {checker.reference.comparisons}; "
          f"failed {checker.failed} of {checker.attempted}: "
          f"{dict(failures) or 'none'}")
    for kind, why in result["known_defects"].items():
        print(f"  known defect {kind}: {why}")
    for line in unexplained[:5]:
        print(f"  UNEXPLAINED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexplained and checker.reference.comparisons > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
