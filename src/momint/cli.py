"""File-driven command line interface.

Five commands: ``oracle`` (measure document to moment document), ``analyze``
(bounds and verdicts for a moment document), ``certify`` (run a check
configuration), ``spectral`` (operator moments, interval, and quadrature
reconstruction), ``disc`` (complex moment table checks). Reports are JSON
documents plus a human-readable summary on stdout (``--quiet`` suppresses
the summary). Exit status: 0 when every requested check passes, 1 when a
mathematical check fails, 2 on input or usage errors, with one ``error:``
line: every command runs under one numpy errstate, so an overflow ends in a
finiteness check's ValueError rather than a warning. In ``analyze`` a
field whose computation raises a MomintError or such a ValueError is
``{"error": message}`` instead, and the exit status is that of the PSD
verdict, which runs first and unguarded (so a bad ``--tol`` is still a
usage error). Reports are strict JSON; a saturated limit is written as
null. Each command's parser registers that command's arguments only, and
is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bounds as bounds_mod
from .certify import run_check_config
from .exceptions import MomintError
from .linalg import SymMatrix, psd_record
from .moments import MeasureSpec, MomentSequence, from_measure
from .policy import NODE_CONTAINMENT_TOL, SPECTRAL_RESIDUAL_TOL
from .polynomials import Polynomial, default_variable_names, format_polynomial, parse_polynomial
from .semigroup import (
    ComplexMomentFunction,
    SemigroupElement,
    complex_atoms_from_document,
    diagonal_growth_bound,
    disc_check,
    from_complex_atoms,
    psd_kernel_check,
)
from .spectral import chebyshev_extremes, operator_moments, operator_rule, rayleigh_interval

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_ANALYZE_ORDER_CAP = 4


def _read_text(path: str, inputs: dict | None = None, name: str | None = None) -> str:
    """The text of the file at ``path``, read once and decoded as
    ``open(path, encoding="utf-8")`` decodes it: newlines translated, a BOM
    kept for ``json`` to refuse. ``inputs[name]`` records the path and the
    sha256 of the bytes read."""
    with open(path, "rb") as handle:
        data = handle.read()
    if inputs is not None:
        inputs[name] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_json(path: str, inputs: dict | None = None, name: str | None = None) -> dict:
    """The JSON document in the file at ``path`` (``_read_text``)."""
    return json.loads(_read_text(path, inputs, name))


def _write_text(path: str, text: str):
    """``text`` and a newline, as the one line of the file at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _write_json(path: str, doc: dict):
    """One line of sorted-key, strict JSON: a non-finite number raises
    ValueError before the file is opened. ``json.dumps`` without ``indent``
    runs the C encoder; ``json.dump`` and any ``indent`` fall back to
    Python's."""
    _write_text(path, json.dumps(doc, sort_keys=True, allow_nan=False))


def _emit(report: dict, out: str | None, quiet: bool, lines: list[str]):
    if out:
        _write_json(out, report)
    if not quiet:
        for line in lines:
            print(line)


def _report_skeleton(command: str, inputs: dict, parameters: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "results": {},
        "warnings": [],
    }


def _check_report_dict(report) -> dict:
    return {
        "passed": report.passed,
        "attempted": report.attempted,
        "skipped": report.skipped,
        "violations": [
            {"description": v.description, "value": v.value} for v in report.violations
        ],
        "details": list(report.details),
    }


def _cmd_oracle(args) -> int:
    doc = _load_json(args.measure)
    spec = MeasureSpec.from_document(doc)
    seq = from_measure(spec, args.degree)
    # the bytes of _write_json(args.out, seq.to_document()), without the document
    _write_text(args.out, seq.to_text())
    if not args.quiet:
        print(
            f"wrote {len(seq.y)} moments (dimension {seq.dimension}, "
            f"max degree {seq.max_degree}) to {args.out}"
        )
    return EXIT_PASS


def _finite(args, *options):
    """ValueError naming the first of ``options`` that is infinite (a NaN
    fails the sign check of the routine that reads it)."""
    for option in options:
        if math.isinf(getattr(args, option) or 0.0):
            raise ValueError(f"--{option} must be finite, got {getattr(args, option)}")


def _admissible_order(seq: MomentSequence, shift_degree: int, requested: int | None,
                      warnings: list, label: str) -> int:
    cap = (seq.max_degree - max(shift_degree, 0)) // 2
    wanted = DEFAULT_ANALYZE_ORDER_CAP if requested is None else requested
    order = min(wanted, cap)
    # where no order fits, the field's DegreeOverflowError names the degree
    if requested is not None and 0 <= order < requested:
        warnings.append(
            f"{label}: order reduced from {requested} to {order} by the degree budget"
        )
    return max(order, 0)


def _guarded(compute) -> dict:
    """The report field that ``compute()`` builds, or ``{"error": message}``
    when it raises a MomintError or a ValueError. Every ValueError that the
    analyze fields reach is a finiteness check of an overflowing value (the
    ``--tol`` sign check runs first, in the unguarded PSD verdict); any
    other error ends the command."""
    try:
        return compute()
    except (MomintError, ValueError) as exc:
        return {"error": str(exc)}


def _rayleigh_field(rb) -> dict:
    return {"lower": rb.lower, "upper": rb.upper, "order": rb.order_used,
            "effective_rank": rb.effective_rank}


def _cmd_analyze(args) -> int:
    if args.order is not None and args.order < 0:
        raise ValueError(f"--order must be >= 0, got {args.order}")
    _finite(args, "tol")
    inputs = {}
    seq = MomentSequence.from_text(_read_text(args.moments, inputs, "moments"))
    names = args.vars.split(",") if args.vars else default_variable_names(seq.dimension)
    if len(names) != seq.dimension:
        raise ValueError(
            f"{len(names)} variable names for dimension {seq.dimension}"
        )
    # each name labels its coordinate's entry of results.polynomials
    if "" in names:
        raise ValueError("empty variable name")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    if args.poly:
        polys = [(text, parse_polynomial(text, names)) for text in args.poly]
    else:
        polys = [
            (names[i], Polynomial.variable(seq.dimension, i))
            for i in range(seq.dimension)
        ]
    report = _report_skeleton(
        "analyze",
        inputs,
        {"order": args.order, "polynomials": [text for text, _ in polys]},
    )
    warnings = report["warnings"]
    lines = []

    psd_order = _admissible_order(seq, 0, args.order, warnings, "psd")
    one = Polynomial.constant(seq.dimension, 1.0)
    verdict = bounds_mod.quadratic_module_psd(seq, one, psd_order, args.tol)
    report["results"]["psd"] = psd_record(verdict, "1", psd_order)
    lines.append(
        f"psd (order {psd_order}): {'PASS' if verdict.is_psd else 'FAIL'} "
        f"(min eigenvalue {verdict.min_eigenvalue:.6g})"
    )
    if not seq.normalized:
        warnings.append("sequence has L(1) <= 0; growth-based bounds unavailable")

    per_poly: dict = {}
    for text, poly in polys:
        deg = max(poly.degree(), 0)
        order = _admissible_order(seq, deg, args.order, warnings, text)
        entry = {"growth_bound": _guarded(lambda: asdict(bounds_mod.growth_bound(seq, poly)))}
        if entry["growth_bound"].get("clamped"):
            warnings.append(f"{text}: negative even-power values clamped to zero")
        sq_order = _admissible_order(seq, 2 * deg, args.order, warnings, f"{text}^2")
        square = poly * poly
        for name, compute in (
            ("rayleigh", lambda: _rayleigh_field(bounds_mod.rayleigh_bounds(seq, poly, order))),
            ("square_norm_bound", lambda: {
                "value": bounds_mod.rayleigh_bounds(seq, square, sq_order).upper,
                "order": sq_order,
            }),
            ("archimedean_linear", lambda: {
                "value": bounds_mod.archimedean_bound(seq, poly, order), "order": order,
            }),
            ("archimedean_square", lambda: {
                "value": bounds_mod.archimedean_bound(seq, square, sq_order),
                "order": sq_order,
            }),
            ("membership_psd", lambda: psd_record(
                bounds_mod.quadratic_module_psd(seq, poly, order, tol=args.tol),
                format_polynomial(poly, names), order)),
            ("membership_growth", lambda: asdict(bounds_mod.quadratic_module_growth(seq, poly))),
        ):
            entry[name] = _guarded(compute)
        growth, rayleigh = entry["growth_bound"], entry["rayleigh"]
        per_poly[text] = entry

        if "error" not in rayleigh:
            lines.append(
                f"{text}: range [{rayleigh['lower']:.6g}, {rayleigh['upper']:.6g}] "
                f"(order {rayleigh['order']}, rank {rayleigh['effective_rank']})"
            )
        if "error" not in growth:
            lines.append(
                f"{text}: growth bound {growth['value']:.6g} (n_used {growth['n_used']})"
            )

    report["results"]["polynomials"] = per_poly
    for warning in warnings:
        lines.append(f"warning: {warning}")
    report["passed"] = verdict.is_psd
    _emit(report, args.out, args.quiet, lines)
    return EXIT_PASS if verdict.is_psd else EXIT_CHECK_FAILED


def _cmd_certify(args) -> int:
    _finite(args, "tol")
    inputs = {}
    seq = MomentSequence.from_text(_read_text(args.moments, inputs, "moments"))
    config = _load_json(args.config, inputs, "config")
    results = run_check_config(seq, config, default_tol=args.tol)
    report = _report_skeleton("certify", inputs, {})
    lines = []
    all_passed = True
    rendered = []
    for name, check in results:
        rendered.append({"check": name, **_check_report_dict(check)})
        all_passed = all_passed and check.passed
        lines.append(
            f"{name}: {'PASS' if check.passed else 'FAIL'} "
            f"({check.attempted} checked, {check.skipped} skipped)"
        )
        for violation in check.violations:
            lines.append(f"  violation: {violation.description} -> {violation.value:.6g}")
    report["results"]["checks"] = rendered
    report["passed"] = all_passed
    _emit(report, args.out, args.quiet, lines)
    return EXIT_PASS if all_passed else EXIT_CHECK_FAILED


def _cmd_spectral(args) -> int:
    inputs = {}
    doc = _load_json(args.operator, inputs, "operator")
    try:
        matrix = np.array(doc["matrix"], dtype=float)
        vector = np.array(doc["vector"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc
    if matrix.ndim != 2:
        raise ValueError(f"operator matrix must be two-dimensional, got shape {matrix.shape}")
    order = matrix.shape[0]
    k = args.nodes if args.nodes is not None else order
    if k < 1:
        raise ValueError(f"--nodes must be >= 1, got {k}")
    report = _report_skeleton("spectral", inputs, {"nodes": k})
    warnings = report["warnings"]
    if k > order:
        # the moments of an order-N operator support at most N nodes
        warnings.append(f"requested {k} nodes but the operator has order {order}; reduced")
        k = order
    matrix = SymMatrix(matrix)  # symmetrized once; the four routines share it
    moments = operator_moments(matrix, vector, 2 * k).y.tolist()
    alpha, beta = rayleigh_interval(matrix)
    measure = operator_rule(matrix, vector, k)
    if len(measure.nodes) < k:
        warnings.append(f"requested {k} nodes but rank supports {len(measure.nodes)}; reduced")
        k = len(measure.nodes)
    residual = max(
        abs(measure.integrate_power(j) - moments[j]) / (1.0 + abs(moments[j]))
        for j in range(2 * k)
    )
    contained = bool(
        np.all(measure.nodes >= alpha - NODE_CONTAINMENT_TOL)
        and np.all(measure.nodes <= beta + NODE_CONTAINMENT_TOL)
    )
    lower, upper = chebyshev_extremes(matrix, vector, (alpha, beta), k - 1)
    pencil_residual = max(abs(lower - float(measure.nodes[0])),
                          abs(upper - float(measure.nodes[-1])))
    passed = (residual <= SPECTRAL_RESIDUAL_TOL and contained
              and pencil_residual <= SPECTRAL_RESIDUAL_TOL)
    report["results"] = {
        "moments": moments,
        "rayleigh_interval": [alpha, beta],
        "nodes": [float(x) for x in measure.nodes],
        "weights": [float(x) for x in measure.weights],
        "moment_match_residual": residual,
        "pencil_agreement_residual": pencil_residual,
        "nodes_contained": contained,
    }
    report["passed"] = passed
    lines = [
        f"interval: [{alpha:.6g}, {beta:.6g}]",
        "nodes: " + ", ".join(f"{x:.10g}" for x in measure.nodes),
        "weights: " + ", ".join(f"{w:.10g}" for w in measure.weights),
        f"moment match residual: {residual:.3e}",
        f"pencil agreement residual: {pencil_residual:.3e}",
        f"{'PASS' if passed else 'FAIL'}",
    ]
    lines.extend(f"warning: {w}" for w in warnings)
    _emit(report, args.out, args.quiet, lines)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def _cmd_disc(args) -> int:
    _finite(args, "radius", "constant")
    inputs = {}
    doc = _load_json(args.moments, inputs, "moments")
    if "atoms" in doc:
        atoms, max_level = complex_atoms_from_document(doc)
        table = from_complex_atoms(atoms, max_level)
    else:
        table = ComplexMomentFunction.from_document(doc)
    report = _report_skeleton(
        "disc", inputs, {"radius": args.radius, "constant": args.constant}
    )
    verdict = psd_kernel_check(table)
    check = disc_check(table, args.radius, args.constant)
    growth = diagonal_growth_bound(table, SemigroupElement(0, 1))
    report["results"] = {
        "kernel_psd": psd_record(verdict, "1", table.max_level // 2),
        "disc": _check_report_dict(check),
        "diagonal_growth": asdict(growth),
    }
    if growth.clamped:
        report["warnings"].append("negative diagonal values clamped to zero")
    report["passed"] = check.passed
    lines = [
        f"kernel psd (level {table.max_level // 2}): "
        f"{'PASS' if verdict.is_psd else 'FAIL'} (min eigenvalue {verdict.min_eigenvalue:.6g})",
        f"diagonal growth bound: {growth.value:.10g} (n_used {growth.n_used})",
        f"disc check (radius {args.radius:g}, constant {args.constant:g}): "
        f"{'PASS' if check.passed else 'FAIL'}",
    ]
    for violation in check.violations:
        lines.append(f"  violation: {violation.description}")
    lines.extend(f"warning: {w}" for w in report["warnings"])
    _emit(report, args.out, args.quiet, lines)
    return EXIT_PASS if check.passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ValueErrors, so that
    ``main`` prints them as its one ``error:`` line, without a usage block.
    Subcommand parsers are of the same class."""

    def error(self, message):
        raise ValueError(message)


#: name: (help, handler, ((flag, add_argument keywords), ...)), in the order
#: of ``momint --help``; every command also takes ``--quiet``, last
COMMANDS = {
    "oracle": ("moments of a known measure", _cmd_oracle, (
        ("measure", {"help": "measure document (atoms or box)"}),
        ("--degree", {"type": int, "required": True, "help": "even max degree"}),
        ("--out", {"required": True, "help": "moment document to write"}),
    )),
    "analyze": ("bounds and verdicts for a moment document", _cmd_analyze, (
        ("moments", {}),
        ("--poly", {"action": "append", "help": "polynomial text (repeatable)"}),
        ("--vars", {"help": "comma-separated variable names"}),
        ("--order", {"type": int, "help": "matrix order (default: up to 4)"}),
        ("--tol", {"type": float, "help": "PSD tolerance override"}),
        ("--out", {}),
    )),
    "certify": ("run a check configuration", _cmd_certify, (
        ("moments", {}),
        ("config", {}),
        ("--tol", {"type": float, "help": "default check tolerance"}),
        ("--out", {}),
    )),
    "spectral": ("operator moments and quadrature", _cmd_spectral, (
        ("operator", {"help": "document with 'matrix' and 'vector'"}),
        ("--nodes", {"type": int, "help": "node count (default: order)"}),
        ("--out", {}),
    )),
    "disc": ("complex moment table checks", _cmd_disc, (
        ("moments", {"help": "complex moment or atoms document"}),
        ("--radius", {"type": float, "required": True}),
        ("--constant", {"type": float, "required": True}),
        ("--out", {}),
    )),
}


@functools.lru_cache(maxsize=len(COMMANDS) + 1)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone when it names a command, else of all
    five, so that ``--help``, a missing and an unknown command read as they
    do with every command registered. Built once per process and shared: a
    parser keeps no state between ``parse_args`` calls."""
    parser = _Parser(
        prog="momint",
        description="Finite-truncation analysis of moment functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        help_text, handler, arguments = COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            command_parser.add_argument(flag, **kwargs)
        command_parser.add_argument("--quiet", action="store_true")
        command_parser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the cache holds the six parsers: one per command, and None's
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    except SystemExit:  # --help
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # an overflow ends in the ValueError of a finiteness check, not in
        # a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, OverflowError,
            MomintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
