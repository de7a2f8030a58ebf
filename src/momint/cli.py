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
field whose computation raises a MomintError is ``{"error": message}``
instead. Reports are strict JSON; a saturated limit is written as null.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bounds as bounds_mod
from .certify import run_check_config
from .exceptions import MomintError, RankDeficiencyError
from .moments import MeasureSpec, MomentSequence, from_measure
from .polynomials import Polynomial, default_variable_names, parse_polynomial
from .semigroup import (
    ComplexMomentFunction,
    SemigroupElement,
    complex_atoms_from_document,
    diagonal_growth_bound,
    disc_check,
    from_complex_atoms,
    psd_kernel_check,
)
from .spectral import operator_moments, quadrature_from_moments, rayleigh_interval

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_ANALYZE_ORDER_CAP = 4


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_json(path: str, doc: dict):
    """One line of sorted-key, strict JSON: a non-finite number raises
    ValueError before the file is opened. ``json.dumps`` without ``indent``
    runs the C encoder; ``json.dump`` and any ``indent`` fall back to
    Python's."""
    text = json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(report: dict, out: str | None, quiet: bool, lines: list[str]):
    if out:
        _write_json(out, report)
    if not quiet:
        for line in lines:
            print(line)


def _report_skeleton(command: str, inputs: dict, parameters: dict) -> dict:
    return {
        "command": command,
        "inputs": {
            name: {"path": path, "sha256": _digest(path)} for name, path in inputs.items()
        },
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
    _write_json(args.out, seq.to_document())
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
    if requested is not None and order < requested:
        warnings.append(
            f"{label}: order reduced from {requested} to {order} by the degree budget"
        )
    return max(order, 0)


def _guarded(compute) -> dict:
    """The report field that ``compute()`` builds, or ``{"error": message}``
    when it raises a MomintError; any other error ends the command."""
    try:
        return compute()
    except MomintError as exc:
        return {"error": str(exc)}


def _rayleigh_field(rb) -> dict:
    return {"lower": rb.lower, "upper": rb.upper, "order": rb.order_used,
            "effective_rank": rb.effective_rank}


def _membership_psd_field(verdict, order: int) -> dict:
    return {"is_psd": verdict.is_psd, "min_eigenvalue": verdict.min_eigenvalue,
            "order": order}


def _cmd_analyze(args) -> int:
    if args.order is not None and args.order < 0:
        raise ValueError(f"--order must be >= 0, got {args.order}")
    _finite(args, "tol")
    seq = MomentSequence.from_document(_load_json(args.moments), origin=args.moments)
    names = args.vars.split(",") if args.vars else default_variable_names(seq.dimension)
    if len(names) != seq.dimension:
        raise ValueError(
            f"{len(names)} variable names for dimension {seq.dimension}"
        )
    if args.poly:
        polys = [(text, parse_polynomial(text, names)) for text in args.poly]
    else:
        polys = [
            (names[i], Polynomial.variable(seq.dimension, i))
            for i in range(seq.dimension)
        ]
    report = _report_skeleton(
        "analyze",
        {"moments": args.moments},
        {"order": args.order, "polynomials": [text for text, _ in polys]},
    )
    warnings = report["warnings"]
    lines = []

    psd_order = _admissible_order(seq, 0, args.order, warnings, "psd")
    one = Polynomial.constant(seq.dimension, 1.0)
    verdict = bounds_mod.quadratic_module_psd(seq, one, psd_order, args.tol)
    report["results"]["psd"] = {
        "order": psd_order,
        "is_psd": verdict.is_psd,
        "min_eigenvalue": verdict.min_eigenvalue,
        "tolerance": verdict.tolerance_used,
    }
    lines.append(
        f"psd (order {psd_order}): {'PASS' if verdict.is_psd else 'FAIL'} "
        f"(min eigenvalue {verdict.min_eigenvalue:.6g})"
    )
    if not seq.normalized:
        warnings.append("sequence has L(1) <= 0; growth-based bounds unavailable")

    per_poly: dict = {}
    box_entries: dict = {}
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
            # a failed linear bound stands for both archimedean fields
            ("archimedean_square", lambda: entry["archimedean_linear"]
                if "error" in entry["archimedean_linear"] else {
                    "value": bounds_mod.archimedean_bound(seq, square, sq_order),
                    "order": sq_order,
                }),
            ("membership_psd", lambda: _membership_psd_field(
                bounds_mod.quadratic_module_psd(seq, poly, order, tol=args.tol), order)),
            ("membership_growth", lambda: asdict(bounds_mod.quadratic_module_growth(seq, poly))),
        ):
            entry[name] = _guarded(compute)
        growth, rayleigh = entry["growth_bound"], entry["rayleigh"]
        if "error" not in rayleigh:
            box_entries[text] = {"lower": rayleigh["lower"], "upper": rayleigh["upper"],
                                 "order": order}
        # the growth bound against max(upper, -lower) of the Rayleigh
        # interval: in the limit they agree, so the gap is truncation error
        failed = growth if "error" in growth else rayleigh
        if "error" in failed:
            entry["growth_vs_rayleigh"] = {"error": failed["error"]}
        else:
            entry["growth_vs_rayleigh"] = {
                "growth": growth["value"],
                "upper": rayleigh["upper"],
                "lower": rayleigh["lower"],
                "gap": abs(growth["value"] - max(rayleigh["upper"], -rayleigh["lower"])),
            }
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
    report["results"]["support_box"] = box_entries
    for warning in warnings:
        lines.append(f"warning: {warning}")
    report["passed"] = verdict.is_psd
    _emit(report, args.out, args.quiet, lines)
    return EXIT_PASS if verdict.is_psd else EXIT_CHECK_FAILED


def _cmd_certify(args) -> int:
    _finite(args, "tol")
    seq = MomentSequence.from_document(_load_json(args.moments), origin=args.moments)
    config = _load_json(args.config)
    results = run_check_config(seq, config, default_tol=args.tol)
    report = _report_skeleton(
        "certify", {"moments": args.moments, "config": args.config}, {}
    )
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
    doc = _load_json(args.operator)
    try:
        matrix = np.array(doc["matrix"], dtype=float)
        vector = np.array(doc["vector"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc
    if matrix.ndim != 2:
        raise ValueError(f"operator matrix must be two-dimensional, got shape {matrix.shape}")
    k = args.nodes if args.nodes is not None else matrix.shape[0]
    report = _report_skeleton("spectral", {"operator": args.operator}, {"nodes": k})
    warnings = report["warnings"]
    seq = operator_moments(matrix, vector, 2 * k)
    alpha, beta = rayleigh_interval(matrix)
    try:
        measure = quadrature_from_moments(seq, k)
    except RankDeficiencyError as exc:
        if not exc.achievable:
            raise
        warnings.append(
            f"requested {k} nodes but rank supports {exc.achievable}; reduced"
        )
        k = exc.achievable
        measure = quadrature_from_moments(seq, k)
    moments = seq.y.tolist()
    residual = max(
        abs(measure.integrate_power(j) - moments[j]) / (1.0 + abs(moments[j]))
        for j in range(2 * k)
    )
    contained = bool(
        np.all(measure.nodes >= alpha - 1e-9) and np.all(measure.nodes <= beta + 1e-9)
    )
    pencil_order = k - 1
    rb = bounds_mod.rayleigh_bounds(seq, Polynomial.variable(1, 0), pencil_order)
    pencil_residual = max(
        abs(rb.lower - float(measure.nodes[0])), abs(rb.upper - float(measure.nodes[-1]))
    )
    passed = residual <= 1e-8 and contained and pencil_residual <= 1e-8
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
    doc = _load_json(args.moments)
    if "atoms" in doc:
        atoms, max_level = complex_atoms_from_document(doc)
        table = from_complex_atoms(atoms, max_level)
    else:
        table = ComplexMomentFunction.from_document(doc)
    report = _report_skeleton(
        "disc", {"moments": args.moments}, {"radius": args.radius, "constant": args.constant}
    )
    verdict = psd_kernel_check(table)
    check = disc_check(table, args.radius, args.constant)
    growth = diagonal_growth_bound(table, SemigroupElement(0, 1))
    report["results"] = {
        "kernel_psd": {
            "level": table.max_level // 2,
            "is_psd": verdict.is_psd,
            "min_eigenvalue": verdict.min_eigenvalue,
        },
        "disc": _check_report_dict(check),
        "diagonal_growth": {
            "value": growth.value,
            "n_used": growth.n_used,
            "per_power": list(growth.per_power),
        },
    }
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
    _emit(report, args.out, args.quiet, lines)
    return EXIT_PASS if check.passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ValueErrors, so that
    ``main`` prints them as its one ``error:`` line, without a usage block.
    Subcommand parsers are of the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momint",
        description="Finite-truncation analysis of moment functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser("oracle", help="moments of a known measure")
    oracle.add_argument("measure", help="measure document (atoms or box)")
    oracle.add_argument("--degree", type=int, required=True, help="even max degree")
    oracle.add_argument("--out", required=True, help="moment document to write")
    oracle.add_argument("--quiet", action="store_true")
    oracle.set_defaults(func=_cmd_oracle)

    analyze = sub.add_parser("analyze", help="bounds and verdicts for a moment document")
    analyze.add_argument("moments")
    analyze.add_argument("--poly", action="append", help="polynomial text (repeatable)")
    analyze.add_argument("--vars", help="comma-separated variable names")
    analyze.add_argument("--order", type=int, help="matrix order (default: up to 4)")
    analyze.add_argument("--tol", type=float, help="PSD tolerance override")
    analyze.add_argument("--out")
    analyze.add_argument("--quiet", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    certify = sub.add_parser("certify", help="run a check configuration")
    certify.add_argument("moments")
    certify.add_argument("config")
    certify.add_argument("--tol", type=float, help="default check tolerance")
    certify.add_argument("--out")
    certify.add_argument("--quiet", action="store_true")
    certify.set_defaults(func=_cmd_certify)

    spectral = sub.add_parser("spectral", help="operator moments and quadrature")
    spectral.add_argument("operator", help="document with 'matrix' and 'vector'")
    spectral.add_argument("--nodes", type=int, help="node count (default: order)")
    spectral.add_argument("--out")
    spectral.add_argument("--quiet", action="store_true")
    spectral.set_defaults(func=_cmd_spectral)

    disc = sub.add_parser("disc", help="complex moment table checks")
    disc.add_argument("moments", help="complex moment or atoms document")
    disc.add_argument("--radius", type=float, required=True)
    disc.add_argument("--constant", type=float, required=True)
    disc.add_argument("--out")
    disc.add_argument("--quiet", action="store_true")
    disc.set_defaults(func=_cmd_disc)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
