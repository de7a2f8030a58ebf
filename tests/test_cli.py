import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from momint import linalg
from momint.cli import COMMANDS, build_parser, main
from momint.moments import MomentSequence
from momint.polynomials import enumerate_monomials


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def box_measure(tmp_path):
    return write(tmp_path / "measure.json", {"box": {"bounds": [[0.0, 1.0]], "order": 6}})


@pytest.fixture
def two_atom_measure(tmp_path):
    return write(
        tmp_path / "atoms.json",
        {"atoms": [{"point": [-1.0], "weight": 0.5}, {"point": [1.0], "weight": 0.5}]},
    )


def test_oracle_writes_moment_document(tmp_path, box_measure, capsys):
    out = tmp_path / "moments.json"
    assert main(["oracle", box_measure, "--degree", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 1 and doc["max_degree"] == 8
    table = {tuple(m["index"]): m["value"] for m in doc["moments"]}
    for k in range(9):
        assert abs(table[(k,)] - 1.0 / (k + 1)) <= 1e-14
    assert "wrote" in capsys.readouterr().out


def test_oracle_order_too_small(tmp_path, capsys):
    measure = write(tmp_path / "m.json", {"box": {"bounds": [[0.0, 1.0]], "order": 3}})
    out = tmp_path / "o.json"
    assert main(["oracle", measure, "--degree", "8", "--out", str(out)]) == 2
    assert "order" in capsys.readouterr().err


def test_oracle_atoms(tmp_path, two_atom_measure):
    out = tmp_path / "moments.json"
    assert main(["oracle", two_atom_measure, "--degree", "4", "--out", str(out), "--quiet"]) == 0
    table = {tuple(m["index"]): m["value"] for m in json.loads(out.read_text())["moments"]}
    assert table[(1,)] == 0.0 and table[(2,)] == 1.0


def test_analyze_round_trip(tmp_path, box_measure, capsys):
    moments = tmp_path / "moments.json"
    assert main(["oracle", box_measure, "--degree", "10", "--out", str(moments), "--quiet"]) == 0
    report_path = tmp_path / "report.json"
    code = main(
        ["analyze", str(moments), "--poly", "t", "--order", "4", "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    box = report["results"]["polynomials"]["t"]["rayleigh"]
    root = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    assert abs(box["lower"] - (1.0 - root) / 2.0) <= 1e-8
    assert abs(box["upper"] - (1.0 + root) / 2.0) <= 1e-8
    entry = report["results"]["polynomials"]["t"]
    assert entry["growth_bound"]["n_used"] == 5
    assert "PASS" in capsys.readouterr().out


def test_analyze_flags_non_psd(tmp_path):
    doc = {
        "dimension": 1,
        "max_degree": 2,
        "moments": [
            {"index": [0], "value": 1.0},
            {"index": [1], "value": 0.0},
            {"index": [2], "value": -1.0},
        ],
    }
    moments = write(tmp_path / "bad.json", doc)
    assert main(["analyze", moments, "--quiet"]) == 1


def test_analyze_symmetric_atoms_zero_gap(tmp_path, two_atom_measure):
    moments = tmp_path / "moments.json"
    main(["oracle", two_atom_measure, "--degree", "8", "--out", str(moments), "--quiet"])
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(moments), "--poly", "t", "--out", str(report_path), "--quiet"]) == 0
    report = json.loads(report_path.read_text())
    entry = report["results"]["polynomials"]["t"]
    growth, rayleigh = entry["growth_bound"]["value"], entry["rayleigh"]
    assert abs(growth - max(rayleigh["upper"], -rayleigh["lower"])) <= 1e-10
    assert abs(entry["rayleigh"]["lower"] + 1.0) <= 1e-10
    assert abs(entry["rayleigh"]["upper"] - 1.0) <= 1e-10


def test_certify_ball_exit_codes(tmp_path):
    atoms = {
        "atoms": [
            {"point": [2.0, 0.0], "weight": 0.25},
            {"point": [-2.0, 0.0], "weight": 0.25},
            {"point": [0.0, 2.0], "weight": 0.25},
            {"point": [0.0, -2.0], "weight": 0.25},
        ]
    }
    measure = write(tmp_path / "circle.json", atoms)
    moments = tmp_path / "moments.json"
    main(["oracle", measure, "--degree", "8", "--out", str(moments), "--quiet"])

    passing = write(
        tmp_path / "pass.json",
        {"checks": [{"check": "ball", "radius": 2.0, "order": 1}]},
    )
    assert main(["certify", str(moments), passing, "--quiet"]) == 0

    failing = write(
        tmp_path / "fail.json",
        {"checks": [{"check": "ball", "radius": 1.9, "order": 1}]},
    )
    assert main(["certify", str(moments), failing, "--quiet"]) == 1


def test_certify_schmudgen_names_offending_subset(tmp_path, capsys):
    measure = write(tmp_path / "dirac2.json", {"atoms": [{"point": [2.0], "weight": 1.0}]})
    moments = tmp_path / "moments.json"
    main(["oracle", measure, "--degree", "6", "--out", str(moments), "--quiet"])
    config = write(
        tmp_path / "config.json",
        {"checks": [{"check": "schmudgen", "constraints": ["t", "1 - t"], "order": 1}]},
    )
    assert main(["certify", str(moments), config]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "-t + 1" in out


def test_certify_empty_checks_is_usage_error(tmp_path, box_measure, capsys):
    moments = tmp_path / "moments.json"
    main(["oracle", box_measure, "--degree", "8", "--out", str(moments), "--quiet"])
    config = write(tmp_path / "empty.json", {"checks": []})
    assert main(["certify", str(moments), config, "--quiet"]) == 2
    assert "no checks" in capsys.readouterr().err


def test_spectral_diag_fixture(tmp_path, capsys):
    operator = write(
        tmp_path / "op.json",
        {"matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], "vector": [1.0, 1.0, 1.0]},
    )
    report_path = tmp_path / "report.json"
    assert main(["spectral", operator, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert max(abs(n - e) for n, e in zip(report["results"]["nodes"], [1, 2, 3])) <= 1e-8
    assert max(abs(w - 1 / 3) for w in report["results"]["weights"]) <= 1e-8
    assert report["results"]["rayleigh_interval"] == [1.0, 3.0]
    assert "nodes" in capsys.readouterr().out


def test_spectral_identity_operator(tmp_path):
    operator = write(
        tmp_path / "op.json", {"matrix": [[1.0, 0.0], [0.0, 1.0]], "vector": [0.6, 0.8]}
    )
    report_path = tmp_path / "report.json"
    assert main(["spectral", operator, "--out", str(report_path), "--quiet"]) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["nodes"] == [1.0]
    assert "reduced" in " ".join(report["warnings"])


def test_spectral_requested_nodes_reduced(tmp_path, capsys):
    operator = write(
        tmp_path / "op.json",
        {"matrix": [[2.0, 0.0], [0.0, 5.0]], "vector": [1.0, 1.0]},
    )
    assert main(["spectral", operator, "--nodes", "4"]) == 0
    assert "reduced" in capsys.readouterr().out


def test_spectral_nodes_above_the_order_are_reduced_before_any_moment(tmp_path, capsys):
    operator = write(
        tmp_path / "op.json",
        {"matrix": [[2.0, 0.0], [0.0, 5.0]], "vector": [1.0, 1.0]},
    )
    out = tmp_path / "report.json"
    started = time.perf_counter()
    code = main(["spectral", operator, "--nodes", str(10**13), "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code in (0, 1)
    assert "requested 10000000000000 nodes but the operator has order 2; reduced" in (
        capsys.readouterr().out)
    report = json.loads(out.read_text())
    assert report["parameters"]["nodes"] == 10**13
    assert len(report["results"]["moments"]) <= 2 * 2 + 1
    assert report["results"]["nodes"] == pytest.approx([2.0, 5.0])


def test_spectral_symmetrizes_the_operator_once(tmp_path, monkeypatch):
    # with --nodes below the order, chebyshev_extremes' own eigensolve is
    # smaller than T, so every n x n SymMatrix input is T itself
    n = 5
    rng = np.random.default_rng(40)
    matrix = rng.normal(size=(n, n))
    operator = write(tmp_path / "op.json",
                     {"matrix": (matrix + matrix.T).tolist(), "vector": [1.0] * n})
    normalized = []
    original = linalg.SymMatrix.__init__

    def counting(self, entries):
        if not isinstance(entries, linalg.SymMatrix) and np.shape(entries) == (n, n):
            normalized.append(entries)
        original(self, entries)

    monkeypatch.setattr(linalg.SymMatrix, "__init__", counting)
    assert main(["spectral", operator, "--nodes", "3", "--quiet"]) in (0, 1)
    assert len(normalized) == 1


@pytest.mark.parametrize("nodes", ["-1", "0"])
def test_spectral_nodes_below_one_is_usage_error(tmp_path, capsys, nodes):
    operator = write(tmp_path / "op.json", {"matrix": [[1.0]], "vector": [1.0]})
    assert main(["spectral", operator, "--nodes", nodes, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: --nodes must be >= 1, got {nodes}\n"


def test_spectral_zero_vector_is_usage_error(tmp_path, capsys):
    operator = write(tmp_path / "op.json", {"matrix": [[1.0]], "vector": [0.0]})
    assert main(["spectral", operator, "--quiet"]) == 2
    assert "nonzero" in capsys.readouterr().err


def test_disc_atom_fixtures(tmp_path):
    inside = write(
        tmp_path / "half.json",
        {"max_level": 6, "atoms": [{"re": 0.5, "im": 0.0, "weight": 1.0}]},
    )
    assert main(["disc", inside, "--radius", "0.5", "--constant", "1.0", "--quiet"]) == 0

    outside = write(
        tmp_path / "unit.json",
        {"max_level": 6, "atoms": [{"re": 1.0, "im": 0.0, "weight": 1.0}]},
    )
    assert main(["disc", outside, "--radius", "0.5", "--constant", "1.0", "--quiet"]) == 1


def test_disc_moment_document(tmp_path):
    from momint.semigroup import from_complex_atoms

    f = from_complex_atoms([(0.25 + 0.25j, 1.0)], 4)
    doc = write(tmp_path / "table.json", f.to_document())
    report_path = tmp_path / "report.json"
    assert main([
        "disc", doc, "--radius", "0.5", "--constant", "1.0", "--out", str(report_path), "--quiet",
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["kernel_psd"]["is_psd"] is True
    assert report["results"]["diagonal_growth"]["value"] <= 0.5


def test_disc_reports_clamped_diagonal_values(tmp_path, capsys):
    # f(1, 1) = -0.5: its root is taken of 0 and the report says so
    values = [{"m": m, "n": n, "re": {(0, 0): 1.0, (1, 1): -0.5}.get((m, n), 0.0), "im": 0.0}
              for m in range(3) for n in range(3)]
    doc = write(tmp_path / "table.json", {"max_level": 2, "values": values})
    report_path = tmp_path / "report.json"
    assert main(["disc", doc, "--radius", "1", "--constant", "1", "--out", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["results"]["diagonal_growth"] == {
        "value": 0.0, "n_used": 2, "per_power": [0.0, 0.0], "clamped": True}
    assert report["warnings"] == ["negative diagonal values clamped to zero"]
    assert "warning: negative diagonal values clamped to zero" in capsys.readouterr().out


def test_disc_radius_beyond_the_float_range_passes(tmp_path, capsys):
    # radius^(2n) overflows a float from n = 6: the limit saturates to
    # infinity instead of raising OverflowError
    table = write(
        tmp_path / "atoms.json",
        {"max_level": 12, "atoms": [{"re": 0.5, "im": 0.25, "weight": 1.0}]},
    )
    assert main(["disc", table, "--radius", "1e30", "--constant", "1", "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_disc_saturated_limits_are_null_in_strict_json(tmp_path, capsys):
    table = write(
        tmp_path / "atoms.json",
        {"max_level": 12, "atoms": [{"re": 0.5, "im": 0.25, "weight": 1.0}]},
    )
    out = tmp_path / "disc.json"
    argv = ["disc", table, "--radius", "1e30", "--constant", "1", "--out", str(out), "--quiet"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    diagonal = report["results"]["disc"]["details"][1]["diagonal"]
    assert [entry["n"] for entry in diagonal] == list(range(13))
    assert all((entry["limit"] is None) == (entry["n"] >= 6) for entry in diagonal)


def test_growth_bound_beyond_the_float_range_passes(tmp_path, capsys):
    # bound^2 already overflows a float: the limit saturates to infinity
    moments = write(tmp_path / "moments.json", one_dim_moments())
    config = write(tmp_path / "growth.json", {"checks": [
        {"check": "growth", "generators": [{"poly": "t", "bound": 1e200}]}]})
    assert main(["certify", moments, config, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_analyze_finds_a_bound_where_the_grid_is_finer_than_the_floats(tmp_path):
    # floats near 6e11 lie 1.2e-4 apart, far more than the grid: the bound
    # starts at the top eigenvalue itself
    moments = write(tmp_path / "moments.json", one_dim_moments(
        moments=[{"index": [k], "value": 1.0} for k in range(3)]))
    report_path = tmp_path / "report.json"
    assert main(["analyze", moments, "--poly", "6e11*t", "--out", str(report_path),
                 "--quiet"]) == 0
    entry = json.loads(report_path.read_text())["results"]["polynomials"]["6e11*t"]
    assert entry["archimedean_linear"]["value"] == pytest.approx(6e11, rel=1e-12)
    assert entry["rayleigh"]["upper"] == pytest.approx(6e11, rel=1e-12)


def test_analyze_keeps_the_growth_bound_of_a_tiny_polynomial(tmp_path):
    measure = write(tmp_path / "atoms.json",
                    {"atoms": [{"point": [0.5], "weight": 1.0},
                               {"point": [-0.3], "weight": 2.0}]})
    moments = tmp_path / "moments.json"
    main(["oracle", measure, "--degree", "8", "--out", str(moments), "--quiet"])
    report_path = tmp_path / "report.json"
    main(["analyze", str(moments), "--poly", "1e-300*t", "--poly", "t",
          "--out", str(report_path), "--quiet"])
    entries = json.loads(report_path.read_text())["results"]["polynomials"]
    tiny, unit = entries["1e-300*t"]["growth_bound"], entries["t"]["growth_bound"]
    # every even power underflows; the bound is 1e-300 times that of t
    assert tiny["value"] > 0.0
    assert tiny["value"] == pytest.approx(1e-300 * unit["value"], rel=1e-12)


def test_analyze_reports_a_bound_beyond_1e12_as_a_value(tmp_path, capsys):
    measure = write(tmp_path / "atoms.json",
                    {"atoms": [{"point": [0.5], "weight": 1.0},
                               {"point": [-0.3], "weight": 2.0}]})
    moments = tmp_path / "moments.json"
    main(["oracle", measure, "--degree", "8", "--out", str(moments), "--quiet"])
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(moments), "--poly", "1e13*t",
                 "--out", str(report_path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    entry = json.loads(report_path.read_text())["results"]["polynomials"]["1e13*t"]
    # no ceiling: the bounds are 5e12 and its square, from the pencil's top
    assert entry["rayleigh"]["upper"] == pytest.approx(5e12)
    assert entry["archimedean_linear"] == {
        "value": pytest.approx(entry["rayleigh"]["upper"], rel=1e-15), "order": 3}
    assert entry["archimedean_square"] == {
        "value": pytest.approx(entry["square_norm_bound"]["value"], rel=1e-15), "order": 3}
    for name in ("growth_bound", "membership_psd", "membership_growth"):
        assert "error" not in entry[name]
    assert entry["growth_bound"]["value"] > 0.0
    assert entry["membership_psd"]["is_psd"] is False
    assert entry["membership_growth"]["holds"] is False


def signed_atom_table(rng, dimension, max_degree, signed):
    """The moment document of a few random atoms in [-1.5, 1.5]^dimension;
    ``signed`` makes the first weight negative."""
    points = rng.uniform(-1.5, 1.5, (int(rng.integers(2, 7)), dimension))
    weights = rng.uniform(0.2, 1.5, len(points))
    if signed:
        weights[0] = -weights[0]
    moments = MomentSequence(dimension, max_degree, {
        alpha: float(np.sum(weights * np.prod(points ** np.array(alpha), axis=1)))
        for alpha in enumerate_monomials(dimension, max_degree)})
    return moments.to_document()


def test_analyze_archimedean_fields_repeat_their_pencils(tmp_path):
    # each archimedean field is the upper bound of its own pencil, value for
    # value and error for error: genuine and signed tables, and polynomials
    # past the degree budget
    rng = np.random.default_rng(29)
    for i in range(24):
        d = i % 3 + 1
        moments = write(tmp_path / f"{i}.json", signed_atom_table(rng, d, 6, signed=i % 2 == 1))
        polys = ["x1", f"x1*x{d} - 0.5", "x1^3", "x1^5 + 1"] if d > 1 else ["t", "t^3", "t^5"]
        report_path = tmp_path / f"{i}.report.json"
        args = ["analyze", moments, "--out", str(report_path), "--quiet"]
        if i % 4 == 2:
            args += ["--order", "2"]
        main(args + [arg for poly in polys for arg in ("--poly", poly)])
        for entry in json.loads(report_path.read_text())["results"]["polynomials"].values():
            rayleigh = entry["rayleigh"]
            assert entry["archimedean_linear"] == (rayleigh if "error" in rayleigh else {
                "value": rayleigh["upper"], "order": rayleigh["order"]})
            assert entry["archimedean_square"] == entry["square_norm_bound"]


def test_analyze_warns_of_no_negative_order(tmp_path, capsys):
    measure = write(tmp_path / "atoms.json",
                    {"atoms": [{"point": [0.5], "weight": 1.0},
                               {"point": [-0.3], "weight": 2.0}]})
    moments = tmp_path / "moments.json"
    main(["oracle", measure, "--degree", "8", "--out", str(moments), "--quiet"])
    report_path = tmp_path / "report.json"
    main(["analyze", str(moments), "--poly", "t^5", "--order", "2", "--out", str(report_path)])
    out = capsys.readouterr().out
    report = json.loads(report_path.read_text())
    # the linear field's order still shrinks with a warning; no order of the
    # square fits, and its field names the degree
    assert report["warnings"] == ["t^5: order reduced from 2 to 1 by the degree budget"]
    assert "warning: t^5: order reduced from 2 to 1 by the degree budget\n" in out
    assert not re.search(r"to -\d", out)
    assert report["results"]["polynomials"]["t^5"]["square_norm_bound"] == {
        "error": "matrix order 0 with shift degree 10 needs moments of degree 10 > 8"}


def test_analyze_all_zero_table_reports_every_bound_as_unavailable(tmp_path, capsys):
    moments = write(tmp_path / "zero.json", one_dim_moments(
        max_degree=4, moments=[{"index": [k], "value": 0.0} for k in range(5)]))
    report_path = tmp_path / "report.json"
    assert main(["analyze", moments, "--out", str(report_path)]) == 0
    warning = "sequence has L(1) <= 0; growth-based bounds unavailable"
    out, err = capsys.readouterr()
    assert err == "" and f"warning: {warning}\n" in out
    report = json.loads(report_path.read_text())
    assert report["warnings"] == [warning] and report["passed"] is True
    assert report["results"]["psd"]["is_psd"] is True
    entry = report["results"]["polynomials"]["t"]
    # the archimedean bound whitens through the pencil and carries its error
    zero_rank = {"error": "pencil base matrix has zero effective rank"}
    assert entry["rayleigh"] == entry["square_norm_bound"] == zero_rank
    assert entry["archimedean_linear"] == entry["archimedean_square"] == zero_rank
    for name in ("growth_bound", "membership_growth"):
        assert entry[name]["error"].startswith("operation requires unit mass")
    assert entry["membership_psd"] == {"shift": "t", "order": 1, "is_psd": True,
                                       "min_eigenvalue": 0.0, "tolerance": 1e-9}


def test_analyze_signed_table_refuses_both_archimedean_bounds_with_the_pencil_error(tmp_path):
    # delta(-1) - 0.5 delta(0) + delta(1): the plain matrix of order 2 is
    # indefinite, so no bound on its range means anything
    values = [1.5, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
    moments = write(tmp_path / "signed.json", one_dim_moments(
        max_degree=6, moments=[{"index": [k], "value": v} for k, v in enumerate(values)]))
    report_path = tmp_path / "report.json"
    assert main(["analyze", moments, "--poly", "t", "--out", str(report_path), "--quiet"]) == 1
    entry = json.loads(report_path.read_text())["results"]["polynomials"]["t"]
    assert entry["rayleigh"]["error"].startswith("pencil base matrix is not PSD")
    assert entry["archimedean_linear"] == entry["archimedean_square"] == entry["rayleigh"]


def test_analyze_wrong_number_of_variable_names_is_usage_error(tmp_path, capsys):
    moments = write(tmp_path / "moments.json", one_dim_moments())
    report_path = tmp_path / "report.json"
    assert main(["analyze", moments, "--vars", "x,y", "--out", str(report_path)]) == 2
    assert capsys.readouterr().err == "error: 2 variable names for dimension 1\n"
    assert not report_path.exists()


@pytest.mark.parametrize("names, poly, message", [
    ("x,x", [], "duplicate variable names"),
    ("x,x", ["--poly", "x"], "duplicate variable names"),
    ("x,", [], "empty variable name"),
    (",", [], "empty variable name"),
])
def test_analyze_duplicate_or_empty_variable_names_are_usage_errors(tmp_path, capsys, names,
                                                                     poly, message):
    # without --poly each name labels its coordinate's entry: x,x kept one
    moments = moment_doc_with(tmp_path, [])
    report_path = tmp_path / "report.json"
    argv = ["analyze", moments, "--vars", names, *poly, "--out", str(report_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report_path.exists()


def test_disc_empty_table_is_usage_error(tmp_path, capsys):
    doc = write(tmp_path / "empty.json", {"max_level": 2, "values": []})
    assert main(["disc", doc, "--radius", "1.0", "--constant", "1.0", "--quiet"]) == 2
    assert capsys.readouterr().err


def test_eigensolver_failure_is_usage_error(tmp_path, box_measure, capsys, monkeypatch):
    moments = tmp_path / "moments.json"
    assert main(["oracle", box_measure, "--degree", "8", "--out", str(moments), "--quiet"]) == 0
    capsys.readouterr()

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    assert main(["analyze", str(moments), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eigensolver failed")
    assert "Traceback" not in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad), "--quiet"]) == 2
    assert main(["oracle", str(bad), "--degree", "4", "--out", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


def test_missing_file_is_usage_error(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    # the quoting of the choices that follow changed within Python 3.12
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["disc", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage: momint" in capsys.readouterr().out


def test_top_level_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help()
    assert all(name in out for name in ["oracle", "analyze", "certify", "spectral", "disc"])


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_names_the_command(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: momint {command} ")


def test_a_command_parser_registers_that_command_alone():
    (sub,) = [a for a in build_parser("disc")._actions if a.dest == "command"]
    assert list(sub.choices) == ["disc"]


def test_each_command_parser_is_built_once_per_process():
    assert build_parser("disc") is build_parser("disc")
    assert build_parser(None) is build_parser(None) is not build_parser("disc")
    assert build_parser.cache_info().maxsize == len(COMMANDS) + 1


def test_a_reused_parser_keeps_nothing_between_calls(tmp_path, box_measure, capsys):
    moments = tmp_path / "moments.json"
    assert main(["oracle", box_measure, "--degree", "8", "--out", str(moments), "--quiet"]) == 0
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["analyze", str(moments), "--poly", "t^2", "--poly", "1 - t",
                 "--order", "2", "--out", str(first), "--quiet"]) == 0
    assert main(["analyze", str(moments), "--out", str(second), "--quiet"]) == 0
    # the second call's --poly list and --order are its defaults, not the first's
    assert json.loads(first.read_text())["parameters"] == {
        "order": 2, "polynomials": ["t^2", "1 - t"]}
    assert json.loads(second.read_text())["parameters"] == {"order": None, "polynomials": ["t"]}
    capsys.readouterr()

    sequences = [
        (["analyze", str(moments), "--order", "x"], 2, "argument --order: invalid int value"),
        (["analyze", str(moments), "--quiet"], 0, ""),
        (["analyze", "--help"], 0, ""),
        (["analyze", str(moments), "--quiet"], 0, ""),
        (["frobnicate"], 2, "invalid choice: 'frobnicate'"),
        (["analyze", str(moments), "--quiet"], 0, ""),
        (["--help"], 0, ""),
        (["analyze", str(moments), "--poly", "t", "--quiet"], 0, ""),
    ]
    for argv, code, error in sequences:
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert (error in err) if error else err == "", (argv, err)


def test_module_entry_point_reads_sys_argv():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "momint.cli", "disc", "--help"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: momint disc ")


def test_report_is_deterministic(tmp_path, box_measure):
    moments = tmp_path / "moments.json"
    main(["oracle", box_measure, "--degree", "10", "--out", str(moments), "--quiet"])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", str(moments), "--poly", "t", "--out", str(r1), "--quiet"])
    main(["analyze", str(moments), "--poly", "t", "--out", str(r2), "--quiet"])
    assert r1.read_text() == r2.read_text()


def test_oracle_document_is_compact_sorted_json(tmp_path, box_measure):
    out = tmp_path / "moments.json"
    assert main(["oracle", box_measure, "--degree", "4", "--out", str(out), "--quiet"]) == 0
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def moment_doc_with(tmp_path, extra):
    doc = {
        "dimension": 2,
        "max_degree": 2,
        "moments": [
            {"index": [i, j], "value": 1.0}
            for i in range(3) for j in range(3) if i + j <= 2
        ] + extra,
    }
    return write(tmp_path / "moments.json", doc)


@pytest.mark.parametrize("extra", [
    [{"index": [1.5, 0], "value": 9.0}],
    [{"index": [1, 0], "value": 9.0}],
    [{"index": [1.0, 0], "value": 9.0}],
    [{"index": [1, 0, 0], "value": 9.0}],
    [{"index": [-1, 1], "value": 9.0}],
])
def test_bad_moment_indices_are_usage_errors(tmp_path, capsys, extra):
    moments = moment_doc_with(tmp_path, extra)
    assert main(["analyze", moments, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_analyze_negative_order_is_usage_error(tmp_path, box_measure, capsys):
    moments = tmp_path / "moments.json"
    main(["oracle", box_measure, "--degree", "6", "--out", str(moments), "--quiet"])
    capsys.readouterr()
    assert main(["analyze", str(moments), "--order", "-1", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def one_dim_moments(**fields):
    doc = {
        "dimension": 1,
        "max_degree": 2,
        "moments": [{"index": [k], "value": v} for k, v in enumerate([1.0, 0.5, 0.4])],
    }
    doc.update(fields)
    return doc


def write_bytes(path, doc):
    """``doc`` as indented JSON with CRLF line ends: bytes that no report
    re-serializes."""
    path.write_bytes(json.dumps(doc, indent=1).replace("\n", "\r\n").encode())
    return str(path)


@pytest.mark.parametrize("command, files, options", [
    ("analyze", {"moments": one_dim_moments()}, []),
    ("certify", {"moments": one_dim_moments(),
                 "config": {"checks": [{"check": "growth",
                                        "generators": [{"poly": "t", "bound": 1.0}]}]}}, []),
    ("spectral", {"operator": {"matrix": [[2.0, 0.0], [0.0, 5.0]], "vector": [1.0, 1.0]}}, []),
    ("disc", {"moments": {"max_level": 4, "atoms": [{"re": 0.5, "im": 0.1, "weight": 1.0}]}},
     ["--radius", "1", "--constant", "1"]),
])
def test_each_input_is_reported_with_the_sha256_of_its_bytes(tmp_path, command, files, options):
    paths = {name: write_bytes(tmp_path / f"{name}.json", doc) for name, doc in files.items()}
    out = tmp_path / "report.json"
    assert main([command, *paths.values(), *options, "--out", str(out), "--quiet"]) in (0, 1)
    assert json.loads(out.read_text())["inputs"] == {
        name: {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        for name, path in paths.items()
    }


@pytest.mark.parametrize("data, message", [
    (b'\xef\xbb\xbf{"a": 1}', "Unexpected UTF-8 BOM (decode using utf-8-sig): "
                            "line 1 column 1 (char 0)"),
    (b'{"a": \xff}', "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
])
def test_a_bom_and_invalid_utf8_are_usage_errors(tmp_path, capsys, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main(["analyze", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def complex_table(*extra):
    from momint.semigroup import from_complex_atoms

    doc = from_complex_atoms([(0.5 + 0j, 1.0)], 2).to_document()
    doc["values"] += list(extra)
    return doc


CONE = {"checks": [{"check": "cone", "a": "t"}]}
OVERFLOW = one_dim_moments(max_degree=4, moments=[
    {"index": [k], "value": v} for k, v in enumerate([1.0, 0.0, 1e200, 0.0, 1e300])])
NULL_VALUE = one_dim_moments(moments=[
    {"index": [0], "value": None}, {"index": [1], "value": 0.5}, {"index": [2], "value": 0.4},
])


@pytest.mark.parametrize("command, doc, config, message", [
    ("analyze", NULL_VALUE, None, "moment value at (0,) must be a number"),
    ("certify", NULL_VALUE, CONE, "moment value at (0,) must be a number"),
    ("analyze", one_dim_moments(max_degree=2.5), None, "max_degree must be an integer"),
    ("analyze", one_dim_moments(dimension=1.5), None, "dimension must be an integer"),
    ("certify", one_dim_moments(), [CONE], "configuration must be an object"),
    ("certify", one_dim_moments(), {"checks": [5]}, "checks must be a list of objects"),
    ("certify", one_dim_moments(), {"checks": [{"check": "products", "factors": 5}]},
     "factors must be a list"),
    ("certify", one_dim_moments(),
     {"checks": [{"check": "growth", "generators": [{"poly": "t", "bound": None}]}]},
     "bound must be a number"),
    ("disc", {"max_level": 2.5, "atoms": [{"re": 0.5, "weight": 1.0}]}, None,
     "max_level must be an integer"),
    ("disc", complex_table({"m": 0.5, "n": 0, "re": 5.0}), None, "bad multi-index (0.5, 0)"),
    ("disc", complex_table({"m": 0, "n": 0, "re": 5.0}), None, "more than once"),
    ("disc", complex_table({"m": 1.0, "n": 1, "re": 0.25}), None, "more than once"),
    ("certify", one_dim_moments(), {"checks": [{"check": "cone", "a": "t", "tol": -1}]},
     "tol must be >= 0"),
    # incomplete documents whose full tables would be far too large to enumerate
    ("analyze", {"dimension": 2, "max_degree": 10**30, "moments": [
        {"index": [0, 0], "value": 1.0}, {"index": [1, 0], "value": 0.5},
        {"index": [0, 1], "value": 0.5}]}, None, "moment table incomplete"),
    ("disc", {"max_level": 10**9, "values": [{"m": 0, "n": 0, "re": 1.0}]}, None,
     "complex moment table incomplete"),
    # non-finite tables and operators fail with one error line and no numpy warning
    ("disc", {"max_level": 1, "values": [{"m": 0, "n": 0, "re": 1.0},
                                         {"m": 1, "n": 1, "re": math.nan},
                                         {"m": 0, "n": 1, "re": 0.1}]}, None,
     "non-finite moment at (1, 1)"),
    ("disc", {"max_level": 1, "values": [{"m": 0, "n": 0, "re": math.inf},
                                         {"m": 1, "n": 1, "re": 1.0},
                                         {"m": 0, "n": 1, "re": 0.1}]}, None,
     "non-finite moment at (0, 0)"),
    ("spectral", {"matrix": [[1.0, math.inf], [-math.inf, 1.0]], "vector": [1.0, 1.0]}, None,
     "matrix has non-finite entries"),
    ("spectral", {"matrix": [[1e200, 0.0], [0.0, 1.0]], "vector": [1.0, 1.0]}, None,
     "non-finite moment at (2,)"),
    # a misspelt key would silently leave its default in force
    ("certify", one_dim_moments(), {"checks": [{"check": "cone", "a": "t", "jkmax": 1}]},
     "unknown key 'jkmax' in cone check"),
    ("certify", one_dim_moments(),
     {"checks": [{"check": "products", "factors": [{"upper": "1 - t", "lower": "t"}],
                  "max_factor": 2}]},
     "unknown key 'max_factor' in products check"),
], ids=[
    "null-value-analyze", "null-value-certify", "fractional-max-degree", "fractional-dimension",
    "config-not-object", "check-not-object", "factors-not-list", "null-bound",
    "fractional-max-level", "complex-fractional-key", "complex-repeated-key",
    "complex-repeated-float-key", "negative-tol", "huge-incomplete-real",
    "huge-incomplete-complex", "complex-nan", "complex-infinite-mass",
    "operator-infinite", "operator-overflow", "unknown-cone-key", "unknown-products-key",
])
def test_malformed_input_is_usage_error(tmp_path, capsys, command, doc, config, message):
    command, *options = command.split()
    argv = [command, write(tmp_path / "doc.json", doc), *options]
    if config is not None:
        argv.append(write(tmp_path / "config.json", config))
    if command == "disc":
        argv += ["--radius", "1", "--constant", "1"]
    assert main(argv + ["--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


@pytest.mark.parametrize("poly, computed", [
    # the growth bound of 1e200*t is finite, its localized matrices are not
    ("1e200*t", {"growth_bound", "membership_growth"}),
    ("1e300*t^4", set()),
], ids=["analyze-overflow-apply", "analyze-overflow-matrix"])
def test_analyze_reports_an_overflowing_field_as_its_error(tmp_path, capsys, poly, computed):
    report_path = tmp_path / "report.json"
    code = main(["analyze", write(tmp_path / "doc.json", OVERFLOW), "--poly", poly,
                 "--out", str(report_path), "--quiet"])
    assert capsys.readouterr().err == ""
    report = json.loads(report_path.read_text())
    # the exit code is that of the PSD verdict; no warning
    assert report["results"]["psd"]["is_psd"] is report["passed"] is True and code == 0
    entry = report["results"]["polynomials"][poly]
    overflowed = {"rayleigh", "archimedean_linear", "membership_psd"}
    for name in overflowed:
        assert entry[name] == {"error": "matrix has non-finite entries"}
    # the square's own pencil: non-finite for 1e200*t, beyond the table's
    # degree for 1e300*t^4
    assert entry["archimedean_square"] == entry["square_norm_bound"]
    assert "error" in entry["square_norm_bound"]
    for name in computed:
        assert "error" not in entry[name]


PSD_RECORD_KEYS = {"shift", "order", "is_psd", "min_eigenvalue", "tolerance"}


def psd_records(node, path=""):
    """(path, record) of every PSD record in a report: each object with a
    ``min_eigenvalue``, wherever it sits."""
    if isinstance(node, dict):
        if "min_eigenvalue" in node:
            yield path, node
        for key, value in node.items():
            yield from psd_records(value, f"{path}.{key}")
    elif isinstance(node, list):
        for value in node:
            yield from psd_records(value, f"{path}[]")


def test_every_psd_verdict_is_one_record(tmp_path):
    # atoms at (0, 0) and (1.02, 0): outside the unit ball, the box [0, 1]^2
    # and 1 - x >= 0, so each localized check has a FAIL beside its PASSes
    measure = write(tmp_path / "atoms.json", {"atoms": [
        {"point": [0.0, 0.0], "weight": 0.5}, {"point": [1.02, 0.0], "weight": 0.5}]})
    moments = str(tmp_path / "moments.json")
    assert main(["oracle", measure, "--degree", "6", "--out", moments, "--quiet"]) == 0
    config = write(tmp_path / "checks.json", {"variables": ["x", "y"], "checks": [
        {"check": "ball", "radius": 1.0, "order": 2},
        {"check": "schmudgen", "constraints": ["x", "1 - x"], "order": 1},
        # y^4 fits at order 1; its square shift 1 - y^8 is skipped
        {"check": "interval", "order": 1, "entries": [
            {"poly": "x", "lower": 0.0, "upper": 1.0},
            {"poly": "y^4", "lower": -1.0, "upper": 1.0}]},
    ]})
    # a Hermitian table with a non-PSD kernel at the default tolerance
    from momint.semigroup import ComplexMomentFunction, from_complex_atoms

    psd = from_complex_atoms([(0.3 + 0.1j, 0.5), (-0.2 + 0.3j, 0.5)], 4)
    negative = from_complex_atoms([(0.4j, 1.0)], 4)
    signed = ComplexMomentFunction(4, {k: psd.value(k) - 1e-3 * negative.value(k)
                                       for k in np.ndindex(5, 5)})
    tables = [write(tmp_path / "psd.json", psd.to_document()),
              write(tmp_path / "signed.json", signed.to_document())]
    runs = [(["analyze", moments, "--vars", "x,y", "--poly", "x", "--poly", "1 - x"], 0),
            (["certify", moments, config], 1)]
    runs += [(["disc", table, "--radius", "0.5", "--constant", "1"], code)
             for table, code in zip(tables, (0, 1))]
    verdicts = []
    for i, (argv, code) in enumerate(runs):
        out = tmp_path / f"{i}.report.json"
        assert main(argv + ["--out", str(out), "--quiet"]) == code
        results = json.loads(out.read_text())["results"]
        # each certify check, and the disc report as a whole, is one scope
        for scope in results.get("checks", [results]):
            violations = scope.get("disc", scope).get("violations")
            for path, record in psd_records(scope):
                assert PSD_RECORD_KEYS <= set(record), path
                assert len(set(record) - PSD_RECORD_KEYS) <= 1, path
                assert record["is_psd"] is (record["min_eigenvalue"] >= -record["tolerance"])
                verdicts.append((argv[0], path, record["is_psd"]))
                if violations is not None and not record["is_psd"]:
                    assert [v for v in violations
                            if v["value"] == record["min_eigenvalue"]] == [{
                        "description": f"shift {record['shift']} at order "
                                       f"{record['order']} is not PSD",
                        "value": record["min_eigenvalue"]}], path
    assert {(command, path) for command, path, _ in verdicts} == {
        ("analyze", ".psd"), ("analyze", ".polynomials.x.membership_psd"),
        ("analyze", ".polynomials.1 - x.membership_psd"), ("certify", ".details[]"),
        ("certify", ".details[].shifts[]"), ("disc", ".kernel_psd"),
        ("disc", ".disc.details[]")}
    failed = {(command, path) for command, path, is_psd in verdicts if not is_psd}
    assert failed == {("analyze", ".polynomials.1 - x.membership_psd"),
                      ("certify", ".details[]"), ("certify", ".details[].shifts[]"),
                      ("disc", ".kernel_psd"), ("disc", ".disc.details[]")}
    interval = json.loads((tmp_path / "1.report.json").read_text())["results"]["checks"][2]
    assert interval["skipped"] == 1 and interval["details"][1]["square"] == "degree budget"
    assert [record["shift"] for record in interval["details"][1]["shifts"]] == [
        "x2^4 + 1", "-x2^4 + 1"]
