import json
import math

import numpy as np
import pytest

from momint.cli import main


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
    box = report["results"]["support_box"]["t"]
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
    assert abs(entry["growth_vs_rayleigh"]["gap"]) <= 1e-10
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


def test_analyze_growth_vs_rayleigh_from_its_entries(tmp_path, two_atom_measure):
    moments = tmp_path / "moments.json"
    main(["oracle", two_atom_measure, "--degree", "8", "--out", str(moments), "--quiet"])
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(moments), "--poly", "t", "--poly", "t^5",
                 "--out", str(report_path), "--quiet"]) == 0
    entries = json.loads(report_path.read_text())["results"]["polynomials"]
    growth, rayleigh = entries["t"]["growth_bound"], entries["t"]["rayleigh"]
    assert entries["t"]["growth_vs_rayleigh"] == {
        "growth": growth["value"],
        "upper": rayleigh["upper"],
        "lower": rayleigh["lower"],
        "gap": abs(growth["value"] - max(rayleigh["upper"], -rayleigh["lower"])),
    }
    # t^5 has no even power within degree 8: the growth error is reported
    assert entries["t^5"]["growth_vs_rayleigh"] == entries["t^5"]["growth_bound"]
    assert "error" in entries["t^5"]["growth_vs_rayleigh"]


def test_analyze_finds_a_bound_between_the_last_power_of_two_and_the_ceiling(tmp_path):
    # 6e11 lies past 2^39: the bracket's last doubling clamps to the ceiling
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


def test_analyze_reports_a_bound_beyond_the_ceiling_as_a_field(tmp_path, capsys):
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
    # the linear bound 5e12 fails, and its error stands for the square too
    for name in ("archimedean_linear", "archimedean_square"):
        assert entry[name] == {"error": "no admissible bound below ceiling 1e+12"}
    assert entry["rayleigh"]["upper"] == pytest.approx(5e12)
    for name in ("growth_bound", "membership_psd", "membership_growth"):
        assert "error" not in entry[name]
    assert entry["growth_bound"]["value"] > 0.0
    assert entry["membership_psd"]["is_psd"] is False
    assert entry["membership_growth"]["holds"] is False


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
    assert report["results"]["support_box"] == {}
    entry = report["results"]["polynomials"]["t"]
    zero_form = {"error": "moment form is zero at this truncation"}
    assert entry["archimedean_linear"] == entry["archimedean_square"] == zero_form
    zero_rank = {"error": "pencil base matrix has zero effective rank"}
    assert entry["rayleigh"] == entry["square_norm_bound"] == zero_rank
    for name in ("growth_bound", "growth_vs_rayleigh", "membership_growth"):
        assert entry[name]["error"].startswith("operation requires unit mass")
    assert entry["membership_psd"] == {"is_psd": True, "min_eigenvalue": 0.0, "order": 1}


def test_analyze_wrong_number_of_variable_names_is_usage_error(tmp_path, capsys):
    moments = write(tmp_path / "moments.json", one_dim_moments())
    report_path = tmp_path / "report.json"
    assert main(["analyze", moments, "--vars", "x,y", "--out", str(report_path)]) == 2
    assert capsys.readouterr().err == "error: 2 variable names for dimension 1\n"
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


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [["--help"], ["disc", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage: momint" in capsys.readouterr().out


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
    # L(p q) and a localized matrix that overflow: one error line, no warning
    ("analyze --poly 1e200*t", OVERFLOW, None, "L(p q) = inf is not finite"),
    ("analyze --poly 1e300*t^4", OVERFLOW, None, "matrix has non-finite entries"),
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
    "operator-infinite", "operator-overflow", "analyze-overflow-apply",
    "analyze-overflow-matrix", "unknown-cone-key", "unknown-products-key",
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
