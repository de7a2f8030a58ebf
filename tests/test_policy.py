"""Every entry of ``momint.policy`` at its boundary, the README table against
the module, and no stray tolerance outside it."""

import ast
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from momint import bounds, cli, policy
from momint.bounds import archimedean_bound, quadratic_module_growth
from momint.certify import growth_check
from momint.exceptions import NotPsdError, RankDeficiencyError
from momint.linalg import EigenDecomposition, pencil_extremes, psd_check, sym_eig
from momint.moments import MomentSequence
from momint.polynomials import Polynomial
from momint.semigroup import ComplexMomentFunction, disc_check
from momint.spectral import DiscreteMeasure, quadrature_from_moments

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

#: a probe's threshold factor just inside and just outside the boundary
INSIDE, OUTSIDE = 0.99, 1.01

T = Polynomial.variable(1, 0)


def table(*moments) -> MomentSequence:
    """The one-dimensional sequence with the given moments m_0, m_1, ..."""
    return MomentSequence(1, len(moments) - 1, {(k,): v for k, v in enumerate(moments)})


def psd_tolerance(s, *_):
    # diag(1, -x): relative_tol = RELATIVE_TOL * (1 + 1)
    return psd_check(np.diag([1.0, -s * 2.0 * policy.RELATIVE_TOL])).is_psd


def check_tolerance(s, *_):
    # L(t^2) = v against the limit 1 * 1^2, tolerance RELATIVE_TOL * (1 + v)
    v = 1.0 + s * 2.0 * policy.RELATIVE_TOL
    return growth_check(table(1.0, 0.0, v), [(T, 1.0, 1.0)]).passed


def disc_diagonal_tolerance(s, *_):
    # f(1, 1) = v against the limit 1 * 1^2, tolerance RELATIVE_TOL * (1 + v)
    v = 1.0 + s * 2.0 * policy.RELATIVE_TOL
    f = ComplexMomentFunction(1, {(0, 0): 1.0, (0, 1): 0.0, (1, 1): v})
    return disc_check(f, radius=1.0, constant=1.0).passed


def rank_cutoff(s, *_):
    # an eigenvalue of B just below the cutoff is deflated
    b = sym_eig(np.diag([1.0, s * policy.DEFAULT_RANK_TOL]))
    return pencil_extremes(np.eye(2), b)[2] == 1


def hermitian_ingest(s, *_):
    # mirror entries differing by s * HERMITIAN_INGEST_TOL * (1 + 1)
    mismatch = s * 2.0 * policy.HERMITIAN_INGEST_TOL
    values = {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5 + mismatch, (1, 1): 1.0}
    try:
        ComplexMomentFunction(1, values)
    except ValueError:
        return False
    return True


def weight_prune(s, *_):
    # weight w at node 10 beside weight 1 at node 0: its direction, about
    # 1 / (1 + w) of the squared norm of x, stays far above the breakdown floor
    w = s * policy.WEIGHT_PRUNE_TOL
    moments = [1.0 + w] + [w * 10.0**j for j in range(1, 4)]
    return len(quadrature_from_moments(moments, 2).nodes) == 1


def breakdown_floor(s, *_):
    # on [1, 1, 1 + x, 1], the first step's new direction x - 1 has squared
    # norm x against m_2 = 1 + x for x itself; the floor is BREAKDOWN_TOL of that
    x = s * policy.BREAKDOWN_TOL / (1.0 - s * policy.BREAKDOWN_TOL)
    try:
        quadrature_from_moments([1.0, 1.0, 1.0 + x, 1.0], 2)
    except RankDeficiencyError as exc:
        return exc.achievable == 1
    return False


def membership_slack(s, *_):
    # growth of t is sqrt(m_2) = 1, and that of 1 - t is sqrt(2 - 2 m_1)
    shifted = 1.0 + s * policy.MEMBERSHIP_SLACK
    verdict = quadratic_module_growth(table(1.0, 1.0 - shifted**2 / 2.0, 1.0), T)
    assert not verdict.raw_holds
    return verdict.holds


def archimedean_admission(s, _, monkeypatch):
    # the order-0 pencil of table(1, 1, 1) is [1]; its top read x = s RELATIVE_TOL
    # too low leaves M I - C = [-x], whose tolerance is RELATIVE_TOL * (1 + x)
    x = s * policy.RELATIVE_TOL

    def read_low(matrix, vectors=True):
        decomp = sym_eig(matrix, vectors)
        return decomp if vectors else EigenDecomposition(decomp.eigenvalues - x, None)

    monkeypatch.setattr(bounds, "sym_eig", read_low)
    try:
        archimedean_bound(table(1.0, 1.0, 1.0), T, 0)
    except NotPsdError:
        return False
    finally:
        monkeypatch.undo()
    return True


def saturation(s, *_):
    # base ** 2 is s times the largest float
    base = math.sqrt(s) * math.sqrt(sys.float_info.max)
    return math.isfinite(policy.saturated_limit(1.0, base, 2))


def spectral(nodes, weights, tmp_path, monkeypatch) -> dict:
    """Results of ``spectral`` on diag(0, 1) with h = (1, 1), whose measure
    is nodes 0 and 1 with weight 1/2 each, reconstructed as the given rule."""
    monkeypatch.setattr(cli, "operator_rule", lambda t, h, k: DiscreteMeasure(
        np.array(nodes), np.array(weights)))
    tmp_path.mkdir()
    operator, out = tmp_path / "operator.json", tmp_path / "report.json"
    operator.write_text(json.dumps({"matrix": [[0.0, 0.0], [0.0, 1.0]], "vector": [1.0, 1.0]}))
    code = cli.main(["spectral", str(operator), "--out", str(out), "--quiet"])
    report = json.loads(out.read_text())
    assert code == (0 if report["passed"] else 1)
    return report


def moment_residual(s, tmp_path, monkeypatch):
    # extra weight 2 x at node 0 moves m_0 alone, by x / (1 + m_0)
    report = spectral([0.0, 1.0], [0.5 + 2.0 * s * policy.SPECTRAL_RESIDUAL_TOL, 0.5],
                      tmp_path, monkeypatch)
    return report["passed"]


def pencil_residual(s, tmp_path, monkeypatch):
    # the lowest node moved into the interval, away from the pencil's
    report = spectral([s * policy.SPECTRAL_RESIDUAL_TOL, 1.0], [0.5, 0.5], tmp_path, monkeypatch)
    assert report["results"]["moment_match_residual"] < policy.SPECTRAL_RESIDUAL_TOL / 2
    return report["passed"]


def node_containment(s, tmp_path, monkeypatch):
    # the highest node moved past the top eigenvalue 1
    report = spectral([0.0, 1.0 + s * policy.NODE_CONTAINMENT_TOL], [0.5, 0.5],
                      tmp_path, monkeypatch)
    return report["results"]["nodes_contained"]


#: each probe is true just inside its threshold and false just outside
BOUNDARIES = [
    psd_tolerance, check_tolerance, disc_diagonal_tolerance, rank_cutoff, hermitian_ingest,
    weight_prune, breakdown_floor, membership_slack, archimedean_admission, saturation,
    moment_residual, pencil_residual, node_containment,
]


@pytest.mark.parametrize("probe", BOUNDARIES, ids=[p.__name__ for p in BOUNDARIES])
def test_each_threshold_at_its_boundary(probe, tmp_path, monkeypatch):
    assert probe(INSIDE, tmp_path / "inside", monkeypatch)
    assert not probe(OUTSIDE, tmp_path / "outside", monkeypatch)


def readme_policy_rows() -> list[tuple[str, str]]:
    """(policy entry, value) of each row of the README's numerical-policy table."""
    section = README.split("\n## Numerical policy\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    assert [cell.strip() for cell in rows[0][1:3]] == ["policy entry", "value"]
    return [(entry.strip().strip("`"), value.strip().strip("`"))
            for _, entry, value, *_ in rows[2:]]


def test_readme_policy_table_matches_the_module():
    rows = readme_policy_rows()
    constants = {name for name in vars(policy) if name.isupper()}
    assert constants == {name for name, _ in rows if name.isupper()}
    for name, value in rows:
        entry = getattr(policy, name)
        if callable(entry):  # the saturation row: a limit past the float range
            entry = entry(1.0, 2.0, 1024)
        assert entry == float(value), name


def test_no_tolerance_literal_outside_the_policy_module():
    package = Path(policy.__file__).parent
    stray = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(package.glob("*.py")) if path.name != "policy.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
    ]
    assert not stray, "thresholds belong in momint/policy.py: " + ", ".join(stray)


def test_every_comparison_with_a_tolerance_is_policy_exceeds():
    # besides exceeds itself, only psd_check's own rule and the input checks
    # of a given tol compare with one
    package = Path(policy.__file__).parent
    found = sorted(
        (path.name, ast.unparse(node))
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        and not all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(n, ast.Name) and n.id == "tol" for n in ast.walk(node))
    )
    assert found == [("certify.py", "tol >= 0"), ("linalg.py", "min_eig >= -tol"),
                     ("linalg.py", "tol >= 0"), ("policy.py", "value > limit + tol")]


def test_no_psd_check_is_given_a_constant_tol():
    # every PSD verdict takes the default tolerance or a caller's, never a
    # constant of its own
    def constant(node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return (node.id if isinstance(node, ast.Name) else node.attr).isupper()
        try:
            return ast.literal_eval(node) is not None  # None is the default
        except ValueError:
            return False

    package = Path(policy.__file__).parent
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("psd_check")
        and any(constant(arg) for arg in node.args[1:]
                + [kw.value for kw in node.keywords if kw.arg == "tol"])
    ]
    assert not found, "psd_check with a constant tol: " + ", ".join(found)
