import json
import math

import numpy as np
import pytest

from momint.bounds import rayleigh_bounds
from momint.cli import main
from momint.exceptions import RankDeficiencyError
from momint.linalg import psd_check
from momint.moments import MomentSequence
from momint.polynomials import Polynomial
from momint.policy import SPECTRAL_RESIDUAL_TOL
from momint.spectral import (
    chebyshev_extremes,
    operator_moments,
    operator_rule,
    quadrature_from_moments,
    rayleigh_interval,
)


def test_operator_moments_rescale_only_extreme_vectors():
    t = np.diag([1.0, 2.0, 3.0])
    # the squared norm overflows: the vector is e_1 to double precision
    assert operator_moments(t, [1e308, 1.0, 0.5], 4).y.tolist() == [1.0] * 5
    # the squared norm underflows: still the vector (1, 1) / sqrt(2)
    assert abs(operator_moments(np.diag([1.0, 2.0]), [1e-200, 1e-200], 2).y[1] - 1.5) <= 1e-15
    ordinary = np.array([0.3, -1.2, 0.7])
    unit = ordinary / np.linalg.norm(ordinary)
    assert operator_moments(t, ordinary, 2).y[1] == float((t @ unit) @ unit)
    for bad in ([0.0, 0.0, 0.0], [math.inf, 0.0, 0.0], [math.nan, 1.0, 0.0]):
        with pytest.raises(ValueError, match="vector h"):
            operator_moments(t, bad, 2)


def test_operator_moments_diag():
    seq = operator_moments(np.diag([1.0, 2.0, 3.0]), np.ones(3), 6)
    for k in range(7):
        expected = (1.0 + 2.0**k + 3.0**k) / 3.0
        assert abs(seq.y[k] - expected) <= 1e-12 * (1.0 + expected)


def test_operator_moments_identity():
    seq = operator_moments(np.eye(4), np.array([1.0, 2.0, 0.0, -1.0]), 8)
    assert np.allclose(seq.y, 1.0, atol=1e-14)


def test_operator_moments_reflection():
    seq = operator_moments(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]), 8)
    assert np.allclose(seq.y[::2], 1.0, atol=0)
    assert np.allclose(seq.y[1::2], 0.0, atol=0)


def test_operator_moments_validations():
    with pytest.raises(ValueError):
        operator_moments(np.eye(2), np.zeros(2), 4)
    with pytest.raises(ValueError):
        operator_moments(np.eye(2), np.ones(2), 3)
    with pytest.raises(ValueError):
        operator_moments(np.eye(2), np.ones(3), 4)


def test_rayleigh_interval_examples():
    assert rayleigh_interval(np.diag([1.0, 2.0, 3.0])) == (1.0, 3.0)
    lo, hi = rayleigh_interval([[0.0, 1.0], [1.0, 0.0]])
    assert abs(lo + 1.0) <= 1e-14 and abs(hi - 1.0) <= 1e-14


def test_rayleigh_interval_matches_eigensolver(mp_eigenvalues):
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(5, 5))
    t = raw + raw.T
    lo, hi = rayleigh_interval(t)
    expected = mp_eigenvalues(t)
    assert abs(lo - expected[0]) <= 1e-10
    assert abs(hi - expected[-1]) <= 1e-10


def test_quadrature_diag_fixture():
    seq = operator_moments(np.diag([1.0, 2.0, 3.0]), np.ones(3), 6)
    measure = quadrature_from_moments(seq, 3)
    assert np.allclose(measure.nodes, [1.0, 2.0, 3.0], atol=1e-8)
    assert np.allclose(measure.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-8)


def test_quadrature_lebesgue_moments():
    moments = [1.0 / (k + 1) for k in range(5)]
    measure = quadrature_from_moments(moments, 2)
    assert abs(measure.nodes[0] - (3.0 - math.sqrt(3.0)) / 6.0) <= 1e-12
    assert abs(measure.nodes[1] - (3.0 + math.sqrt(3.0)) / 6.0) <= 1e-12
    assert np.allclose(measure.weights, [0.5, 0.5], atol=1e-12)


def test_quadrature_constant_moments():
    measure = quadrature_from_moments([1.0, 1.0], 1)
    assert np.allclose(measure.nodes, [1.0], atol=1e-14)
    assert np.allclose(measure.weights, [1.0], atol=1e-14)


def test_quadrature_matches_stored_moments():
    rng = np.random.default_rng(37)
    nodes = np.sort(rng.uniform(-1.0, 1.0, size=4))
    weights = rng.uniform(0.2, 0.5, size=4)
    weights /= weights.sum()
    moments = [float(np.sum(weights * nodes**k)) for k in range(8)]
    measure = quadrature_from_moments(moments, 4)
    for k in range(8):
        assert abs(measure.integrate_power(k) - moments[k]) <= 1e-8


def test_quadrature_rank_deficiency_reports_achievable():
    # h orthogonal to the first eigenvector: only 5 of 6 spectral lines remain
    t = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    h = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    seq = operator_moments(t, h, 12)
    with pytest.raises(RankDeficiencyError) as excinfo:
        quadrature_from_moments(seq, 6)
    assert excinfo.value.achievable == 5
    reduced = quadrature_from_moments(seq, 5)
    assert np.allclose(reduced.nodes, [2.0, 3.0, 4.0, 5.0, 6.0], atol=1e-7)


def test_quadrature_needs_enough_moments():
    with pytest.raises(ValueError):
        quadrature_from_moments([1.0, 0.0, 1.0], 2)


def test_spectral_command_reduces_to_achievable(tmp_path):
    t = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    h = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    operator = tmp_path / "operator.json"
    operator.write_text(json.dumps({"matrix": t.tolist(), "vector": h.tolist()}))
    out = tmp_path / "report.json"
    # the Krylov space of h ends at 5: the exact 5-node rule passes
    assert main(["spectral", str(operator), "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["nodes"] == pytest.approx([2.0, 3.0, 4.0, 5.0, 6.0], abs=1e-12)
    assert report["results"]["pencil_agreement_residual"] <= SPECTRAL_RESIDUAL_TOL
    assert report["warnings"] == ["requested 6 nodes but rank supports 5; reduced"]


def eigh_rule(t, h):
    """The eigh oracle: eigenvalues as nodes, squared overlaps of the unit h
    as weights."""
    eigenvalues, eigenvectors = np.linalg.eigh(t)
    return eigenvalues, (eigenvectors.T @ (h / np.linalg.norm(h))) ** 2


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_operator_rule_matches_eigh(n):
    # eigenvalues uniform in [-2.9, 2.9] behind a random rotation, Gaussian h
    rng = np.random.default_rng(n)
    for _ in range(10):
        rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
        t = rotation @ np.diag(rng.uniform(-2.9, 2.9, n)) @ rotation.T
        h = rng.normal(size=n)
        nodes, weights = eigh_rule(t, h)
        measure = operator_rule(t, h, n)
        assert np.max(np.abs(measure.nodes - nodes)) <= 1e-10
        assert np.max(np.abs(measure.weights - weights)) <= 1e-10


@pytest.mark.parametrize("t, h, nodes, weights", [
    # a repeated eigenvalue: its eigenspace meets the Krylov space in one line
    (np.diag([1.0, 1.0, 1.0, 2.0, 3.0]), np.ones(5), [1.0, 2.0, 3.0], [0.6, 0.2, 0.2]),
    # h orthogonal to the eigenvectors of 1 and 4
    (np.diag([1.0, 2.0, 3.0, 4.0]), [0.0, 1.0, 1.0, 0.0], [2.0, 3.0], [0.5, 0.5]),
])
def test_operator_rule_stops_at_an_invariant_subspace(t, h, nodes, weights):
    rotation, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(len(t), len(t))))
    measure = operator_rule(rotation @ t @ rotation.T, rotation @ np.array(h), len(t))
    assert measure.nodes == pytest.approx(nodes, abs=1e-12)
    assert measure.weights == pytest.approx(weights, abs=1e-12)


def test_chebyshev_extremes_match_the_rule_without_lanczos(operator_corpus):
    for t, h in operator_corpus:
        eigenvalues, _ = eigh_rule(t, h)
        interval = (eigenvalues[0], eigenvalues[-1])
        for order in (2, 5):
            measure = operator_rule(t, h, order + 1)
            lower, upper = chebyshev_extremes(t, h, interval, order)
            assert abs(lower - measure.nodes[0]) <= 1e-10
            assert abs(upper - measure.nodes[-1]) <= 1e-10


def test_random_operators_match_eigen_oracle(operator_corpus):
    for t, h in operator_corpus:
        eigenvalues, eigenvectors = np.linalg.eigh(t)  # independent oracle
        overlaps = (eigenvectors.T @ h) ** 2
        seq = operator_moments(t, h, 12)
        measure = quadrature_from_moments(seq, 6)
        assert np.max(np.abs(measure.nodes - eigenvalues)) <= 1e-6
        assert np.max(np.abs(measure.weights - overlaps)) <= 1e-6
        lo, hi = rayleigh_interval(t)
        assert np.all(measure.nodes >= lo - 1e-9)
        assert np.all(measure.nodes <= hi + 1e-9)


def test_pencil_agreement_with_quadrature(operator_corpus):
    # the Rayleigh pencil at order N reproduces the extreme nodes of the
    # (N+1)-point reconstruction: same data, two routes
    coordinate = Polynomial.variable(1, 0)
    for t, h in operator_corpus[:8]:
        seq = operator_moments(t, h, 12)
        for order in (2, 5):
            measure = quadrature_from_moments(seq, order + 1)
            rb = rayleigh_bounds(seq, coordinate, order)
            assert abs(rb.lower - measure.nodes[0]) <= 1e-8
            assert abs(rb.upper - measure.nodes[-1]) <= 1e-8


def test_moment_sequence_packaging():
    seq = operator_moments(np.diag([1.0, 2.0, 3.0]), np.ones(3), 6)
    assert isinstance(seq, MomentSequence)
    assert seq.dimension == 1 and seq.max_degree == 6
    assert seq.normalized
    assert psd_check(seq.moment_matrix(3).matrix).is_psd


def test_operator_moments_overflow_is_one_error():
    # the powers leave the float range at k = 2; no numpy warning comes first
    # (the suite turns warnings into errors)
    with pytest.raises(ValueError, match=r"non-finite moment at \(2,\)"):
        operator_moments(np.diag([1e200, 1.0]), np.ones(2), 4)
    with pytest.raises(ValueError, match="non-finite entries"):
        operator_moments([[1.0, np.inf], [-np.inf, 1.0]], np.ones(2), 4)
