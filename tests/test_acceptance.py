"""Acceptance battery: hand-derivable fixtures plus randomized corpora.

Each test covers one numbered criterion and prints one pass line when its
assertions hold (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Expected values come from independent oracles: closed-form roots,
recurrence-based eigenvalue computations, and direct summation over atoms.
"""

import math
import time

import numpy as np

from momint.bounds import (
    archimedean_bound,
    growth_bound,
    quadratic_module_growth,
    quadratic_module_psd,
    rayleigh_bounds,
)
from momint.certify import ball_check, schmudgen_check
from momint.linalg import range_whitener, sym_eig
from momint.moments import from_measure
from momint.polynomials import Polynomial
from momint.semigroup import (
    SemigroupElement,
    diagonal_growth_bound,
    disc_check,
    from_complex_atoms,
    psd_kernel_check,
)
from momint.spectral import operator_moments, quadrature_from_moments, rayleigh_interval

T = Polynomial.variable(1, 0)


def growth_rayleigh_gap(seq, a, order) -> float:
    """|growth bound - max(upper, -lower) of the Rayleigh interval|: zero in
    the limit, so the truncation error of the two routes."""
    rb = rayleigh_bounds(seq, a, order)
    return abs(growth_bound(seq, a).value - max(rb.upper, -rb.lower))


def _passed(number: int, name: str):
    print(f"acceptance criterion {number:2d} ({name}): PASS")


def test_criterion_1_identity_suite(identity_suite):
    start = time.perf_counter()
    report = identity_suite()
    elapsed = time.perf_counter() - start
    assert report.passed, report.violations
    assert {d["identity"] for d in report.details} == {
        "two-sided interval composite",
        "binomial square certificate n=2",
        "binomial square certificate n=3",
        "binomial square certificate n=4",
        "binomial square certificate n=5",
    }
    assert elapsed < 1.0, f"identity suite took {elapsed:.3f}s"
    _passed(1, "exact identity suite")


def test_criterion_2_gauss_nodes(lebesgue01):
    rb = rayleigh_bounds(lebesgue01, T, 1)
    assert abs(rb.lower - (3.0 - math.sqrt(3.0)) / 6.0) <= 1e-10
    assert abs(rb.upper - (3.0 + math.sqrt(3.0)) / 6.0) <= 1e-10

    # independent oracle: eigenvalues of the 5x5 recurrence matrix of the
    # orthogonal polynomials for the uniform weight on [0, 1]
    jacobi = np.diag([0.5] * 5)
    for k in range(1, 5):
        beta = k / (2.0 * math.sqrt(4.0 * k * k - 1.0))
        jacobi[k - 1, k] = beta
        jacobi[k, k - 1] = beta
    oracle_nodes = np.linalg.eigvalsh(jacobi)

    entry = rayleigh_bounds(lebesgue01, T, 4)
    assert abs(entry.lower - oracle_nodes[0]) <= 1e-8
    assert abs(entry.upper - oracle_nodes[-1]) <= 1e-8
    _passed(2, "Gauss nodes of the uniform measure")


def test_criterion_3_two_atom_fixture(two_atoms):
    gb = growth_bound(two_atoms, T)
    assert gb.value == 1.0
    assert gb.n_used == 8

    rb = rayleigh_bounds(two_atoms, T, 1)
    assert abs(rb.lower + 1.0) <= 1e-10
    assert abs(rb.upper - 1.0) <= 1e-10

    psd = quadratic_module_psd(two_atoms, T, 1)
    assert not psd.is_psd
    assert abs(psd.min_eigenvalue + 1.0) <= 1e-10

    membership = quadratic_module_growth(two_atoms, T)
    assert not membership.holds
    assert membership.growth_shift >= 1.8  # rises toward 2 as the budget grows
    _passed(3, "symmetric two-atom fixture")


def test_criterion_4_growth_vs_rayleigh_corpus(atom_corpus):
    assert len(atom_corpus) >= 20
    start = time.perf_counter()
    worst = 0.0
    for _, seq in atom_corpus:
        for i in range(seq.dimension):
            gap = growth_rayleigh_gap(seq, Polynomial.variable(seq.dimension, i), 5)
            worst = max(worst, gap)
            assert gap <= 0.1, f"gap {gap:.4f} exceeds 0.1"

    # gaps shrink monotonically as the stored degree grows (logged subsample)
    subsample = [spec for spec, seq in atom_corpus if seq.dimension == 1][:3]
    for idx, spec in enumerate(subsample):
        gaps = []
        for degree in (12, 16, 20, 24):
            seq = from_measure(spec, degree)
            gaps.append(growth_rayleigh_gap(seq, T, 5))
        print(f"  corpus measure {idx}: gaps by degree {[round(g, 6) for g in gaps]}")
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"corpus run took {elapsed:.1f}s"
    print(f"  worst gap {worst:.6f}, elapsed {elapsed:.2f}s")
    _passed(4, "growth bound meets Rayleigh extremes on corpus")


def test_criterion_5_ball_criterion(circle4, atom_corpus):
    passing = ball_check(circle4, radius=2.0, order=1)
    assert passing.passed
    growth_detail = next(d for d in passing.details if d["condition"] == "growth")
    assert abs(growth_detail["value"] - 4.0) <= 1e-10

    failing = ball_check(circle4, radius=1.9, order=1)
    assert not failing.passed

    # the two conditions agree with the geometry on every corpus measure
    for spec, seq in atom_corpus:
        rho = max(math.hypot(*pt) if len(pt) > 1 else abs(pt[0]) for pt, _ in spec.atoms)
        for radius, expected in ((rho * 1.1 + 0.1, True), (rho * 0.8, False)):
            if radius <= 1e-6 or (not expected and rho < 0.5):
                continue
            report = ball_check(seq, radius=radius, order=2)
            conditions = [report.details[0]["is_psd"], report.details[1]["passed"]]
            assert report.passed is expected
            assert conditions[0] is expected and conditions[1] is expected
    _passed(5, "ball criterion, both conditions")


def test_criterion_6_schmudgen_sensitivity(lebesgue01, unit_box_corpus):
    report = schmudgen_check(lebesgue01, [T, 1.0 - T], order=2)
    assert report.passed and report.attempted == 4

    from momint.moments import MeasureSpec

    dirac2 = from_measure(MeasureSpec(atoms=[((2.0,), 1.0)]), 8)
    failing = schmudgen_check(dirac2, [T, 1.0 - T], order=2)
    assert not failing.passed
    offending = [d for d in failing.details if d["subset"] == "{-t + 1}"]
    assert offending and not offending[0]["is_psd"]

    for _, seq in unit_box_corpus:
        d = seq.dimension
        constraints = []
        for i in range(d):
            x = Polynomial.variable(d, i)
            constraints.extend([x, 1.0 - x])
        assert schmudgen_check(seq, constraints, order=2).passed
    _passed(6, "subset-localized positivity on [0,1]^d")


def test_criterion_7_spectral_reconstruction(operator_corpus):
    data = operator_moments(np.diag([1.0, 2.0, 3.0]), np.ones(3), 6)
    measure = quadrature_from_moments(data, 3)
    assert np.max(np.abs(measure.nodes - np.array([1.0, 2.0, 3.0]))) <= 1e-8
    assert np.max(np.abs(measure.weights - 1.0 / 3.0)) <= 1e-8

    assert len(operator_corpus) == 20
    for t, h in operator_corpus:
        eigenvalues, eigenvectors = np.linalg.eigh(t)
        overlaps = (eigenvectors.T @ h) ** 2
        reconstruction = quadrature_from_moments(operator_moments(t, h, 12), 6)
        assert np.max(np.abs(reconstruction.nodes - eigenvalues)) <= 1e-6
        assert np.max(np.abs(reconstruction.weights - overlaps)) <= 1e-6
        lo, hi = rayleigh_interval(t)
        assert np.all(reconstruction.nodes >= lo - 1e-9)
        assert np.all(reconstruction.nodes <= hi + 1e-9)
    _passed(7, "spectral measure reconstruction")


def test_criterion_8_disc_module(complex_corpus):
    half = from_complex_atoms([(0.5 + 0j, 1.0)], 8)
    assert disc_check(half, radius=0.5, constant=1.0).passed

    unit = from_complex_atoms([(1.0 + 0j, 1.0)], 8)
    report = disc_check(unit, radius=0.5, constant=1.0)
    assert not report.passed
    assert any("n=1" in v.description for v in report.violations)

    for atoms in complex_corpus:
        f = from_complex_atoms(atoms, 8)
        for level in range(f.max_level // 2 + 1):
            assert psd_kernel_check(f, level=level).is_psd
        # mixed diagonal values obey the two-sided product bound
        elements = [SemigroupElement(0, 1), SemigroupElement(1, 1)]
        for s in elements:
            for u in elements:
                for n in range(1, 3):
                    for m in range(1, 3):
                        ks = n * (s.m + s.n)
                        kt = m * (u.m + u.n)
                        if max(ks + kt, 2 * ks, 2 * kt) > f.max_level:
                            continue
                        mixed = f.value((ks + kt, ks + kt)).real
                        bound = f.value((2 * ks, 2 * ks)).real * f.value((2 * kt, 2 * kt)).real
                        assert mixed * mixed <= bound + 1e-10 * (1.0 + abs(bound))
        growth = diagonal_growth_bound(f, SemigroupElement(0, 1))
        assert growth.value <= max(abs(z) for z, _ in atoms) + 1e-12
    _passed(8, "complex disc module")


def test_criterion_9_archimedean_coherence(atom_corpus, mp_eigenvalues):
    # the top eigenvalue of the compressed localized matrix, taken from
    # mpmath
    for _, seq in atom_corpus:
        whitener = range_whitener(sym_eig(seq.moment_matrix(5).matrix))
        for i in range(seq.dimension):
            a = Polynomial.variable(seq.dimension, i)
            for poly in (a, a * a):
                compressed = whitener.T @ seq.moment_matrix(5, poly).matrix.data @ whitener
                top = mp_eigenvalues(compressed)[-1]
                bound = archimedean_bound(seq, poly, 5)
                assert abs(bound - top) <= 1e-12 * (1.0 + abs(top))
    _passed(9, "archimedean bounds at the mpmath top eigenvalue")


def test_criterion_10_exact_square_law(atom_corpus):
    for _, seq in atom_corpus:
        for i in range(seq.dimension):
            a = Polynomial.variable(seq.dimension, i)
            squared = growth_bound(seq, a * a)
            base = growth_bound(seq, a)
            even_roots = [base.per_power[2 * j - 1] for j in range(1, squared.n_used + 1)]
            expected = max(even_roots) ** 2
            assert abs(squared.value - expected) <= 1e-12 * (1.0 + expected)
    _passed(10, "exact square law for growth bounds")
