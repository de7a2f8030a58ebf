import math

import numpy as np
import pytest

from momint.bounds import (
    archimedean_bound,
    growth_bound,
    quadratic_module_growth,
    quadratic_module_psd,
    rayleigh_bounds,
)
from momint.exceptions import DegreeOverflowError, NotNormalizedError
from momint.moments import MeasureSpec, MomentSequence, from_measure
from momint.polynomials import Polynomial

T = Polynomial.variable(1, 0)


def test_growth_bound_dirac():
    seq = from_measure(MeasureSpec(atoms=[((3.0,), 1.0)]), 8)
    gb = growth_bound(seq, T)
    assert gb.n_used == 4
    assert all(abs(p - 3.0) <= 1e-12 for p in gb.per_power)
    assert abs(gb.value - 3.0) <= 1e-12


def test_growth_bound_symmetric_atoms(two_atoms):
    gb = growth_bound(two_atoms, T)
    assert gb.value == 1.0
    assert gb.n_used == 8


def test_growth_bound_shifted_atoms(two_atoms):
    # L((1 - t)^(2n)) = 2^(2n - 1), so the n-th root is 2^((2n-1)/(2n))
    gb = growth_bound(two_atoms, 1.0 - T)
    assert gb.n_used == 8
    for n, p in enumerate(gb.per_power, start=1):
        assert abs(p - 2.0 ** ((2 * n - 1) / (2 * n))) <= 1e-12
    assert abs(gb.value - 2.0 ** (15.0 / 16.0)) <= 1e-12


def test_growth_bound_constant_polynomials(lebesgue01):
    assert growth_bound(lebesgue01, Polynomial.constant(1, 1.0)).value == 1.0
    assert growth_bound(lebesgue01, Polynomial.zero(1)).value == 0.0
    assert growth_bound(lebesgue01, Polynomial.constant(1, -2.5)).value == 2.5


def test_growth_bound_requires_normalized():
    seq = MomentSequence(1, 2, {(0,): -1.0, (1,): 0.0, (2,): 1.0})
    assert not seq.normalized
    with pytest.raises(NotNormalizedError):
        growth_bound(seq, T)


def test_growth_bound_degree_overflow(lebesgue01):
    with pytest.raises(DegreeOverflowError):
        growth_bound(lebesgue01, T**6)


def test_growth_bound_clamps_negative_values():
    # signed weights: not a measure, L(t^2) < 0
    seq = MomentSequence(1, 4, {(0,): 1.0, (1,): -0.5, (2,): -0.5, (3,): -0.5, (4,): -0.5})
    gb = growth_bound(seq, T)
    assert gb.clamped
    assert gb.value == 0.0


def test_per_power_monotone_for_measures(atom_corpus, lebesgue01):
    for seq in [lebesgue01] + [s for _, s in atom_corpus[:8]]:
        for i in range(seq.dimension):
            gb = growth_bound(seq, Polynomial.variable(seq.dimension, i))
            diffs = np.diff(gb.per_power)
            assert np.all(diffs >= -1e-10)


def test_rayleigh_symmetric_atoms(two_atoms):
    rb = rayleigh_bounds(two_atoms, T, 1)
    assert abs(rb.lower + 1.0) <= 1e-12
    assert abs(rb.upper - 1.0) <= 1e-12
    assert rb.effective_rank == 2


def test_rayleigh_lebesgue_two_point(lebesgue01):
    rb = rayleigh_bounds(lebesgue01, T, 1)
    assert abs(rb.lower - (3.0 - math.sqrt(3.0)) / 6.0) <= 1e-12
    assert abs(rb.upper - (3.0 + math.sqrt(3.0)) / 6.0) <= 1e-12


def test_rayleigh_dirac_plane():
    seq = from_measure(MeasureSpec(atoms=[((2.0, 5.0), 1.0)]), 6)
    a = Polynomial.variable(2, 0) + Polynomial.variable(2, 1)
    rb = rayleigh_bounds(seq, a, 1)
    assert rb.effective_rank == 1
    assert abs(rb.lower - 7.0) <= 1e-10 and abs(rb.upper - 7.0) <= 1e-10


def test_rayleigh_bounds_monotone_in_order(lebesgue01, atom_corpus):
    cases = [(lebesgue01, T)]
    for _, seq in atom_corpus[:4]:
        cases.append((seq, Polynomial.variable(seq.dimension, 0)))
    for seq, poly in cases:
        intervals = []
        for order in (1, 2, 3):
            if 2 * order + 1 > seq.max_degree:
                break
            rb = rayleigh_bounds(seq, poly, order)
            intervals.append((rb.lower, rb.upper))
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo2 <= lo1 + 1e-10
            assert hi2 >= hi1 - 1e-10


def test_rayleigh_dominated_by_support(atom_corpus):
    for spec, seq in atom_corpus[:8]:
        d = seq.dimension
        for i in range(d):
            values = [pt[i] for pt, _ in spec.atoms]
            rb = rayleigh_bounds(seq, Polynomial.variable(d, i), 3)
            assert rb.lower >= min(values) - 1e-8
            assert rb.upper <= max(values) + 1e-8


def test_square_norm_bound_values(lebesgue01):
    # largest root of 60 l^2 - 44 l + 3 = 0, the order-1 pencil of the
    # squared coordinate against the plain matrix
    expected = (44.0 + math.sqrt(1216.0)) / 120.0
    assert abs(rayleigh_bounds(lebesgue01, T * T, 1).upper - expected) <= 1e-12

    dirac = from_measure(MeasureSpec(atoms=[((3.0,), 1.0)]), 8)
    assert abs(rayleigh_bounds(dirac, T * T, 1).upper - 9.0) <= 1e-10


def test_square_norm_bound_two_atoms(two_atoms):
    assert abs(rayleigh_bounds(two_atoms, T * T, 1).upper - 1.0) <= 1e-12


def test_membership_psd_examples(lebesgue01, two_atoms, atom_corpus):
    assert quadratic_module_psd(lebesgue01, T, 1).is_psd
    verdict = quadratic_module_psd(two_atoms, T, 1)
    assert not verdict.is_psd
    assert abs(verdict.min_eigenvalue + 1.0) <= 1e-10
    for _, seq in atom_corpus[:4]:
        shift = Polynomial.constant(seq.dimension, 1.0)
        shift = shift + Polynomial.variable(seq.dimension, 0) ** 2
        assert quadratic_module_psd(seq, shift, 2).is_psd


def test_membership_growth_examples(lebesgue01_deep, two_atoms, dirac3):
    holds = quadratic_module_growth(lebesgue01_deep, T)
    assert holds.holds and holds.growth_shift <= holds.growth_a

    fails = quadratic_module_growth(two_atoms, T)
    assert not fails.holds
    assert abs(fails.growth_a - 1.0) <= 1e-12
    assert fails.growth_shift >= 1.8

    point = quadratic_module_growth(dirac3, T)
    assert point.holds


def test_membership_growth_constant():
    seq = from_measure(MeasureSpec(atoms=[((0.5,), 1.0)]), 8)
    one = Polynomial.constant(1, 1.0)
    verdict = quadratic_module_growth(seq, one)
    assert verdict.holds
    assert verdict.growth_a == 1.0 and verdict.growth_shift == 0.0


def test_membership_routes_agree_on_signed_shifts(atom_corpus):
    # +5 shift is positive on [-2, 2]^d, -5 shift negative: the localized
    # PSD route and the growth route must agree on both
    for _, seq in atom_corpus[:6]:
        d = seq.dimension
        x = Polynomial.variable(d, 0)
        pos = x + 5.0
        neg = x - 5.0
        assert quadratic_module_psd(seq, pos, 2).is_psd
        assert quadratic_module_growth(seq, pos).holds
        assert not quadratic_module_psd(seq, neg, 2).is_psd
        assert not quadratic_module_growth(seq, neg).holds


def test_archimedean_examples(two_atoms, dirac3):
    assert abs(archimedean_bound(two_atoms, T, 1) - 1.0) <= 1e-7
    assert abs(archimedean_bound(two_atoms, T * T, 1) - 1.0) <= 1e-7
    assert abs(archimedean_bound(dirac3, T, 1) - 3.0) <= 1e-7


def test_archimedean_matches_pencil(lebesgue01):
    for order in (1, 2, 4):
        direct = rayleigh_bounds(lebesgue01, T, order).upper
        assert abs(archimedean_bound(lebesgue01, T, order) - direct) <= 1e-7
    for order in (1, 2, 4):
        direct = rayleigh_bounds(lebesgue01, T * T, order).upper
        assert abs(archimedean_bound(lebesgue01, T * T, order) - direct) <= 1e-7


def coordinate_box(seq, order):
    """The per-coordinate Rayleigh intervals of the analyze report's
    support box."""
    return [
        rayleigh_bounds(seq, Polynomial.variable(seq.dimension, i), order)
        for i in range(seq.dimension)
    ]


def test_support_box_lebesgue(lebesgue01):
    (entry,) = coordinate_box(lebesgue01, 4)
    root = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    assert abs(entry.lower - (1.0 - root) / 2.0) <= 1e-8
    assert abs(entry.upper - (1.0 + root) / 2.0) <= 1e-8


def test_support_box_finite_atoms():
    spec = MeasureSpec(atoms=[((1.0, 1.0), 0.5), ((2.0, 3.0), 0.5)])
    seq = from_measure(spec, 8)
    (x_entry, y_entry) = coordinate_box(seq, 1)
    assert abs(x_entry.lower - 1.0) <= 1e-8 and abs(x_entry.upper - 2.0) <= 1e-8
    assert abs(y_entry.lower - 1.0) <= 1e-8 and abs(y_entry.upper - 3.0) <= 1e-8


def test_support_box_dirac_plane():
    seq = from_measure(MeasureSpec(atoms=[((2.0, 5.0), 1.0)]), 6)
    (x_entry, y_entry) = coordinate_box(seq, 1)
    assert abs(x_entry.lower - 2.0) <= 1e-9 and abs(x_entry.upper - 2.0) <= 1e-9
    assert abs(y_entry.lower - 5.0) <= 1e-9 and abs(y_entry.upper - 5.0) <= 1e-9


def test_support_box_exact_for_atom_corpus(atom_corpus):
    for spec, seq in atom_corpus[:10]:
        for i, entry in enumerate(coordinate_box(seq, 3)):
            values = [pt[i] for pt, _ in spec.atoms]
            assert abs(entry.lower - min(values)) <= 1e-8
            assert abs(entry.upper - max(values)) <= 1e-8


def test_support_box_reports_budget_failures(lebesgue01):
    assert rayleigh_bounds(lebesgue01, T, 1).order_used == 1
    with pytest.raises(DegreeOverflowError, match="degree"):
        rayleigh_bounds(lebesgue01, T**9, 1)


def test_growth_vs_rayleigh_examples(two_atoms, dirac3):
    # the gap between the growth bound and max(upper, -lower) of the
    # Rayleigh interval, as the analyze report computes it
    for seq, growth, gap_tol in ((two_atoms, 1.0, 1e-12), (dirac3, 3.0, 1e-10)):
        g = growth_bound(seq, T).value
        rb = rayleigh_bounds(seq, T, 1)
        assert abs(g - growth) <= 1e-12
        assert abs(g - max(rb.upper, -rb.lower)) <= gap_tol


def test_growth_vs_rayleigh_lebesgue(lebesgue01_deep):
    # growth rises slowly: max_n (1/(2n+1))^(1/(2n)) at n = 8
    g = growth_bound(lebesgue01_deep, T).value
    rb = rayleigh_bounds(lebesgue01_deep, T, 4)
    expected_growth = (1.0 / 17.0) ** (1.0 / 16.0)
    assert abs(g - expected_growth) <= 1e-12
    assert rb.upper > g
    assert abs(g - max(rb.upper, -rb.lower)) == pytest.approx(rb.upper - g, abs=1e-12)


def test_truncated_chain_against_limits(atom_corpus):
    # both estimates approach the true squared sup-norm from below, and the
    # pencil route attains it once the rank is recovered
    for spec, seq in atom_corpus[:8]:
        d = seq.dimension
        x = Polynomial.variable(d, 0)
        true_sq = max(pt[0] ** 2 for pt, _ in spec.atoms)
        r_hat = rayleigh_bounds(seq, x * x, 3).upper
        c_hat = growth_bound(seq, x).value
        assert r_hat <= true_sq + 1e-8
        assert c_hat**2 <= true_sq + 1e-8
        assert abs(r_hat - true_sq) <= 1e-7 * (1.0 + true_sq)


def test_exact_square_law(atom_corpus, lebesgue01):
    # the growth bound of a^2 at budget m is the square of the best
    # even-indexed root of a up to 2m
    for seq in [lebesgue01] + [s for _, s in atom_corpus[:8]]:
        d = seq.dimension
        a = Polynomial.variable(d, 0)
        sq = growth_bound(seq, a * a)
        base = growth_bound(seq, a)
        even = [base.per_power[2 * j - 1] for j in range(1, sq.n_used + 1)]
        expected = max(even) ** 2
        assert abs(sq.value - expected) <= 1e-12 * (1.0 + expected)


def test_growth_bound_memoized_per_sequence(atom_corpus, monkeypatch):
    _, seq = atom_corpus[4]
    a = Polynomial.variable(seq.dimension, 0) + 0.25
    first = growth_bound(seq, a)
    calls = []
    original = MomentSequence.apply

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(MomentSequence, "apply", counting)
    assert growth_bound(seq, a) is first
    assert growth_bound(seq, a + 0.0) is first  # equal polynomial, same entry
    assert calls == []
    growth_bound(seq, a + 0.5)
    assert len(calls) == first.n_used


def test_growth_bound_matches_expanded_even_powers(atom_corpus):
    for _, seq in atom_corpus[:9]:
        d = seq.dimension
        a = Polynomial.variable(d, d - 1) * 0.7 - 0.2
        bound = growth_bound(seq, a)
        square = a * a
        for n, root in enumerate(bound.per_power, start=1):
            value = max(seq.apply(square**n), 0.0)
            assert abs(root ** (2 * n) - value) <= 1e-12 * (1.0 + value)
