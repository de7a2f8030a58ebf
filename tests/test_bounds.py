import json
import math
from fractions import Fraction

import numpy as np
import pytest

from momint import bounds, cli, linalg
from momint.bounds import (
    _even_power_values,
    archimedean_bound,
    growth_bound,
    quadratic_module_growth,
    quadratic_module_psd,
    rayleigh_bounds,
)
from momint.certify import growth_check
from momint.exceptions import DegreeOverflowError, NotNormalizedError, NotPsdError
from momint.linalg import EigenDecomposition, psd_check, range_whitener, sym_eig
from momint.moments import MeasureSpec, MomentSequence, from_measure
from momint.polynomials import Polynomial, enumerate_monomials, format_polynomial

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
    """The per-coordinate Rayleigh intervals: the support box that the
    analyze report's ``rayleigh`` fields give."""
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
    # Rayleigh interval
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
    evaluated = []
    original = bounds._power_table

    def counting(seq, a, count):
        values, exponent = original(seq, a, count)
        evaluated.extend(values)
        return values, exponent

    monkeypatch.setattr(bounds, "_power_table", counting)
    assert growth_bound(seq, a) is first
    assert growth_bound(seq, a + 0.0) is first  # equal polynomial, same entry
    assert evaluated == []
    growth_bound(seq, a + 0.5)
    assert len(evaluated) == first.n_used


def test_growth_bound_matches_expanded_even_powers(atom_corpus):
    for _, seq in atom_corpus[:9]:
        d = seq.dimension
        a = Polynomial.variable(d, d - 1) * 0.7 - 0.2
        bound = growth_bound(seq, a)
        square = a * a
        for n, root in enumerate(bound.per_power, start=1):
            value = max(seq.apply(square**n), 0.0)
            assert abs(root ** (2 * n) - value) <= 1e-12 * (1.0 + value)


# -- the power table against exact arithmetic ---------------------------------

EPS = np.finfo(float).eps


def signed_table(rng, dimension: int, degree: int) -> MomentSequence:
    """The moments of a few atoms in [-2, 2]^d with weights of both signs
    (the first weight positive and largest, so the mass stays positive)."""
    k = int(rng.integers(2, 6))
    points = rng.uniform(-2.0, 2.0, (k, dimension))
    weights = rng.uniform(-1.0, 1.0, k)
    weights[0] = 1.5
    values = {index: float(np.sum(weights * np.prod(points ** np.array(index), axis=1)))
              for index in enumerate_monomials(dimension, degree)}
    return MomentSequence(dimension, degree, values)


def exact_even_powers(seq: MomentSequence, a: Polynomial, count: int):
    """(L(a^(2n)), L(|a|^(2n))) for n = 1 .. count in Fraction arithmetic on
    the stored floats, with |a| the polynomial of the absolute coefficients
    and L the functional of the absolute moments in the second value."""
    y = {index: Fraction(seq.moment(index))
         for index in enumerate_monomials(seq.dimension, seq.max_degree)}
    exact = Polynomial(a.dimension, {k: Fraction(v) for k, v in a.terms.items()})
    absolute = Polynomial(a.dimension, {k: abs(Fraction(v)) for k, v in a.terms.items()})
    out = []
    power, power_abs = exact, absolute
    for n in range(1, 2 * count + 1):
        if n > 1:
            power, power_abs = power * exact, power_abs * absolute
        if n % 2 == 0:
            out.append((sum(c * y[k] for k, c in power.terms.items()),
                        sum(c * abs(y[k]) for k, c in power_abs.terms.items())))
    return out


def test_even_powers_match_exact_sums_on_signed_tables():
    rng = np.random.default_rng(1808)
    checked = 0
    for i in range(12):
        d, degree = 1 + i % 3, (8, 12, 16)[i % 3] - 4 * (i % 3 == 2)
        seq = signed_table(rng, d, degree)
        a = Polynomial(d, {index: float(rng.uniform(-1.0, 1.0))
                           for index in enumerate_monomials(d, 1 + i % 2)})
        c = max(abs(v) for v in _even_power_values(seq, a, 1)) ** 0.5
        for poly in (a, c - a):
            count = degree // (2 * poly.degree())
            values = _even_power_values(seq, poly, count)
            for value, (exact, scale) in zip(values, exact_even_powers(seq, poly, count)):
                assert abs(Fraction(value) - exact) <= 16 * EPS * scale
                checked += 1
    assert checked > 40


def test_growth_bound_scales_by_powers_of_two_bit_for_bit(atom_corpus):
    for _, seq in atom_corpus[:6]:
        d = seq.dimension
        a = Polynomial.variable(d, 0) * 0.7 - Polynomial.variable(d, d - 1) * 0.3 + 0.1
        base = growth_bound(seq, a)
        for power in (-1000, -20, 30):
            scaled = growth_bound(seq, 2.0**power * a)
            assert scaled.value == 2.0**power * base.value
            assert scaled.per_power == tuple(2.0**power * r for r in base.per_power)


def test_a_tiny_polynomial_keeps_its_growth_bound(two_atoms):
    # L((1e-300 t)^(2n)) underflows; the bound is 1e-300 times that of t
    assert growth_bound(two_atoms, 1e-300 * T).value == pytest.approx(1e-300, rel=1e-12)


def test_a_term_that_underflows_in_the_scaled_polynomial_drops_out():
    # scaled by 2^(-e), e the binary exponent of 1e150, the t term underflows
    # to zero: S has fewer rows than the power vectors, whose rest stays zero
    seq = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.2, (2,): 0.5})
    assert growth_bound(seq, 1e150 + 1e-180 * T).value == 1e150


#: L(t^2) = 1e200 and L(t^4) = 1e300: L((1e200 t)^(2n)) overflows at n = 1, 2
OVERFLOWING_POWERS = MomentSequence(1, 4, {(0,): 1.0, (1,): 0.0, (2,): 1e200, (3,): 0.0,
                                           (4,): 1e300})


def test_a_huge_polynomial_keeps_its_growth_bound():
    # only the scaled power table, its roots and the bound must be finite
    gb = growth_bound(OVERFLOWING_POWERS, 1e200 * T)
    assert gb.value == pytest.approx(1e300, rel=1e-14)
    assert gb.per_power == pytest.approx((1e300, 1e275), rel=1e-14)
    assert gb.value == gb.per_power[0] and gb.n_used == 2


def test_the_growth_check_of_a_huge_polynomial_is_still_refused():
    # growth_check compares L(a^(2n)) itself, which is not a finite float
    with pytest.raises(ValueError, match=r"L\(p q\) = inf is not finite"):
        growth_check(OVERFLOWING_POWERS, [(1e200 * T, 1.0, 1.0)])


@pytest.mark.parametrize("moments, a", [
    ([1.0, 0.0, 1e300, 0.0, 1e300], 1e200 * T),  # a root beyond the float range
    ([1.0] + [8e307] * 8, sum((T**k for k in range(5)), Polynomial.zero(1))),  # a scaled value
])
def test_a_growth_bound_beyond_the_float_range_is_a_value_error(moments, a):
    seq = MomentSequence(1, len(moments) - 1, {(k,): v for k, v in enumerate(moments)})
    # as in the CLI, an overflow ends in the ValueError, not in a warning
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="growth bound is not finite"):
        growth_bound(seq, a)


# -- the archimedean bound against a reference bisection ----------------------

#: the reference bisection's bracket stops doubling here
REFERENCE_CEILING = 1e12
#: the reference bisection stops at this bracket width
REFERENCE_WIDTH = 1e-10


def compressed_localized(seq: MomentSequence, a: Polynomial, order: int) -> np.ndarray:
    """The localized matrix of ``a`` compressed to the range of the plain
    matrix and whitened there, built from the moment matrices directly."""
    w = range_whitener(sym_eig(seq.moment_matrix(order).matrix))
    return w.T @ seq.moment_matrix(order, a).matrix.data @ w


def admitted(bound: float, compressed: np.ndarray) -> bool:
    return psd_check(bound * np.eye(len(compressed)) - compressed).is_psd


def reference_archimedean(seq: MomentSequence, a: Polynomial, order: int) -> float:
    """The bisection with ``psd_check`` at every step, on the compressed
    localized matrix, to bracket width ``REFERENCE_WIDTH``: an independent
    route to the least admitted M."""
    compressed = compressed_localized(seq, a, order)
    hi = 1.0
    while not admitted(hi, compressed):
        hi = min(2.0 * hi, REFERENCE_CEILING)
    lo = -1.0
    while admitted(lo, compressed):
        lo = max(2.0 * lo, -REFERENCE_CEILING)
    while hi - lo > REFERENCE_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if admitted(mid, compressed):
            hi = mid
        else:
            lo = mid
    return hi


def archimedean_cases(atom_corpus):
    for _, seq in atom_corpus[:9]:
        d = seq.dimension
        a = Polynomial.variable(d, 0) - Polynomial.variable(d, d - 1) * 0.5 + 0.25
        for poly, order in ((a, 3), (a * a, 2), (-a, 1)):
            yield seq, poly, order


def assert_at_the_top(bound, seq, poly, order):
    """Admitted by the default PSD check, the pencil's upper bound bit for
    bit, and within 1e-8 of the reference bisection."""
    assert admitted(bound, compressed_localized(seq, poly, order))
    assert bound == rayleigh_bounds(seq, poly, order).upper
    assert abs(bound - reference_archimedean(seq, poly, order)) <= 1e-8


def test_archimedean_bound_matches_the_reference_bisection(atom_corpus):
    for seq, poly, order in archimedean_cases(atom_corpus):
        assert_at_the_top(archimedean_bound(seq, poly, order), seq, poly, order)


def test_archimedean_bound_edge_cases_match_the_reference():
    # bounds at exactly -1 and 1, at 6e11, and on a rank-one plain matrix
    for a, moments in ((-T, (1.0, 1.0, 1.0)), (T, (1.0, 1.0, 1.0)), (6e11 * T, (1.0, 1.0, 1.0)),
                       (T, (1.0, -1.0, 1.0))):
        seq = MomentSequence(1, 2, {(k,): v for k, v in enumerate(moments)})
        assert_at_the_top(archimedean_bound(seq, a, 0), seq, a, 0)
    seq = MomentSequence(1, 2, {(k,): 1.0 for k in range(3)})
    assert archimedean_bound(seq, T, 0) == 1.0
    assert archimedean_bound(seq, 6e11 * T, 0) == 6e11


def spectrum_read_off_by(monkeypatch, error):
    """Make the archimedean bound read every eigenvalue ``error`` too high."""
    original = bounds.sym_eig

    def shifted(matrix, vectors=True):
        decomp = original(matrix, vectors)
        if vectors:
            return decomp
        return EigenDecomposition(decomp.eigenvalues + error, None)

    monkeypatch.setattr(bounds, "sym_eig", shifted)


@pytest.mark.parametrize("error", [0.5, -5e-10, 1e-9])
def test_a_wrong_spectrum_still_gives_an_admitted_bound(atom_corpus, monkeypatch, error):
    # a top eigenvalue read too high, or too low by less than the PSD
    # tolerance, is admitted as it was read; the tolerance of a retained
    # rank of one is 1e-9 (1 + the shortfall), so that case reads 5e-10 low
    cases = list(archimedean_cases(atom_corpus))
    truth = [rayleigh_bounds(*case).upper for case in cases]
    spectrum_read_off_by(monkeypatch, error)
    for (seq, poly, order), upper in zip(cases, truth):
        bound = archimedean_bound(seq, poly, order)
        assert admitted(bound, compressed_localized(seq, poly, order))
        assert bound == upper + error


def test_a_spectrum_read_too_low_is_refused(atom_corpus, monkeypatch):
    cases = list(archimedean_cases(atom_corpus))
    spectrum_read_off_by(monkeypatch, -0.5)
    for seq, poly, order in cases:
        with pytest.raises(NotPsdError, match=r"archimedean bound .* is not admitted: "
                           r"M I - C misses its PSD tolerance .* by 5\.000e-01"):
            archimedean_bound(seq, poly, order)


def test_archimedean_bound_runs_two_eigensolves(atom_corpus, monkeypatch):
    seq, poly, order = next(archimedean_cases(atom_corpus))
    rayleigh_bounds(seq, poly, order)  # the plain decomposition, shared
    calls = []
    original = bounds.sym_eig

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "sym_eig", counting)
    monkeypatch.setattr(linalg, "sym_eig", counting)
    archimedean_bound(seq, poly, order)
    # the top eigenvalue, and the PSD check that admits the bound
    assert len(calls) == 2


def test_the_archimedean_bound_scales_exactly_with_its_polynomial():
    # every step, from the localized matrix to the top eigenvalue, commutes
    # with a power-of-two scaling, and so must the bound
    rng = np.random.default_rng(29)
    for i in range(40):
        d = i % 3 + 1
        atoms = [(tuple(rng.uniform(-1.5, 1.5, d)), float(rng.uniform(0.2, 1.0)))
                 for _ in range(int(rng.integers(3, 12)))]
        seq = from_measure(MeasureSpec(atoms=atoms), 8)
        a = Polynomial.variable(d, 0) - Polynomial.variable(d, d - 1) * 0.5 + 0.25
        base = archimedean_bound(seq, a, 3)
        for k in (-40, -8, 8, 40):
            assert archimedean_bound(seq, a * 2.0**k, 3) == math.ldexp(base, k)


def test_a_tiny_polynomial_keeps_its_archimedean_bound():
    # the degree-8 table of atoms 0.5 (weight 1) and -0.3 (weight 2): the
    # bound of 1e-300*t is 1e-300 times that of t, with no absolute floor
    seq = from_measure(MeasureSpec(atoms=[((0.5,), 1.0), ((-0.3,), 2.0)]), 8)
    assert archimedean_bound(seq, 1e-300 * T, 3) == 5.000000000000001e-301


# -- one localized matrix per (shift, order) ----------------------------------


def test_analyze_builds_each_localized_matrix_once(atom_corpus, tmp_path, monkeypatch):
    _, seq = atom_corpus[2]
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(seq.to_document()))
    built = []
    original = MomentSequence.moment_matrix

    def counting(self, order, shift=None):
        built.append((order, None if shift is None else tuple(shift.terms.items())))
        return original(self, order, shift)

    monkeypatch.setattr(MomentSequence, "moment_matrix", counting)
    assert cli.main(["analyze", str(path), "--poly", "x1", "--poly", "x2*x3 - 0.5",
                     "--quiet"]) == 0
    assert built and len(built) == len(set(built))


def test_equal_shifts_in_another_term_order_share_one_matrix(atom_corpus):
    _, seq = atom_corpus[2]
    x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
    first, second = x * 0.1 + y * 0.2 + 0.3, 0.3 + y * 0.2 + x * 0.1
    assert first == second and list(first.terms) != list(second.terms)
    matrix = bounds._localized_matrix(seq, 2, first)
    assert bounds._localized_matrix(seq, 2, second) is matrix
    assert np.array_equal(matrix.data, seq.moment_matrix(2, second).matrix.data)


def test_a_shift_equal_to_one_is_the_plain_matrix(atom_corpus, monkeypatch):
    seq = from_measure(atom_corpus[2][0], 8)  # a fresh cache
    built = []
    original = MomentSequence.moment_matrix

    def counting(self, order, shift=None):
        built.append(shift)
        return original(self, order, shift)

    monkeypatch.setattr(MomentSequence, "moment_matrix", counting)
    plain = bounds._localized_matrix(seq, 2, Polynomial.constant(3, 1.0))
    assert bounds._localized_matrix(seq, 2) is plain
    assert bounds._localized_matrix(seq, 2, Polynomial(3, {(0, 0, 0): 1})) is plain
    assert built == [None]


def shuffled(rng, p: Polynomial) -> Polynomial:
    """p with its terms inserted in a random order."""
    items = list(p.terms.items())
    return Polynomial(p.dimension, dict(items[i] for i in rng.permutation(len(items))))


def random_polynomial(rng, d: int, degree: int, n_terms: int) -> Polynomial:
    monomials = enumerate_monomials(d, degree)
    picks = rng.choice(len(monomials), size=min(n_terms, len(monomials)), replace=False)
    return Polynomial(d, {monomials[i]: float(rng.normal()) for i in picks})


def test_terms_in_another_order_give_the_same_matrix_bit_for_bit(atom_corpus):
    rng = np.random.default_rng(25)
    reordered = 0
    for _, seq in atom_corpus[:6]:
        for _ in range(4):
            p = random_polynomial(rng, seq.dimension, 2, 6)
            q = shuffled(rng, p)
            assert q == p
            reordered += list(q.terms) != list(p.terms)
            for order in range(4):
                assert np.array_equal(seq.moment_matrix(order, q).matrix.data,
                                      seq.moment_matrix(order, p).matrix.data)
                assert bounds._localized_matrix(seq, order, q) is \
                    bounds._localized_matrix(seq, order, p)
    assert reordered >= 20


def test_terms_in_another_order_give_the_same_analyze_report(atom_corpus, tmp_path, capsys):
    _, seq = atom_corpus[2]
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(seq.to_document()))
    names = ["x1", "x2", "x3"]
    rng = np.random.default_rng(26)
    for case in range(10):
        p = random_polynomial(rng, 3, 2, 6)
        texts = [
            " + ".join(format_polynomial(Polynomial(3, {k: v}), names) for k, v in q.terms.items())
            for q in (p, shuffled(rng, p))
        ]
        assert texts[0] != texts[1]
        outputs = []
        for side, text in enumerate(texts):
            out = tmp_path / f"{case}-{side}.json"
            code = cli.main(["analyze", str(path), "--poly", text, "--order", "3",
                             "--out", str(out)])
            outputs.append((code, capsys.readouterr().out, out.read_text()))
        first = (outputs[0][0], *(o.replace(texts[0], texts[1]) for o in outputs[0][1:]))
        assert first == outputs[1]
