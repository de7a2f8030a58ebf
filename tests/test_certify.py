import itertools
import math
import time

import numpy as np
import pytest

from momint.certify import (
    FactorPair,
    ball_check,
    cone_positivity_check,
    growth_check,
    interval_membership_check,
    product_positivity_check,
    run_check_config,
    schmudgen_check,
    weak_absolute_value_check,
)
from momint.bounds import growth_bound
from momint.exceptions import DegreeOverflowError
from momint.moments import MeasureSpec, MomentSequence, from_measure
from momint.polynomials import Polynomial, enumerate_monomials

T = Polynomial.variable(1, 0)


def signed_sequence():
    """Moment table of the signed combination 1.5*delta_0 - 0.5*delta_1."""
    values = {(k,): (1.5 if k == 0 else 0.0) - 0.5 * 1.0**k for k in range(9)}
    values[(0,)] = 1.0
    return MomentSequence(1, 8, values)


def test_identity_suite_exact_and_fast(identity_suite):
    start = time.perf_counter()
    report = identity_suite()
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.attempted == 5
    assert all(d["exact"] for d in report.details)
    assert elapsed < 1.0


def test_products_symmetric_atoms(two_atoms):
    report = product_positivity_check(
        two_atoms, [FactorPair(1.0 - T, 1.0 + T)], max_factors=3
    )
    assert report.passed
    assert report.attempted > 0 and report.skipped == 0


def test_products_detect_wrong_bound(dirac3):
    report = product_positivity_check(
        dirac3, [FactorPair(1.0 - T, 1.0 + T)], max_factors=2
    )
    assert not report.passed
    values = {v.description: v.value for v in report.violations}
    assert any(abs(v + 2.0) <= 1e-12 for v in values.values())  # L(1 - t) = -2


def test_products_with_growth_bound_factors(atom_corpus):
    for _, seq in atom_corpus[:5]:
        d = seq.dimension
        a = Polynomial.variable(d, 0)
        c = growth_bound(seq, a).value
        pair = FactorPair(Polynomial.constant(d, c) - a, Polynomial.constant(d, c) + a)
        assert product_positivity_check(seq, [pair], max_factors=2).passed


def test_products_count_skipped(two_atoms):
    report = product_positivity_check(
        two_atoms, [FactorPair(1.0 - T**8, 1.0 + T**8)], max_factors=3
    )
    assert report.skipped > 0


def test_products_beyond_the_budget_are_counted_not_enumerated(two_atoms):
    factors = [FactorPair(1.0 - T, 1.0 + T), FactorPair(1.0 - T * T, 1.0 + T * T)]
    degrees = [1, 1, 2, 2]
    for cap in (12, 16, 17, 20):
        report = product_positivity_check(two_atoms, factors, max_factors=cap)
        fits = sum(
            sum(combo) <= 16
            for length in range(1, cap + 1)
            for combo in itertools.combinations_with_replacement(degrees, length)
        )
        assert (report.attempted, report.skipped) == (fits, math.comb(4 + cap, 4) - 1 - fits)
    at_budget = product_positivity_check(two_atoms, factors, max_factors=16)
    huge = product_positivity_check(two_atoms, factors, max_factors=10**30)
    assert huge.attempted == at_budget.attempted
    assert huge.violations == at_budget.violations
    assert huge.skipped == math.comb(4 + 10**30, 4) - 1 - huge.attempted


def test_products_reject_empty_factor_list(two_atoms):
    with pytest.raises(ValueError):
        product_positivity_check(two_atoms, [])


def test_products_minimality_of_growth_bound(atom_corpus):
    # any constant T_a that passes the product family dominates the growth bound
    for spec, seq in atom_corpus[:5]:
        d = seq.dimension
        a = Polynomial.variable(d, 0)
        true_sup = max(abs(pt[0]) for pt, _ in spec.atoms)
        c_hat = growth_bound(seq, a).value
        for candidate in (true_sup, true_sup + 0.5):
            pair = FactorPair(
                Polynomial.constant(d, candidate) - a,
                Polynomial.constant(d, candidate) + a,
            )
            report = product_positivity_check(seq, [pair], max_factors=3)
            if report.passed:
                assert c_hat <= candidate + 1e-9


def test_cone_symmetric_atoms(two_atoms):
    report = cone_positivity_check(two_atoms, T, T, jk_max=3)
    assert report.passed


def test_cone_lebesgue(lebesgue01_deep):
    report = cone_positivity_check(lebesgue01_deep, T, T, jk_max=2)
    assert report.passed


def test_cone_detects_signed_data():
    report = cone_positivity_check(signed_sequence(), T, T, jk_max=3)
    assert not report.passed


def test_cone_implies_square_positivity(two_atoms, lebesgue01_deep, dirac3):
    # whenever the cone family passes at depth >= 4, L(a^2) is nonnegative
    for seq in (two_atoms, lebesgue01_deep, dirac3, signed_sequence()):
        report = cone_positivity_check(seq, T, T, jk_max=4)
        if report.passed:
            assert seq.apply(T * T) >= -1e-9


def test_cone_beyond_the_budget_is_counted_not_formed(two_atoms):
    # b = t has the nonzero prefactor 1 - t^2 of degree 2
    for jk_max in (12, 16, 17, 20):
        report = cone_positivity_check(two_atoms, T, T, jk_max=jk_max)
        fits = sum(
            j + k + prefactor <= 16
            for j in range(jk_max + 1)
            for k in range(jk_max + 1 - j)
            for prefactor in (0, 2)
            if (j, k, prefactor) != (0, 0, 0)
        )
        members = 2 * math.comb(jk_max + 2, 2) - 1
        assert (report.attempted, report.skipped) == (fits, members - fits)
    at_budget = cone_positivity_check(two_atoms, T, T, jk_max=16)
    huge = cone_positivity_check(two_atoms, T, T, jk_max=10**30)
    assert huge.attempted == at_budget.attempted
    assert huge.violations == at_budget.violations
    assert huge.skipped == 2 * math.comb(10**30 + 2, 2) - 1 - huge.attempted


@pytest.mark.parametrize("factor", [
    FactorPair(Polynomial.constant(1, 2.0), T),
    FactorPair(1.0 - T, Polynomial.zero(1)),
])
def test_products_reject_a_side_of_degree_zero(two_atoms, factor):
    # such a side fits the degree budget at any length, so no cap would end
    # the enumeration; the error names the side
    side = "upper" if factor.upper.degree() < 1 else "lower"
    with pytest.raises(ValueError, match=f"factor 2 {side} side must have positive degree"):
        product_positivity_check(two_atoms, [FactorPair(1.0 - T, 1.0 + T), factor],
                                 max_factors=10**30)


def test_cone_rejects_a_constant_a_and_a_negative_jk_max(two_atoms):
    with pytest.raises(ValueError, match="cone a must have positive degree"):
        cone_positivity_check(two_atoms, Polynomial.constant(1, 1.0), T, jk_max=10**30)
    with pytest.raises(ValueError, match="jk_max must be >= 0"):
        cone_positivity_check(two_atoms, T, T, jk_max=-1)


def test_cone_zero_prefactor_members_are_counted_not_formed(two_atoms):
    # b = 1 makes cb^2 - b^2 zero: its C(J + 2, 2) members count as attempted
    one = Polynomial.constant(1, 1.0)
    at_budget = cone_positivity_check(two_atoms, T, one, jk_max=16)
    huge = cone_positivity_check(two_atoms, T, one, jk_max=10**30)
    plain = math.comb(16 + 2, 2) - 1
    assert (at_budget.attempted, at_budget.skipped) == (plain + math.comb(18, 2), 0)
    assert huge.attempted == plain + math.comb(10**30 + 2, 2)
    assert huge.skipped == math.comb(10**30 + 2, 2) - 1 - plain
    assert huge.violations == at_budget.violations


def absolute_scale(seq, factors):
    """sum_alpha |P_alpha| |y_alpha| for the product P of ``factors`` with
    every coefficient made absolute. It bounds sum |coeff| |z| of any
    expansion of the plain product over pushforward moments z, and the
    scale of its direct evaluation too."""
    product = Polynomial.constant(seq.dimension, 1.0)
    for factor in factors:
        product = product * factor.map_coefficients(abs)
    return sum(c * abs(seq.moment(k)) for k, c in product.terms.items())


#: a semiring value is an expansion over pushforward moments, not the direct
#: product: it may differ from the direct one by this many ulps of the scale
EXPANSION_ULPS = 64.0


def assert_within_expansion_bound(got, want):
    """``got`` (violations) and ``want`` ((description, value, scale) in
    enumeration order) agree in order and description exactly, and in value
    to within EXPANSION_ULPS * eps * scale."""
    eps = float(np.finfo(float).eps)
    assert [v.description for v in got] == [label for label, _, _ in want]
    for violation, (label, value, scale) in zip(got, want):
        assert abs(violation.value - value) <= EXPANSION_ULPS * eps * scale, label


def reference_cone(seq, a, b, jk_max, tol):
    """The cone family member by member: (c - a)^j, (c + a)^k and the
    prefactor formed directly, as the check did before it shared the
    semiring enumeration. Violations come as (description, value, scale)
    in the semiring's order: by j + k, then j from high to low, the plain
    member before its prefactored twin."""
    from momint.polynomials import default_variable_names, format_polynomial

    names = default_variable_names(seq.dimension)
    c_a, c_b = growth_bound(seq, a).value, growth_bound(seq, b).value
    one = Polynomial.constant(seq.dimension, 1.0)
    minus = Polynomial.constant(seq.dimension, c_a) - a
    plus = Polynomial.constant(seq.dimension, c_a) + a
    prefactor = Polynomial.constant(seq.dimension, c_b * c_b) - b * b
    minus_powers, plus_powers = [one], [one]
    for _ in range(jk_max):
        minus_powers.append(minus_powers[-1] * minus)
        plus_powers.append(plus_powers[-1] * plus)
    violations, attempted, skipped = [], 0, 0
    for j in range(jk_max + 1):
        for k in range(jk_max + 1 - j):
            for with_prefactor in (False, True):
                if not with_prefactor and j == k == 0:
                    continue
                left = prefactor * minus_powers[j] if with_prefactor else minus_powers[j]
                right = plus_powers[k]
                if not left.is_zero() and left.degree() + right.degree() > seq.max_degree:
                    skipped += 1
                    continue
                value = seq.apply(left, right)
                attempted += 1
                if value < -tol:
                    head = f"({format_polynomial(prefactor, names)}) * " if with_prefactor else ""
                    factors = [minus] * j + [plus] * k + [prefactor] * with_prefactor
                    violations.append(((j + k, -j, with_prefactor), (
                        f"{head}({format_polynomial(minus, names)})^{j} * "
                        f"({format_polynomial(plus, names)})^{k}", value,
                        absolute_scale(seq, factors))))
    return [v for _, v in sorted(violations)], attempted, skipped


def _random_polynomial(rng, d, degree):
    monomials = [m for m in enumerate_monomials(d, degree) if sum(m) >= 1]
    terms = {m: float(rng.integers(-4, 5)) / 4 for m in monomials if rng.random() < 0.7}
    terms[monomials[-1]] = float(rng.choice([-1.0, 0.5, 1.25]))
    return Polynomial(d, terms)


def test_cone_matches_the_reference_loop_on_signed_tables():
    from momint.policy import relative_tol

    rng = np.random.default_rng(20261018)
    failing = beyond_budget = 0
    for case in range(60):
        d = 1 + case % 2
        max_degree = int(rng.choice([4, 6, 8]))
        atoms = rng.uniform(-1.5, 1.5, (4, d))
        weights = np.array([1.0, 0.6, 0.4, -rng.uniform(0.05, 0.8)])
        values = {
            m: float(np.sum(weights * np.prod(atoms ** np.array(m), axis=1)))
            for m in enumerate_monomials(d, max_degree)
        }
        seq = MomentSequence(d, max_degree, values)
        a = _random_polynomial(rng, d, 1 + case % 3 // 2)
        b = (Polynomial.constant(d, 1.0) if case % 4 == 3
             else _random_polynomial(rng, d, 1 + case % 5 // 3))
        jk_max = int(rng.integers(0, 6))
        report = cone_positivity_check(seq, a, b, jk_max=jk_max)
        want, attempted, skipped = reference_cone(seq, a, b, jk_max, relative_tol(seq.y))
        assert (report.attempted, report.skipped) == (attempted, skipped)
        assert_within_expansion_bound(report.violations, want)
        assert report.passed == (not want)
        failing += bool(want)
        beyond_budget += skipped > 0
    # the corpus reaches both the violations and the degree budget
    assert failing >= 20 and beyond_budget >= 10


def test_schmudgen_subset_shifts_are_the_chained_products(monkeypatch):
    import momint.certify as certify
    from momint.bounds import quadratic_module_psd

    # full quadratics, so that most product terms sum three or more pieces
    # and a different multiplication order would round differently
    rng = np.random.default_rng(7)
    constraints = [
        Polynomial(2, {m: float(rng.uniform(-1.0, 1.0)) for m in enumerate_monomials(2, 2)})
        for _ in range(3)
    ]
    seq = from_measure(MeasureSpec(atoms=[((0.2, 0.3), 0.5), ((-0.4, 0.1), 0.5)]), 12)
    shifts = []

    def recording(seq, shift, order, tol):
        shifts.append(shift)
        return quadratic_module_psd(seq, shift, order, tol)

    monkeypatch.setattr(certify, "quadratic_module_psd", recording)
    report = schmudgen_check(seq, constraints, order=1)
    subsets = [s for n in range(4) for s in itertools.combinations(range(3), n)]
    assert report.attempted == len(shifts) == len(subsets)
    for shift, subset in zip(shifts, subsets):
        chained = Polynomial.constant(2, 1.0)
        for j in subset:
            chained = chained * constraints[j]
        assert shift.terms == chained.terms


def test_cone_budget_overflow_errors(two_atoms):
    # the growth bound of a degree-9 polynomial needs moments beyond degree 16
    with pytest.raises(DegreeOverflowError):
        cone_positivity_check(two_atoms, T**9, T, jk_max=2)


def test_ball_circle_fixture(circle4):
    passing = ball_check(circle4, radius=2.0, order=1)
    assert passing.passed
    growth_detail = passing.details[1]
    assert abs(growth_detail["value"] - 4.0) <= 1e-10

    failing = ball_check(circle4, radius=1.9, order=1)
    assert not failing.passed


def test_ball_dirac_origin():
    seq = from_measure(MeasureSpec(atoms=[((0.0, 0.0), 1.0)]), 6)
    for radius in (0.1, 1.0, 10.0):
        assert ball_check(seq, radius=radius, order=1).passed


def test_ball_conditions_agree_with_geometry(atom_corpus):
    for spec, seq in atom_corpus[:10]:
        rho = max(sum(c * c for c in pt) ** 0.5 for pt, _ in spec.atoms)
        inside = ball_check(seq, radius=rho * 1.1 + 0.1, order=2)
        assert inside.passed
        assert inside.details[0]["passed"] and inside.details[1]["passed"]
        if rho > 0.5:
            outside = ball_check(seq, radius=rho * 0.8, order=2)
            assert not outside.passed
            assert not outside.details[0]["passed"]
            assert not outside.details[1]["passed"]


def test_ball_psd_half_uses_the_callers_tol():
    # atoms at (0, 0) and (1.02, 0): the localized matrix of 1 - x^2 - y^2 at
    # order 2 has min eigenvalue about -0.0445, the growth bound stays below 1
    seq = from_measure(MeasureSpec(atoms=[((0.0, 0.0), 0.5), ((1.02, 0.0), 0.5)]), 8)
    strict = ball_check(seq, 1.0, 2)
    assert not strict.passed and not strict.details[0]["passed"]
    assert strict.details[1]["passed"]
    assert -0.05 < strict.details[0]["min_eigenvalue"] < -0.04
    loose = ball_check(seq, 1.0, 2, tol=0.05)
    assert loose.passed and loose.details[0]["passed"]


def test_ball_rejects_bad_radius(circle4):
    for radius in (0.0, math.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            ball_check(circle4, radius=radius, order=1)


def test_growth_check_examples(two_atoms, dirac3):
    assert growth_check(two_atoms, [(T, 1.0, 1.0)]).passed

    report = growth_check(two_atoms, [(T, 0.9, 1.0)])
    assert not report.passed
    assert any("^2)" in v.description for v in report.violations)

    assert growth_check(dirac3, [(T, 3.0, 1.0)]).passed
    assert not growth_check(dirac3, [(T, 2.9, 1.0)]).passed


def test_growth_check_skips_a_generator_with_no_reachable_even_power():
    # at degree 4, L(t^6) is the first even power of t^3: nothing to compare
    seq = from_measure(MeasureSpec(atoms=[((0.5,), 0.4), ((-0.3,), 0.6)]), 4)
    report = growth_check(seq, [(T**3, 1.0, 1.0), (T, 1.0, 1.0)])
    assert (report.passed, report.attempted, report.skipped) == (True, 2, 1)
    assert report.violations == () and report.details == ()


def test_growth_check_values_the_zero_generator_at_zero():
    seq = from_measure(MeasureSpec(atoms=[((0.5,), 0.4), ((-0.3,), 0.6)]), 4)
    # any positive limit passes a value of exactly 0, however small
    report = growth_check(seq, [(Polynomial.zero(1), 1e-100, 1e-100)], tol=0.0)
    assert (report.passed, report.attempted, report.skipped) == (True, 2, 0)
    assert report.violations == ()
    ((name, report),) = run_check_config(seq, {"checks": [
        {"check": "growth", "generators": [{"poly": "0", "bound": 1e-100}]}]})
    assert (name, report.passed, report.attempted, report.skipped) == ("growth", True, 2, 0)


def test_growth_check_rejects_bad_parameters(two_atoms):
    # a NaN bound or prefactor would make every comparison false: a PASS
    for bound, prefactor in ((-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            growth_check(two_atoms, [(T, bound, prefactor)])


def test_weak_absolute_value_rejects_bad_parameters(two_atoms):
    for value, functional_bound in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            weak_absolute_value_check(two_atoms, [(T, value)], functional_bound)


def test_weak_absolute_value_examples(two_atoms, dirac3):
    assert weak_absolute_value_check(two_atoms, [(T, 1.0)], 1.0).passed
    assert not weak_absolute_value_check(dirac3, [(T, 2.0)], 1.0).passed
    assert weak_absolute_value_check(
        two_atoms, [(Polynomial.constant(1, 1.0), 1.0)], 1.0
    ).passed


def test_weak_absolute_value_evaluates_what_fits():
    # degree 8: no even power of t^5 fits, but L(t^5) does; nothing of t^9 fits
    seq = from_measure(MeasureSpec(atoms=[((0.5,), 1.0), ((-0.3,), 2.0)]), 8)
    t5, t9 = T**5, T**9
    applied = (0.5**5 + 2.0 * (-0.3) ** 5) / 3.0
    report = weak_absolute_value_check(seq, [(t5, 1.0)], 1.0)
    assert (report.passed, report.attempted, report.skipped) == (True, 1, 1)
    report = weak_absolute_value_check(seq, [(t5, 0.001)], 1.0, tol=0.0)
    assert (report.attempted, report.skipped) == (1, 1)
    assert [v.description for v in report.violations] == [
        f"|L(t^5)| = {applied:.12g} exceeds 0.001"
    ]
    assert report.violations[0].value == pytest.approx(applied - 0.001, abs=1e-15)
    report = weak_absolute_value_check(seq, [(t9, 1.0)], 1.0)
    assert (report.passed, report.attempted, report.skipped) == (True, 0, 2)
    # every entry adds exactly 2 to attempted + skipped
    report = weak_absolute_value_check(seq, [(t5, 1.0), (T, 1.0), (t9, 1.0)], 1.0)
    assert (report.attempted, report.skipped) == (3, 3)


def test_schmudgen_lebesgue(lebesgue01):
    report = schmudgen_check(lebesgue01, [T, 1.0 - T], order=1)
    assert report.passed
    assert report.attempted == 4  # empty set plus three nonempty subsets


def test_schmudgen_dirac_outside():
    seq = from_measure(MeasureSpec(atoms=[((2.0,), 1.0)]), 6)
    report = schmudgen_check(seq, [T, 1.0 - T], order=1)
    assert not report.passed
    failing = [v.description for v in report.violations]
    assert any("-t + 1" in d for d in failing)
    # the singleton {t} is fine: the support is positive
    t_only = [d for d in report.details if d["subset"] == "{t}"]
    assert t_only[0]["passed"]


def test_schmudgen_boundary_atom():
    seq = from_measure(MeasureSpec(atoms=[((0.0,), 1.0)]), 6)
    report = schmudgen_check(seq, [T], order=1)
    assert report.passed  # zero localized matrix is PSD


def test_schmudgen_budget_error(lebesgue01):
    with pytest.raises(DegreeOverflowError):
        schmudgen_check(lebesgue01, [T**6, T**6], order=1)


def test_interval_lebesgue(lebesgue01):
    report = interval_membership_check(lebesgue01, [(T, 0.0, 1.0)], order=1)
    assert report.passed
    assert report.attempted == 3


def test_interval_fails_on_symmetric_atoms(two_atoms):
    report = interval_membership_check(two_atoms, [(T, 0.0, 1.0)], order=1)
    assert not report.passed
    assert any("- 0" in v.description for v in report.violations)


def test_interval_degenerate_point():
    seq = from_measure(MeasureSpec(atoms=[((5.0,), 1.0)]), 8)
    report = interval_membership_check(seq, [(T, 5.0, 5.0)], order=1)
    assert report.passed


def test_interval_square_follows_linear(atom_corpus):
    # on oracle data inside the stated interval all three shifts are PSD
    for spec, seq in atom_corpus[:6]:
        d = seq.dimension
        x = Polynomial.variable(d, 0)
        lo = min(pt[0] for pt, _ in spec.atoms) - 1e-9
        hi = max(pt[0] for pt, _ in spec.atoms) + 1e-9
        report = interval_membership_check(seq, [(x, lo, hi)], order=2)
        assert report.passed


def test_interval_reports_what_the_degree_budget_skips():
    seq = from_measure(MeasureSpec(atoms=[((0.5,), 0.4), ((-0.3,), 0.6)]), 4)
    report = interval_membership_check(
        seq, [(T**5, -1.0, 1.0), (T**3, -1.0, 1.0)], order=0)
    # t^5 needs degree 5 > 4; t^3 fits linearly, but its square shift 1 - t^6 does not
    assert (report.passed, report.attempted, report.skipped) == (True, 2, 2)
    beyond, cube = report.details
    assert beyond == {"poly": "t^5", "skipped": "degree budget"}
    assert cube["square"] == "degree budget" and cube["passed"] is True
    assert cube["order_linear"] == 0 and "order_square" not in cube
    assert cube["t^3 - -1"] == pytest.approx(1.0 + 0.4 * 0.125 - 0.6 * 0.027)
    assert cube["1 - t^3"] == pytest.approx(1.0 - 0.4 * 0.125 + 0.6 * 0.027)


def test_interval_rejects_empty(lebesgue01):
    with pytest.raises(ValueError):
        interval_membership_check(lebesgue01, [(T, 1.0, 0.0)], order=1)


def test_run_check_config_dispatch(lebesgue01):
    config = {
        "variables": ["t"],
        "checks": [
            {"check": "schmudgen", "constraints": ["t", "1 - t"], "order": 1},
            {"check": "interval", "entries": [{"poly": "t", "lower": 0.0, "upper": 1.0}], "order": 1},
            {"check": "growth", "generators": [{"poly": "t", "bound": 1.0}]},
        ],
    }
    results = run_check_config(lebesgue01, config)
    assert [name for name, _ in results] == ["schmudgen", "interval", "growth"]
    assert all(report.passed for _, report in results)


def test_run_check_config_rejects_empty(lebesgue01):
    with pytest.raises(ValueError, match="no checks"):
        run_check_config(lebesgue01, {"checks": []})
    with pytest.raises(ValueError, match="unknown check"):
        run_check_config(lebesgue01, {"checks": [{"check": "nope"}]})


def test_run_check_config_rejects_negative_default_tol(lebesgue01):
    # the value certify --tol passes; a negative tolerance would demand a margin
    config = {"checks": [{"check": "cone", "a": "t"}]}
    with pytest.raises(ValueError, match="tol must be >= 0"):
        run_check_config(lebesgue01, config, default_tol=-1.0)


@pytest.mark.parametrize("config, key, where", [
    ({"checks": [{"check": "cone", "a": "t"}], "variable": ["t"]}, "variable",
     "check configuration"),
    ({"checks": [{"check": "cone", "a": "t", "jkmax": 1}]}, "jkmax", "cone check"),
    ({"checks": [{"check": "cone", "a": "t", "order": 2}]}, "order", "cone check"),
    ({"checks": [{"check": "growth", "generators": [{"poly": "t"}], "order": 2}]}, "order",
     "growth check"),
    ({"checks": [{"check": "products", "factors": [{"upper": "t", "lower": "t"}],
                  "max_factor": 2}]}, "max_factor", "products check"),
    ({"checks": [{"check": "products", "factors": [{"upper": "t", "lower": "t", "side": 1}]}]},
     "side", "factors entry"),
    ({"checks": [{"check": "growth", "generators": [{"poly": "t", "bound": 1, "prefactr": 2}]}]},
     "prefactr", "generators entry"),
    ({"checks": [{"check": "weak_absolute_value", "functional_bound": 1,
                  "entries": [{"poly": "t", "value": 1, "lower": 0}]}]}, "lower", "entries entry"),
    ({"checks": [{"check": "interval", "entries": [{"poly": "t", "lower": 0, "uper": 1}]}]},
     "uper", "entries entry"),
    ({"checks": [{"check": "ball", "radius": 1, "coordinate": ["t"]}]}, "coordinate",
     "ball check"),
])
def test_run_check_config_rejects_unknown_keys(lebesgue01, config, key, where):
    with pytest.raises(ValueError, match=f"unknown key '{key}' in {where}"):
        run_check_config(lebesgue01, config)


def test_run_check_config_accepts_every_documented_key(lebesgue01):
    config = {"variables": ["t"], "checks": [
        {"check": "products", "factors": [{"upper": "1 - t", "lower": "1 + t"}],
         "max_factors": 2, "tol": 1e-9},
        {"check": "cone", "a": "t", "b": "t", "jk_max": 2, "tol": 1e-9},
        {"check": "ball", "radius": 2.0, "order": 1, "coordinates": ["t"], "tol": 1e-9},
        {"check": "growth", "generators": [{"poly": "t", "bound": 1.0, "prefactor": 1.0}],
         "tol": 1e-9},
        {"check": "weak_absolute_value", "entries": [{"poly": "t", "value": 1.0}],
         "functional_bound": 1.0, "tol": 1e-9},
        {"check": "schmudgen", "constraints": ["t", "1 - t"], "order": 1, "tol": 1e-9},
        {"check": "interval", "entries": [{"poly": "t", "lower": 0.0, "upper": 1.0}],
         "order": 1, "tol": 1e-9},
    ]}
    assert len(run_check_config(lebesgue01, config)) == 7


def naive_products(seq, factors, max_factors, tol):
    """From-scratch reference: expand every product and apply L to it.
    Violations come as (description, value, product, absolute_scale)."""
    import itertools

    from momint.polynomials import default_variable_names, format_polynomial

    names = default_variable_names(seq.dimension)
    alphabet = [side for pair in factors for side in pair]
    violations, attempted, skipped = [], 0, 0
    for length in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(range(len(alphabet)), length):
            if sum(max(alphabet[k].degree(), 0) for k in combo) > seq.max_degree:
                skipped += 1
                continue
            product = Polynomial.constant(seq.dimension, 1.0)
            for k in combo:
                product = product * alphabet[k]
            value = seq.apply(product)
            attempted += 1
            if value < -tol:
                label = " * ".join(f"({format_polynomial(alphabet[k], names)})" for k in combo)
                scale = absolute_scale(seq, [alphabet[k] for k in combo])
                violations.append((label, value, product, scale))
    return violations, attempted, skipped


def test_products_match_naive_evaluation():
    # one atom outside the unit square, so products of 1 +- x1 go negative;
    # the quartic pair makes every long product with it exceed degree 10
    seq = from_measure(
        MeasureSpec(atoms=[((1.4, 0.3), 0.3), ((-0.5, -0.6), 0.4), ((0.2, 0.8), 0.3)]), 10
    )
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    quartic = 0.6 * x * x * y * y
    factors = [
        FactorPair(1.0 - x, 1.0 + x),
        FactorPair(1.0 - 0.5 * y, 1.0 + 0.5 * y),
        FactorPair(1.0 - quartic, 1.0 + quartic),
    ]
    tol = 1e-9
    report = product_positivity_check(seq, factors, max_factors=4, tol=tol)
    ref, attempted, skipped = naive_products(seq, factors, 4, tol)
    assert (report.attempted, report.skipped) == (attempted, skipped)
    assert skipped > 0 and ref
    assert [v.description for v in report.violations] == [label for label, *_ in ref]
    eps = float(np.finfo(float).eps)
    for got, (_, want, product, _) in zip(report.violations, ref):
        scale = sum(abs(c) * abs(seq.moment(k)) for k, c in product.terms.items())
        assert abs(got.value - want) <= 64.0 * eps * (1.0 + scale) * len(product.terms)


def test_default_check_tol_is_largest_moment(atom_corpus):
    from momint.policy import relative_tol

    for _, seq in atom_corpus[:5]:
        monomials = enumerate_monomials(seq.dimension, seq.max_degree)
        peak = max(abs(seq.moment(m)) for m in monomials)
        assert relative_tol(seq.y) == 1e-9 * (1.0 + peak)


def check_products_against_naive(seq, factors, cap):
    """The products check against ``naive_products``: counts, verdict,
    descriptions and their order exactly, and every member's value (all
    reported at tol = -inf) within the expansion rounding bound. Returns the
    number of violations at the default tolerance."""
    from momint.policy import relative_tol

    tol = relative_tol(seq.y)
    every, attempted, skipped = naive_products(seq, factors, cap, -math.inf)
    want = [(label, value, scale) for label, value, _, scale in every if value < -tol]
    report = product_positivity_check(seq, factors, max_factors=cap)
    assert (report.attempted, report.skipped) == (attempted, skipped)
    assert report.passed == (not want)
    assert_within_expansion_bound(report.violations, want)
    everything = product_positivity_check(seq, factors, max_factors=cap, tol=-math.inf)
    assert len(everything.violations) == attempted
    assert_within_expansion_bound(
        everything.violations, [(label, value, scale) for label, value, _, scale in every]
    )
    return len(want)


def _box_table(bounds, degree):
    return from_measure(MeasureSpec(box=(bounds, degree // 2 + 1)), degree)


X1, X2, X3 = (Polynomial.variable(3, i) for i in range(3))
U, V = Polynomial.variable(2, 0), Polynomial.variable(2, 1)


@pytest.mark.parametrize("seq, factors, cap", [
    # box tables up to degree 16, reaching well outside the cube of the letters
    (_box_table([[-1.9, 0.4]], 16), [FactorPair(1.0 - T, 1.0 + T)], 16),
    (_box_table([[-1.8, 0.5], [-0.8, 1.9]], 10),
     [FactorPair(1.0 - U, 1.0 + U), FactorPair(1.0 - V, 1.0 + V)], 6),
    (_box_table([[-1.9, 0.3], [-0.8, 0.7], [-0.5, 1.8]], 8),
     [FactorPair(1.0 - v, 1.0 + v) for v in (X1, X2, X3)], 4),
    # pairs with c != 1, with unequal constants (2 - t, t), and of degree 2
    (_box_table([[-2.6, 0.6], [-0.7, 2.3]], 12),
     [FactorPair(1.5 - U, 1.5 + U), FactorPair(0.75 - 0.5 * V, 0.75 + 0.5 * V),
      FactorPair(1.0 - U * V, 1.0 + U * V)], 4),
    (_box_table([[-0.3, 2.2]], 12), [FactorPair(2.0 - T, T), FactorPair(0.5 - T * T, 0.5 + T * T)],
     8),
    # sides that do not sum to a constant, alone and beside a constant-sum pair
    (_box_table([[-1.0, 1.4]], 12), [FactorPair(T, 1.0 - T * T)], 8),
    (_box_table([[-1.7, 0.6], [-1.0, 1.3]], 10),
     [FactorPair(1.0 - U, 1.0 + U), FactorPair(V, 1.0 - V * V)], 5),
], ids=["box-d1-deg16", "box-d2-deg10", "box-d3-deg8", "c-not-1-mixed-degrees",
        "unequal-constants", "non-constant-sum", "non-constant-sum-mixed"])
def test_products_expansion_within_the_rounding_bound(seq, factors, cap):
    assert check_products_against_naive(seq, factors, cap) > 0


def test_products_expansion_on_the_atom_corpus(atom_corpus):
    failing = 0
    for _, seq in atom_corpus:
        d = seq.dimension
        x = [Polynomial.variable(d, i) for i in range(d)]
        factors = [FactorPair(1.2 - x[0], 1.2 + x[0])]
        if d > 1:
            factors.append(FactorPair(1.0 - x[0] * x[1], 1.0 + x[0] * x[1]))
        if d > 2:
            factors.append(FactorPair(x[2], 4.0 - x[2] * x[2]))
        failing += check_products_against_naive(seq, factors, 6 - d) > 0
    assert failing >= 5


def test_products_on_the_whole_box_semiring_in_bounded_memory():
    # letters 1 +- x_i on a d=3 degree-16 box table inside the cube: all
    # C(6 + 16, 6) - 1 products fit the budget, and all are nonnegative
    import tracemalloc

    seq = _box_table([[-0.9, 0.8], [-0.5, 1.0], [-1.0, 0.7]], 16)
    factors = [FactorPair(1.0 - v, 1.0 + v) for v in (X1, X2, X3)]
    tracemalloc.start()
    try:
        report = product_positivity_check(seq, factors, max_factors=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.attempted, report.skipped, report.passed) == (74612, 0, True)
    assert peak < 64 * 2**20
