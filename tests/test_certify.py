import time

import numpy as np
import pytest

from momint.certify import (
    FactorPair,
    ball_check,
    cone_positivity_check,
    growth_check,
    interval_membership_check,
    polynomial_identity_suite,
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


def test_identity_suite_exact_and_fast():
    start = time.perf_counter()
    report = polynomial_identity_suite()
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


def test_ball_rejects_bad_radius(circle4):
    with pytest.raises(ValueError):
        ball_check(circle4, radius=0.0, order=1)


def test_growth_check_examples(two_atoms, dirac3):
    assert growth_check(two_atoms, [(T, 1.0, 1.0)]).passed

    report = growth_check(two_atoms, [(T, 0.9, 1.0)])
    assert not report.passed
    assert any("^2)" in v.description for v in report.violations)

    assert growth_check(dirac3, [(T, 3.0, 1.0)]).passed
    assert not growth_check(dirac3, [(T, 2.9, 1.0)]).passed


def test_growth_check_rejects_bad_parameters(two_atoms):
    with pytest.raises(ValueError):
        growth_check(two_atoms, [(T, -1.0, 1.0)])


def test_weak_absolute_value_examples(two_atoms, dirac3):
    assert weak_absolute_value_check(two_atoms, [(T, 1.0)], 1.0).passed
    assert not weak_absolute_value_check(dirac3, [(T, 2.0)], 1.0).passed
    assert weak_absolute_value_check(
        two_atoms, [(Polynomial.constant(1, 1.0), 1.0)], 1.0
    ).passed


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


def naive_products(seq, factors, max_factors, tol):
    """From-scratch reference: expand every product and apply L to it."""
    import itertools

    from momint.polynomials import format_polynomial

    names = ["x1", "x2"]
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
                violations.append((label, value, product))
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
    assert [v.description for v in report.violations] == [label for label, _, _ in ref]
    eps = float(np.finfo(float).eps)
    for got, (_, want, product) in zip(report.violations, ref):
        scale = sum(abs(c) * abs(seq.moment(k)) for k, c in product.terms.items())
        assert abs(got.value - want) <= 64.0 * eps * (1.0 + scale) * len(product.terms)


def test_default_check_tol_is_largest_moment(atom_corpus):
    from momint.certify import default_check_tol

    for _, seq in atom_corpus[:5]:
        monomials = enumerate_monomials(seq.dimension, seq.max_degree)
        peak = max(abs(seq.moment(m)) for m in monomials)
        assert default_check_tol(seq) == 1e-9 * (1.0 + peak)
