"""Positivity checks that go beyond a single PSD verdict.

Each check evaluates a family of inequalities implied by the existence of a
representing measure on the relevant set (products of shifted factors, cone
families, ball and growth conditions, subset-localized PSD tests, interval
membership) and reports every violation found, together with how many
evaluations ran and how many were skipped for degree-budget reasons. The
reports are deterministic for a fixed input, whatever the evaluation order.

``polynomial_identity_suite`` is separate in kind: it verifies two exact
polynomial identities in rational arithmetic (the algebra those checks lean
on) and belongs to the default test battery rather than to runtime analysis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .bounds import _even_power_values, growth_bound
from .exceptions import DegreeOverflowError
from .linalg import psd_check
from .moments import MomentSequence, _integer
from .polynomials import Polynomial, default_variable_names, format_polynomial


@dataclass(frozen=True)
class Violation:
    description: str
    value: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a family of inequality checks.

    ``passed`` holds exactly when ``violations`` is empty; ``skipped`` counts
    evaluations dropped because they would need moments beyond the stored
    truncation; ``details`` carries per-item records for rendering.
    """

    passed: bool
    violations: tuple
    attempted: int
    skipped: int
    details: tuple = field(default=())

    @classmethod
    def build(cls, violations, attempted, skipped, details=()) -> "CheckReport":
        violations = tuple(violations)
        return cls(
            passed=not violations,
            violations=violations,
            attempted=attempted,
            skipped=skipped,
            details=tuple(details),
        )


class FactorPair(NamedTuple):
    """Two shifted factors of one generator, e.g. (bound - a, bound + a)."""

    upper: Polynomial
    lower: Polynomial


def default_check_tol(seq: MomentSequence) -> float:
    """Accumulation guard for long products: 1e-9 * (1 + largest moment)."""
    return 1e-9 * (1.0 + float(abs(seq.y).max()))


def _product_degree(p: Polynomial, q: Polynomial) -> int:
    """Degree of p q without forming it; -1 when either factor is zero."""
    if p.is_zero() or q.is_zero():
        return -1
    return p.degree() + q.degree()


def _powers(p: Polynomial, top: int) -> list[Polynomial]:
    """[1, p, p^2, ..., p^top], each formed by one multiplication."""
    out = [Polynomial.constant(p.dimension, 1.0)]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


def _names(seq: MomentSequence) -> list[str]:
    return default_variable_names(seq.dimension)


def product_positivity_check(
    seq: MomentSequence,
    factors: Sequence[FactorPair],
    max_factors: int = 6,
    tol: float | None = None,
) -> CheckReport:
    """L of every product of up to ``max_factors`` factors must be >= -tol.

    Each slot of a product picks one pair from ``factors`` and one of its two
    sides; products are enumerated as multisets since multiplication
    commutes. Products whose degree exceeds the stored truncation are
    counted as skipped. A product is evaluated as the bilinear form
    L(P(first half) P(second half)); the half products are memoized by
    prefix, P(combo) = P(combo[:-1]) * letter, so each is formed once.
    """
    factors = [FactorPair(*f) for f in factors]
    if not factors:
        raise ValueError("factor list is empty")
    for pair in factors:
        if pair.upper.dimension != seq.dimension or pair.lower.dimension != seq.dimension:
            raise ValueError("factor dimension mismatch")
    if max_factors < 1:
        raise ValueError("max_factors must be >= 1")
    if tol is None:
        tol = default_check_tol(seq)
    names = _names(seq)
    alphabet = []
    for i, pair in enumerate(factors):
        alphabet.append((i, "upper", pair.upper))
        alphabet.append((i, "lower", pair.lower))
    degrees = [max(letter.degree(), 0) for _, _, letter in alphabet]
    partial = {(): Polynomial.constant(seq.dimension, 1.0)}

    def product(combo: tuple) -> Polynomial:
        if combo not in partial:
            partial[combo] = product(combo[:-1]) * alphabet[combo[-1]][2]
        return partial[combo]

    violations = []
    attempted = 0
    skipped = 0
    for length in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(range(len(alphabet)), length):
            if sum(degrees[k] for k in combo) > seq.max_degree:
                skipped += 1
                continue
            half = length // 2
            value = seq.apply(product(combo[:half]), product(combo[half:]))
            attempted += 1
            if value < -tol:
                label = " * ".join(
                    f"({format_polynomial(alphabet[k][2], names)})" for k in combo
                )
                violations.append(Violation(description=label, value=value))
    return CheckReport.build(violations, attempted, skipped)


def cone_positivity_check(
    seq: MomentSequence,
    a: Polynomial,
    b: Polynomial,
    jk_max: int = 4,
    tol: float | None = None,
) -> CheckReport:
    """Two positivity families built from growth bounds.

    With c the growth bound of ``a`` and cb the growth bound of ``b``:
    L((c - a)^j (c + a)^k) and L((cb^2 - b^2)(c - a)^j (c + a)^k) must both
    be >= -tol for all j + k <= jk_max. The powers of c - a and c + a are
    formed once; each value is the bilinear form L(left * (c + a)^k).
    """
    if tol is None:
        tol = default_check_tol(seq)
    c_a = growth_bound(seq, a).value
    c_b = growth_bound(seq, b).value
    names = _names(seq)
    minus = Polynomial.constant(seq.dimension, c_a) - a
    plus = Polynomial.constant(seq.dimension, c_a) + a
    prefactor = Polynomial.constant(seq.dimension, c_b * c_b) - b * b
    minus_powers = _powers(minus, jk_max)
    plus_powers = _powers(plus, jk_max)
    lefts = {
        False: minus_powers,
        True: [prefactor * power for power in minus_powers],
    }
    violations = []
    attempted = 0
    skipped = 0
    for j in range(jk_max + 1):
        for k in range(jk_max + 1 - j):
            for with_prefactor in (False, True):
                if not with_prefactor and j == 0 and k == 0:
                    continue
                left = lefts[with_prefactor][j]
                if _product_degree(left, plus_powers[k]) > seq.max_degree:
                    skipped += 1
                    continue
                value = seq.apply(left, plus_powers[k])
                attempted += 1
                if value < -tol:
                    head = (
                        f"({format_polynomial(prefactor, names)}) * "
                        if with_prefactor
                        else ""
                    )
                    violations.append(
                        Violation(
                            description=(
                                f"{head}({format_polynomial(minus, names)})^{j} * "
                                f"({format_polynomial(plus, names)})^{k}"
                            ),
                            value=value,
                        )
                    )
    if attempted == 0:
        raise DegreeOverflowError("every cone product exceeds the stored truncation")
    details = [{"growth_bound_a": c_a, "growth_bound_b": c_b, "jk_max": jk_max}]
    return CheckReport.build(violations, attempted, skipped, details)


def ball_check(
    seq: MomentSequence,
    radius: float,
    order: int,
    coordinates: Sequence[Polynomial] | None = None,
    tol: float | None = None,
) -> CheckReport:
    """Ball criterion: both of its equivalent finite-truncation forms.

    (i) the localized matrix of radius^2 - (a_1^2 + ... + a_m^2) at the given
    order is PSD; (ii) the growth bound of the coordinate square sum is at
    most radius^2. The two agree in the limit; the report carries both.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if coordinates is None:
        coordinates = [
            Polynomial.variable(seq.dimension, i) for i in range(seq.dimension)
        ]
    if tol is None:
        tol = default_check_tol(seq)
    square_sum = Polynomial.zero(seq.dimension)
    for c in coordinates:
        square_sum = square_sum + c * c
    shift = Polynomial.constant(seq.dimension, radius * radius) - square_sum
    verdict = psd_check(seq.moment_matrix(order, shift).matrix)
    bound = growth_bound(seq, square_sum)
    growth_ok = bound.value <= radius * radius + tol
    violations = []
    if not verdict.is_psd:
        violations.append(
            Violation(
                description=f"localized matrix of radius^2 - square sum at order {order}",
                value=verdict.min_eigenvalue,
            )
        )
    if not growth_ok:
        violations.append(
            Violation(
                description=(
                    f"growth bound {bound.value:.12g} of the square sum exceeds "
                    f"radius^2 = {radius * radius:.12g}"
                ),
                value=radius * radius - bound.value,
            )
        )
    details = [
        {
            "condition": "localized_psd",
            "order": order,
            "min_eigenvalue": verdict.min_eigenvalue,
            "passed": verdict.is_psd,
        },
        {
            "condition": "growth",
            "value": bound.value,
            "limit": radius * radius,
            "n_used": bound.n_used,
            "passed": growth_ok,
        },
    ]
    return CheckReport.build(violations, attempted=2, skipped=0, details=details)


def growth_check(
    seq: MomentSequence,
    generators: Sequence[tuple[Polynomial, float, float]],
    tol: float | None = None,
) -> CheckReport:
    """Per generator (a, bound, prefactor): L(a^(2n)) <= prefactor * bound^(2n)
    for every achievable n, with L(a^(2n)) evaluated as L(a^n a^n)."""
    if tol is None:
        tol = default_check_tol(seq)
    names = _names(seq)
    violations = []
    attempted = 0
    skipped = 0
    for a, bound, prefactor in generators:
        if bound <= 0 or prefactor <= 0:
            raise ValueError("generator bound and prefactor must be positive")
        deg = max(a.degree(), 1)
        n_reachable = seq.max_degree // (2 * deg)
        if n_reachable == 0:
            skipped += 1
            continue
        for n, value in enumerate(_even_power_values(seq, a, n_reachable), start=1):
            limit = prefactor * bound ** (2 * n)
            attempted += 1
            if value > limit + tol:
                violations.append(
                    Violation(
                        description=(
                            f"L(({format_polynomial(a, names)})^{2 * n}) = "
                            f"{value:.12g} > {limit:.12g}"
                        ),
                        value=value - limit,
                    )
                )
    return CheckReport.build(violations, attempted, skipped)


def weak_absolute_value_check(
    seq: MomentSequence,
    entries: Sequence[tuple[Polynomial, float]],
    functional_bound: float,
    tol: float | None = None,
) -> CheckReport:
    """Per (a, v_a): the growth bound of a stays below v_a, and
    |L(a)| <= functional_bound * v_a."""
    if functional_bound <= 0:
        raise ValueError("functional_bound must be positive")
    if tol is None:
        tol = default_check_tol(seq)
    names = _names(seq)
    violations = []
    attempted = 0
    skipped = 0
    for a, v_a in entries:
        if v_a <= 0:
            raise ValueError("per-polynomial value must be positive")
        try:
            bound = growth_bound(seq, a)
        except DegreeOverflowError:
            skipped += 1
            continue
        attempted += 1
        if bound.value > v_a + tol:
            violations.append(
                Violation(
                    description=(
                        f"growth bound {bound.value:.12g} of "
                        f"{format_polynomial(a, names)} exceeds {v_a:.12g}"
                    ),
                    value=bound.value - v_a,
                )
            )
        applied = abs(seq.apply(a))
        attempted += 1
        if applied > functional_bound * v_a + tol:
            violations.append(
                Violation(
                    description=(
                        f"|L({format_polynomial(a, names)})| = {applied:.12g} exceeds "
                        f"{functional_bound * v_a:.12g}"
                    ),
                    value=applied - functional_bound * v_a,
                )
            )
    return CheckReport.build(violations, attempted, skipped)


def schmudgen_check(
    seq: MomentSequence,
    constraints: Sequence[Polynomial],
    order: int,
    tol: float | None = None,
) -> CheckReport:
    """Localized PSD test for every subset product of the constraints.

    Each subset (including the empty one, the plain matrix) is tested at the
    largest admissible order not exceeding ``order``. A subset whose product
    does not fit even at order zero raises DegreeOverflowError.
    """
    constraints = list(constraints)
    names = _names(seq)
    violations = []
    details = []
    attempted = 0
    for size in range(len(constraints) + 1):
        for subset in itertools.combinations(range(len(constraints)), size):
            shift = Polynomial.constant(seq.dimension, 1.0)
            for j in subset:
                shift = shift * constraints[j]
            shift_degree = max(shift.degree(), 0)
            if shift_degree > seq.max_degree:
                raise DegreeOverflowError(
                    f"constraint product of degree {shift_degree} exceeds the "
                    f"stored truncation {seq.max_degree} even at order zero"
                )
            sub_order = min(order, (seq.max_degree - shift_degree) // 2)
            verdict = psd_check(seq.moment_matrix(sub_order, shift).matrix, tol)
            attempted += 1
            label = (
                "{" + ", ".join(format_polynomial(constraints[j], names) for j in subset) + "}"
            )
            details.append(
                {
                    "subset": label,
                    "order": sub_order,
                    "min_eigenvalue": verdict.min_eigenvalue,
                    "passed": verdict.is_psd,
                }
            )
            if not verdict.is_psd:
                violations.append(
                    Violation(
                        description=f"subset {label} at order {sub_order}",
                        value=verdict.min_eigenvalue,
                    )
                )
    return CheckReport.build(violations, attempted, skipped=0, details=details)


def interval_membership_check(
    seq: MomentSequence,
    entries: Sequence[tuple[Polynomial, float, float]],
    order: int,
    tol: float | None = None,
) -> CheckReport:
    """Per (a, lo, hi): localized matrices of a - lo, hi - a, and m^2 - a^2
    with m = max(|lo|, |hi|) must all be PSD.

    The squared test follows from the two linear ones via the exact identity
    (m - a)(m + a)^2 + (m + a)(m - a)^2 = 2m(m^2 - a^2), so a failure there
    alone signals numerical trouble rather than non-membership.
    """
    names = _names(seq)
    violations = []
    details = []
    attempted = 0
    skipped = 0
    for a, lo, hi in entries:
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        label = format_polynomial(a, names)
        deg = max(a.degree(), 0)
        if 2 * order + deg > seq.max_degree:
            skipped += 1
            details.append({"poly": label, "skipped": "degree budget"})
            continue
        m = max(abs(lo), abs(hi))
        linear_shifts = [
            (f"{label} - {lo:g}", a - Polynomial.constant(seq.dimension, lo)),
            (f"{hi:g} - {label}", Polynomial.constant(seq.dimension, hi) - a),
        ]
        entry_detail = {"poly": label, "order_linear": order}
        ok = True
        for shift_label, shift in linear_shifts:
            verdict = psd_check(seq.moment_matrix(order, shift).matrix, tol)
            attempted += 1
            entry_detail[shift_label] = verdict.min_eigenvalue
            if not verdict.is_psd:
                ok = False
                violations.append(
                    Violation(
                        description=f"shift {shift_label} at order {order}",
                        value=verdict.min_eigenvalue,
                    )
                )
        square_shift = Polynomial.constant(seq.dimension, m * m) - a * a
        square_order = min(order, (seq.max_degree - max(square_shift.degree(), 0)) // 2)
        if square_order < 0:
            skipped += 1
            entry_detail["square"] = "degree budget"
        else:
            verdict = psd_check(seq.moment_matrix(square_order, square_shift).matrix, tol)
            attempted += 1
            entry_detail["order_square"] = square_order
            entry_detail[f"{m:g}^2 - ({label})^2"] = verdict.min_eigenvalue
            if not verdict.is_psd:
                ok = False
                violations.append(
                    Violation(
                        description=f"shift {m:g}^2 - ({label})^2 at order {square_order}",
                        value=verdict.min_eigenvalue,
                    )
                )
        entry_detail["passed"] = ok
        details.append(entry_detail)
    return CheckReport.build(violations, attempted, skipped, details)


def polynomial_identity_suite() -> CheckReport:
    """Exact verification, over the rationals, of the two expansion identities
    the interval and cone checks rely on.

    In the polynomial ring Q[m, a]:
    (i)  (m - a)(m + a)^2 + (m + a)(m - a)^2 = 2m(m^2 - a^2);
    (ii) for each n in {2, 3, 4, 5}, the double binomial sum
         sum_{j,k=0..n} [ (j^2 + k^2)(2m)^2 / (n(n-1)) - 2jk(2m)^2 / n^2 ]
         * C(n,j) C(n,k) (m+a)^j (m-a)^(n-j) (m-a)^k (m+a)^(n-k)
         equals (2m)^(2n) 4a^2 + (2m)^(2n+1)/(n-1) (m+a)
                + (2m)^(2n+1)/(n-1) (m-a).

    Any mismatch is a build-blocking defect: these are theorems, not
    estimates, so no tolerance is involved.
    """
    m = Polynomial.variable(2, 0, Fraction(1))
    a = Polynomial.variable(2, 1, Fraction(1))
    violations = []
    details = []

    plus = m + a
    minus = m - a
    lhs = minus * plus**2 + plus * minus**2
    rhs = (m * (m**2 - a**2)) * Fraction(2)
    details.append({"identity": "two-sided interval composite", "exact": lhs == rhs})
    if lhs != rhs:
        violations.append(
            Violation(description="interval composite identity failed", value=float("nan"))
        )

    two_m = m * Fraction(2)
    for n in range(2, 6):
        total = Polynomial.zero(2)
        for j in range(n + 1):
            for k in range(n + 1):
                coeff = Fraction(4 * (j * j + k * k), n * (n - 1)) - Fraction(
                    8 * j * k, n * n
                )
                coeff *= math.comb(n, j) * math.comb(n, k)
                if coeff == 0:
                    continue
                total = total + (m * m) * plus ** (j + n - k) * minus ** (n - j + k) * coeff
        rhs = (
            two_m ** (2 * n) * (a * a) * Fraction(4)
            + two_m ** (2 * n + 1) * plus * Fraction(1, n - 1)
            + two_m ** (2 * n + 1) * minus * Fraction(1, n - 1)
        )
        exact = total == rhs
        details.append({"identity": f"binomial square certificate n={n}", "exact": exact})
        if not exact:
            violations.append(
                Violation(
                    description=f"binomial square certificate failed at n={n}",
                    value=float("nan"),
                )
            )
    return CheckReport.build(
        violations, attempted=len(details), skipped=0, details=details
    )


def _number(value, name: str) -> float:
    """``float(value)``; ValueError naming ``name`` when that fails."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _entries(item: dict, name: str, kind: type = dict) -> list:
    """``item[name]``, which must be a list of objects (or of polynomial texts)."""
    entries = item[name]
    if not isinstance(entries, list) or not all(isinstance(e, kind) for e in entries):
        raise ValueError(f"{name} must be a list of {'objects' if kind is dict else 'strings'}")
    return entries


def run_check_config(
    seq: MomentSequence,
    config: dict,
    default_tol: float | None = None,
    max_factors: int | None = None,
) -> list[tuple[str, CheckReport]]:
    """Run the checks named in a configuration document against a sequence.

    The document declares variable names once and a list of checks; every
    polynomial is text in those variables. ``default_tol`` applies to checks
    without their own ``tol``; ``max_factors`` overrides the product length
    cap. Returns (name, report) pairs in document order. Raises ValueError
    on malformed configuration, including an empty check list, a field of
    the wrong type and a negative tolerance.
    """
    from .polynomials import parse_polynomial

    if not isinstance(config, dict):
        raise ValueError("check configuration must be an object")
    variables = config.get("variables") or default_variable_names(seq.dimension)
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ValueError("variables must be a list of strings")
    if len(variables) != seq.dimension:
        raise ValueError(
            f"{len(variables)} variables declared for dimension {seq.dimension}"
        )

    def poly(text) -> Polynomial:
        if not isinstance(text, str):
            raise ValueError(f"polynomial must be text, got {text!r}")
        return parse_polynomial(text, variables)

    checks = config.get("checks")
    if not checks:
        raise ValueError("no checks requested")
    if not isinstance(checks, list) or not all(isinstance(item, dict) for item in checks):
        raise ValueError("checks must be a list of objects")
    results = []
    for item in checks:
        kind = item.get("check")
        tol = item.get("tol", default_tol)
        if tol is not None:
            tol = _number(tol, "tol")
            if tol < 0:
                raise ValueError("tol must be >= 0")
        order = _integer(item.get("order", 1), "order")
        if kind == "products":
            factors = [
                FactorPair(poly(f["upper"]), poly(f["lower"])) for f in _entries(item, "factors")
            ]
            cap = max_factors if max_factors is not None else item.get("max_factors", 6)
            cap = _integer(cap, "max_factors")
            report = product_positivity_check(seq, factors, max_factors=cap, tol=tol)
        elif kind == "cone":
            report = cone_positivity_check(
                seq,
                poly(item["a"]),
                poly(item.get("b", item["a"])),
                jk_max=_integer(item.get("jk_max", 4), "jk_max"),
                tol=tol,
            )
        elif kind == "ball":
            coords = item.get("coordinates") and _entries(item, "coordinates", str)
            report = ball_check(
                seq,
                radius=_number(item["radius"], "radius"),
                order=order,
                coordinates=[poly(c) for c in coords] if coords else None,
                tol=tol,
            )
        elif kind == "growth":
            generators = [
                (poly(g["poly"]), _number(g["bound"], "bound"),
                 _number(g.get("prefactor", 1.0), "prefactor"))
                for g in _entries(item, "generators")
            ]
            report = growth_check(seq, generators, tol=tol)
        elif kind == "weak_absolute_value":
            entries = [
                (poly(e["poly"]), _number(e["value"], "value")) for e in _entries(item, "entries")
            ]
            bound = _number(item["functional_bound"], "functional_bound")
            report = weak_absolute_value_check(seq, entries, functional_bound=bound, tol=tol)
        elif kind == "schmudgen":
            constraints = [poly(c) for c in _entries(item, "constraints", str)]
            report = schmudgen_check(seq, constraints, order=order, tol=tol)
        elif kind == "interval":
            entries = [
                (poly(e["poly"]), _number(e["lower"], "lower"), _number(e["upper"], "upper"))
                for e in _entries(item, "entries")
            ]
            report = interval_membership_check(seq, entries, order=order, tol=tol)
        else:
            raise ValueError(f"unknown check kind {kind!r}")
        results.append((kind, report))
    return results


__all__ = [
    "CheckReport",
    "FactorPair",
    "Violation",
    "ball_check",
    "cone_positivity_check",
    "default_check_tol",
    "growth_check",
    "interval_membership_check",
    "polynomial_identity_suite",
    "product_positivity_check",
    "run_check_config",
    "schmudgen_check",
    "weak_absolute_value_check",
]
