"""Positivity checks that go beyond a single PSD verdict.

Each check evaluates a family of inequalities implied by the existence of a
representing measure on the relevant set (products of shifted factors, cone
families, ball and growth conditions, subset-localized PSD tests, interval
membership) and reports every violation found, together with how many
evaluations ran and how many were skipped for degree-budget reasons. The
reports are deterministic for a fixed input, whatever the evaluation order.
The exact identities that the interval and cone checks rest on are verified
in rational arithmetic by the test suite, not at run time.

The localized PSD tests (ball, schmudgen, interval) take their verdicts from
``bounds.quadratic_module_psd``; ``psd_violations`` turns a failed one, or
the disc kernel's, into a violation. A check's default tolerance is
``policy.relative_tol`` of the moments. The products and cone families are
one semiring over letters of positive degree, which counts the members
beyond the degree budget in closed form. No member is formed: each is a linear
map (a binomial expansion per factor pair) of the pushforward moments
z = L(g_1^b_1 ... g_n^b_n) of a few generators, each z one ``apply`` over
the prefix memo of generator products that schmudgen's subset shifts also
use. An expansion rounds differently from the direct product: the tests
hold each value within 64 eps sum |coeff| |z| of it, bounded there by L(|P|),
the member with absolute coefficients on the absolute moments.
``run_check_config`` rejects every key it does not know.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import _even_power_values, growth_bound, quadratic_module_psd
from .exceptions import DegreeOverflowError
from .linalg import PsdVerdict
from .moments import MomentSequence, _integer
from .policy import relative_tol, saturated_limit
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


def psd_violations(verdict: PsdVerdict, description: str) -> list[Violation]:
    """The violation that a failed PSD verdict reports, valued at its
    smallest eigenvalue; none for a passed one."""
    return [] if verdict.is_psd else [Violation(description, verdict.min_eigenvalue)]


def _names(seq: MomentSequence) -> list[str]:
    return default_variable_names(seq.dimension)


def _prefix_products(letters: Sequence[Polynomial], dimension: int):
    """P(combo) of a tuple of letter indices, memoized by prefix: P(()) = 1
    and P(combo) = P(combo[:-1]) * letter, so each product is formed once."""

    @functools.cache
    def product(combo: tuple) -> Polynomial:
        if not combo:
            return Polynomial.constant(dimension, 1.0)
        return product(combo[:-1]) * letters[combo[-1]]

    return product


def _expansion_table(p: float, q: float, n: int) -> np.ndarray:
    """T[j, k, beta] = [t^beta] (p - t)^j (q + t)^k for j + k <= n: the
    convolution of the binomial rows of (p - t)^j and (q + t)^k."""
    minus = np.zeros((n + 1, n + 1))
    plus = np.zeros((n + 1, n + 1))
    minus[0, 0] = plus[0, 0] = 1.0
    for j in range(1, n + 1):
        minus[j] = p * minus[j - 1]
        minus[j, 1:] -= minus[j - 1, :-1]
        plus[j] = q * plus[j - 1]
        plus[j, 1:] += plus[j - 1, :-1]
    table = np.zeros((n + 1, n + 1, n + 1))
    for u in range(n + 1):
        table[:, :, u:] += minus[:, None, u, None] * plus[None, :, : n + 1 - u]
    return table


def _budget_keys(width: int, coordinates, length: int, budget: int) -> np.ndarray:
    """Rows of ``width`` zeros but for the (column, degree, counted)
    ``coordinates``: every choice of entries with total weighted degree <=
    ``budget`` and counted entries summing to <= ``length`` (an uncounted
    entry is 0 or 1), lexicographic with the first coordinate most
    significant. The entries are of the smallest signed type that holds
    ``length``, which keeps the member keys small."""
    keys = np.zeros((1, width), dtype=np.min_scalar_type(-length - 1))
    room = np.array([[length, budget]])
    for column, degree, counted in coordinates:
        top = np.minimum(room[:, 1] // degree, room[:, 0] if counted else 1)
        rows = np.repeat(np.arange(len(keys)), top + 1)
        value = np.arange(len(rows)) - np.repeat(np.cumsum(top + 1) - top - 1, top + 1)
        keys = keys[rows]
        keys[:, column] = value
        room = room[rows] - value[:, None] * np.array([int(counted), degree])
    return keys


def _contract(keys: np.ndarray, values: np.ndarray, upper: int, p: float, q: float):
    """Replace the generator exponent beta in column ``upper`` of every key
    by the pair's letter counts (j, k) in columns ``upper`` and ``upper + 1``,
    with value sum_beta T[j, k, beta] values[beta] (``_expansion_table``).

    ``keys`` must hold runs beta = 0..top of otherwise equal keys. Each
    (j, k) block of the result keeps the order of its runs, so the next
    column contracted, the least significant one left, again runs over
    contiguous rows."""
    beta = keys[:, upper]
    starts = np.flatnonzero(beta == 0)
    tops = np.diff(starts, append=len(beta)) - 1
    table = _expansion_table(p, q, int(tops.max()))
    out_keys, out_values = [], []
    for s in range(int(tops.max()) + 1):
        runs = starts[tops >= s]
        j = np.arange(s + 1)
        block = values[runs[:, None] + j] @ table[j, s - j, : s + 1].T
        block_keys = np.tile(keys[runs], (s + 1, 1))
        block_keys[:, upper] = np.repeat(j, len(runs))
        block_keys[:, upper + 1] = s - block_keys[:, upper]
        out_keys.append(block_keys)
        out_values.append(block.T.ravel())
    return np.concatenate(out_keys), np.concatenate(out_values)


def _semiring_check(seq, letters, cap, tol, describe, prefactor=None):
    """(violations, attempted, skipped) of L(r P(combo)) >= -tol over the
    multisets ``combo`` of up to ``cap`` of the (name, polynomial)
    ``letters``, listed by length and then letter index; r is 1 from length
    1 on and, when given, ``prefactor`` from length 0 on, plain member
    first. ``describe(combo, prefactored)`` labels a violation.

    Letters 2i and 2i + 1 are a pair. A pair whose sides sum to a constant,
    (p - g, q + g) with g free of a constant term, has the one generator g,
    and upper^j lower^k = sum_beta T[j, k, beta] g^beta; any other pair has
    both sides as generators, and the prefactor is one more, each an
    identity table. So every member is a linear map of the pushforward
    moments z_beta = L(g_1^beta_1 ... g_n^beta_n): each z that fits the
    budget is one ``apply`` over the prefix memo of generator products,
    and the maps are contracted one pair at a time (``_contract``).

    Every letter must have positive degree, so no member longer than
    L = max_degree // (smallest letter degree) fits the budget, and only the
    members that fit are listed. The others count as skipped in closed form:
    of the C(m + cap, m) - 1 plain and C(m + cap, m) prefactored members,
    those not attempted. A zero
    prefactor's C(m + cap, m) members count as attempted, with value 0,
    unformed.
    """
    for name, letter in letters:
        if letter.degree() < 1:
            raise ValueError(f"{name} must have positive degree")
    degrees = [letter.degree() for _, letter in letters]
    m = len(letters)
    longest = min(cap, seq.max_degree // min(degrees))
    members = math.comb(m + cap, m)
    total, attempted = members - 1, 0
    zero = (0,) * seq.dimension
    # (polynomial, key column) of each generator; (column, degree, counted)
    # of the identity coordinates; (upper column, p, q) of each pair
    generators, singles, axes = [], [], []
    for i in range(0, m, 2):
        (_, upper), (_, lower) = letters[i], letters[i + 1]
        if (upper + lower).degree() < 1:
            generators.append((lower - lower.coefficient(zero), i))
            axes.append((i, upper.coefficient(zero), lower.coefficient(zero)))
        else:
            generators += [(upper, i), (lower, i + 1)]
            singles += [(i, degrees[i], True), (i + 1, degrees[i + 1], True)]
    if prefactor is not None:
        total += members
        if prefactor.is_zero():
            attempted = members
        else:
            generators.append((prefactor, m))
            singles.append((m, prefactor.degree(), False))
    # the first pair's exponent least significant, so that it runs over
    # contiguous rows for _contract
    pairs = [(i, degrees[i], True) for i, _, _ in reversed(axes)]
    keys = _budget_keys(m + 1, singles + pairs, longest, seq.max_degree)
    product = _prefix_products([g for g, _ in generators], seq.dimension)
    values = np.empty(len(keys))
    for row, exponents in enumerate(keys[:, [column for _, column in generators]].tolist()):
        combo = tuple(g for g, count in enumerate(exponents) for _ in range(count))
        half = len(combo) // 2
        values[row] = seq.apply(product(combo[:half]), product(combo[half:]))
    with np.errstate(over="ignore", invalid="ignore"):
        for upper, p, q in axes:
            keys, values = _contract(keys, values, upper, p, q)
    counts, prefactored = keys[:, :m], keys[:, m]
    lengths = counts.sum(axis=1)
    formed = (lengths > 0) | (prefactored > 0)

    def listed(rows):
        """The formed members among ``rows``, in enumeration order."""
        rows = rows[formed[rows]]
        return rows[np.lexsort((prefactored[rows], *(-counts[rows, ::-1].T), lengths[rows]))]

    broken = listed(np.flatnonzero(~np.isfinite(values)))
    if len(broken):
        raise ValueError(f"L(p q) = {values[broken[0]]} is not finite")
    attempted += int(formed.sum())
    violations = [
        Violation(
            describe(tuple(np.repeat(np.arange(m), counts[i]).tolist()), bool(prefactored[i])),
            float(values[i]),
        )
        for i in listed(np.flatnonzero(values < -tol))
    ]
    return violations, attempted, total - attempted


def product_positivity_check(
    seq: MomentSequence,
    factors: Sequence[FactorPair],
    max_factors: int = 6,
    tol: float | None = None,
) -> CheckReport:
    """L of every product of up to ``max_factors`` factors must be >= -tol.

    Each slot of a product picks one pair from ``factors`` and one of its two
    sides, which must have positive degree. Products are the multisets of
    sides, valued from the pushforward moments of the pairs' generators;
    those beyond the degree budget are counted as skipped (see
    ``_semiring_check``).
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
        tol = relative_tol(seq.y)
    names = _names(seq)
    letters = [
        (f"factor {i + 1} {side} side", letter)
        for i, pair in enumerate(factors)
        for side, letter in zip(FactorPair._fields, pair)
    ]
    labels = [f"({format_polynomial(letter, names)})" for _, letter in letters]
    violations, attempted, skipped = _semiring_check(
        seq, letters, max_factors, tol,
        describe=lambda combo, _: " * ".join(labels[k] for k in combo),
    )
    return CheckReport.build(violations, attempted, skipped)


def cone_positivity_check(
    seq: MomentSequence,
    a: Polynomial,
    b: Polynomial,
    jk_max: int = 4,
    tol: float | None = None,
) -> CheckReport:
    """Two positivity families built from growth bounds.

    With c the growth bound of ``a`` (of positive degree) and cb that of
    ``b``: L((c - a)^j (c + a)^k) and L((cb^2 - b^2)(c - a)^j (c + a)^k) must
    both be >= -tol for all j + k <= jk_max. They are the semiring of the
    pair c -+ a with the prefactor cb^2 - b^2, valued from the moments
    L(r^e a^beta), e <= 1 (see ``_semiring_check``).
    """
    if jk_max < 0:
        raise ValueError("jk_max must be >= 0")
    if tol is None:
        tol = relative_tol(seq.y)
    c_a = growth_bound(seq, a).value
    c_b = growth_bound(seq, b).value
    names = _names(seq)
    minus = Polynomial.constant(seq.dimension, c_a) - a
    plus = Polynomial.constant(seq.dimension, c_a) + a
    prefactor = Polynomial.constant(seq.dimension, c_b * c_b) - b * b

    def describe(combo: tuple, prefactored: bool) -> str:
        head = f"({format_polynomial(prefactor, names)}) * " if prefactored else ""
        low, high = (format_polynomial(p, names) for p in (minus, plus))
        return f"{head}({low})^{combo.count(0)} * ({high})^{combo.count(1)}"

    violations, attempted, skipped = _semiring_check(
        seq, [("cone a", minus), ("cone a", plus)], jk_max, tol, describe,
        prefactor=prefactor,
    )
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
    most radius^2. The two agree in the limit; the report carries both. A
    given ``tol`` applies to both; with None each part uses its default.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if coordinates is None:
        coordinates = [
            Polynomial.variable(seq.dimension, i) for i in range(seq.dimension)
        ]
    square_sum = Polynomial.zero(seq.dimension)
    for c in coordinates:
        square_sum = square_sum + c * c
    shift = Polynomial.constant(seq.dimension, radius * radius) - square_sum
    verdict = quadratic_module_psd(seq, shift, order, tol)
    if tol is None:
        tol = relative_tol(seq.y)
    bound = growth_bound(seq, square_sum)
    growth_ok = bound.value <= radius * radius + tol
    violations = psd_violations(
        verdict, f"localized matrix of radius^2 - square sum at order {order}"
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
    for every achievable n, with L(a^(2n)) valued from the power table of
    ``bounds._even_power_values``."""
    if tol is None:
        tol = relative_tol(seq.y)
    names = _names(seq)
    violations = []
    attempted = 0
    skipped = 0
    for a, bound, prefactor in generators:
        if not (bound > 0 and prefactor > 0):
            raise ValueError("generator bound and prefactor must be positive")
        deg = max(a.degree(), 1)
        n_reachable = seq.max_degree // (2 * deg)
        if n_reachable == 0:
            skipped += 1
            continue
        for n, value in enumerate(_even_power_values(seq, a, n_reachable), start=1):
            limit = saturated_limit(prefactor, bound, 2 * n)
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
    if not functional_bound > 0:
        raise ValueError("functional_bound must be positive")
    if tol is None:
        tol = relative_tol(seq.y)
    names = _names(seq)
    violations = []
    attempted = 0
    skipped = 0
    for a, v_a in entries:
        if not v_a > 0:
            raise ValueError("per-polynomial value must be positive")
        try:
            bound = growth_bound(seq, a).value
        except DegreeOverflowError:  # no even power fits; |L(a)| may still
            skipped += 1
        else:
            attempted += 1
            if bound > v_a + tol:
                violations.append(
                    Violation(
                        description=(
                            f"growth bound {bound:.12g} of "
                            f"{format_polynomial(a, names)} exceeds {v_a:.12g}"
                        ),
                        value=bound - v_a,
                    )
                )
        if a.degree() > seq.max_degree:
            skipped += 1
            continue
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
    largest admissible order not exceeding ``order``. Subset products come
    from the prefix memo, so each is formed once. A subset whose product
    does not fit even at order zero raises DegreeOverflowError.
    """
    constraints = list(constraints)
    names = _names(seq)
    product = _prefix_products(constraints, seq.dimension)
    violations = []
    details = []
    attempted = 0
    for size in range(len(constraints) + 1):
        for subset in itertools.combinations(range(len(constraints)), size):
            shift = product(subset)
            shift_degree = max(shift.degree(), 0)
            if shift_degree > seq.max_degree:
                raise DegreeOverflowError(
                    f"constraint product of degree {shift_degree} exceeds the "
                    f"stored truncation {seq.max_degree} even at order zero"
                )
            sub_order = min(order, (seq.max_degree - shift_degree) // 2)
            verdict = quadratic_module_psd(seq, shift, sub_order, tol)
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
            violations += psd_violations(verdict, f"subset {label} at order {sub_order}")
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
        found = len(violations)
        for shift_label, shift in linear_shifts:
            verdict = quadratic_module_psd(seq, shift, order, tol)
            attempted += 1
            entry_detail[shift_label] = verdict.min_eigenvalue
            violations += psd_violations(verdict, f"shift {shift_label} at order {order}")
        square_shift = Polynomial.constant(seq.dimension, m * m) - a * a
        square_order = min(order, (seq.max_degree - max(square_shift.degree(), 0)) // 2)
        if square_order < 0:
            skipped += 1
            entry_detail["square"] = "degree budget"
        else:
            verdict = quadratic_module_psd(seq, square_shift, square_order, tol)
            attempted += 1
            entry_detail["order_square"] = square_order
            entry_detail[f"{m:g}^2 - ({label})^2"] = verdict.min_eigenvalue
            violations += psd_violations(
                verdict, f"shift {m:g}^2 - ({label})^2 at order {square_order}"
            )
        entry_detail["passed"] = len(violations) == found
        details.append(entry_detail)
    return CheckReport.build(violations, attempted, skipped, details)


def _number(value, name: str) -> float:
    """``float(value)``; ValueError naming ``name`` when that fails or the
    number is not finite (an infinite bound would pass vacuously)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _known_keys(item: dict, where: str, *keys: str):
    """ValueError naming the first key of ``item`` that is not in ``keys``:
    a misspelt key would otherwise silently leave its default in force."""
    for key in item:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}")


def _entries(item: dict, name: str, *keys: str) -> list:
    """``item[name]``: a list of objects with only ``keys``, or a list of
    polynomial texts when no keys are given."""
    entries = item[name]
    kind = dict if keys else str
    if not isinstance(entries, list) or not all(isinstance(e, kind) for e in entries):
        raise ValueError(f"{name} must be a list of {'objects' if keys else 'strings'}")
    for entry in entries if keys else ():
        _known_keys(entry, f"{name} entry", *keys)
    return entries


def run_check_config(
    seq: MomentSequence,
    config: dict,
    default_tol: float | None = None,
) -> list[tuple[str, CheckReport]]:
    """Run the checks named in a configuration document against a sequence.

    The document declares variable names once and a list of checks; every
    polynomial is text in those variables. ``default_tol`` applies to checks
    without their own ``tol``. Returns (name, report) pairs in document
    order. Raises ValueError on malformed configuration, including an empty
    check list, a field of the wrong type, a number that is not finite, a
    negative tolerance and a key that the document, its check kind or its
    entry objects do not know.
    """
    from .polynomials import parse_polynomial

    if not isinstance(config, dict):
        raise ValueError("check configuration must be an object")
    _known_keys(config, "check configuration", "variables", "checks")
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

    def known(item: dict, *keys: str):
        _known_keys(item, f"{item['check']} check", "check", "tol", *keys)

    def order(item: dict) -> int:
        return _integer(item.get("order", 1), "order")

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
            if not tol >= 0:
                raise ValueError("tol must be >= 0")
        if kind == "products":
            known(item, "factors", "max_factors")
            factors = [
                FactorPair(poly(f["upper"]), poly(f["lower"]))
                for f in _entries(item, "factors", "upper", "lower")
            ]
            cap = _integer(item.get("max_factors", 6), "max_factors")
            report = product_positivity_check(seq, factors, max_factors=cap, tol=tol)
        elif kind == "cone":
            known(item, "a", "b", "jk_max")
            report = cone_positivity_check(
                seq,
                poly(item["a"]),
                poly(item.get("b", item["a"])),
                jk_max=_integer(item.get("jk_max", 4), "jk_max"),
                tol=tol,
            )
        elif kind == "ball":
            known(item, "radius", "order", "coordinates")
            coords = item.get("coordinates") and _entries(item, "coordinates")
            report = ball_check(
                seq,
                radius=_number(item["radius"], "radius"),
                order=order(item),
                coordinates=[poly(c) for c in coords] if coords else None,
                tol=tol,
            )
        elif kind == "growth":
            known(item, "generators")
            generators = [
                (poly(g["poly"]), _number(g["bound"], "bound"),
                 _number(g.get("prefactor", 1.0), "prefactor"))
                for g in _entries(item, "generators", "poly", "bound", "prefactor")
            ]
            report = growth_check(seq, generators, tol=tol)
        elif kind == "weak_absolute_value":
            known(item, "entries", "functional_bound")
            entries = [
                (poly(e["poly"]), _number(e["value"], "value"))
                for e in _entries(item, "entries", "poly", "value")
            ]
            bound = _number(item["functional_bound"], "functional_bound")
            report = weak_absolute_value_check(seq, entries, functional_bound=bound, tol=tol)
        elif kind == "schmudgen":
            known(item, "constraints", "order")
            constraints = [poly(c) for c in _entries(item, "constraints")]
            report = schmudgen_check(seq, constraints, order=order(item), tol=tol)
        elif kind == "interval":
            known(item, "entries", "order")
            entries = [
                (poly(e["poly"]), _number(e["lower"], "lower"), _number(e["upper"], "upper"))
                for e in _entries(item, "entries", "poly", "lower", "upper")
            ]
            report = interval_membership_check(seq, entries, order=order(item), tol=tol)
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
    "growth_check",
    "interval_membership_check",
    "product_positivity_check",
    "psd_violations",
    "run_check_config",
    "schmudgen_check",
    "weak_absolute_value_check",
]
