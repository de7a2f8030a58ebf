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
``bounds.quadratic_module_psd`` and report each as its ``linalg.psd_record``;
``psd_violations`` turns a failed record, or the disc kernel's, into a
violation, and ``limit_violations`` a value beyond
its limit (growth, weak absolute value, the ball's growth half, the disc
diagonal). A check's default tolerance is
``policy.relative_tol`` of the moments. The products and cone families are
one semiring over letters of positive degree, which counts the members
beyond the degree budget in closed form. No member is formed: each is a linear
map (a binomial expansion per factor pair) of the pushforward moments
z = L(g_1^b_1 ... g_n^b_n) of a few generators. The z come from matrix products
z = h_A^T K h_B over the coefficient vectors h of two halves of each
generator product and a block K of the moment matrix: one product where every
half fits n_max, and one more per degree of a taller half
(``_pushforward_moments``). Each pair's expansion is one more product
(``_contract``). An expansion rounds differently from the direct product: the
tests hold each value within 64 eps sum |coeff| |z| of it, bounded there by
L(|P|), the member with absolute coefficients on the absolute moments.
``run_check_config`` reads each check through its row of ``CHECKS``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import _even_power_values, growth_bound, quadratic_module_psd
from .exceptions import DegreeOverflowError
from .linalg import psd_record
from .moments import (
    MomentSequence,
    _integer,
    _moment_entries,
    _monomial_array,
    _multiplication_matrix,
    _plain_block,
    _row_blocks,
)
from .policy import exceeds, relative_tol, saturated_limit
from .polynomials import Polynomial, default_variable_names, format_polynomial, parse_polynomial


@dataclass(frozen=True)
class Violation:
    """One failed inequality. ``value`` is negative, by how much it fails: a
    smallest eigenvalue, a semiring member, or a limit's margin."""

    description: str
    value: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a family of inequality checks.

    ``passed`` holds exactly when ``violations`` is empty; ``skipped`` counts
    evaluations dropped because they would need moments beyond the stored
    truncation; ``details`` carries per-item records for rendering.
    """

    violations: tuple
    attempted: int
    skipped: int
    details: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return not self.violations


class FactorPair(NamedTuple):
    """Two shifted factors of one generator, e.g. (bound - a, bound + a)."""

    upper: Polynomial
    lower: Polynomial


def psd_violations(*, shift: str, order: int, is_psd: bool, min_eigenvalue: float,
                   tolerance: float) -> list[Violation]:
    """The violation that a failed PSD record reports, given as
    ``**psd_record(...)``: described by its shift and order, valued at its
    smallest eigenvalue. None for a passed one."""
    return [] if is_psd else [Violation(f"shift {shift} at order {order} is not PSD",
                                         min_eigenvalue)]


def limit_violations(describe, value: float, limit: float, tol: float) -> list[Violation]:
    """The violation that ``value`` beyond ``limit`` (``policy.exceeds``)
    reports, valued at its margin ``limit - value`` and labelled by
    ``describe()``, which runs only then; none for a limit that holds."""
    return [Violation(describe(), limit - value)] if exceeds(value, limit, tol) else []


def _names(seq: MomentSequence) -> list[str]:
    return default_variable_names(seq.dimension)


def _expansion_tables(p: np.ndarray, q: np.ndarray, n: int):
    """``(T, sums, j)`` for every pair i at once, its members (j, k) with
    j + k <= n listed by j + k, then j: ``sums`` and ``j`` name them, and
    ``T[i, member, beta] = [t^beta] (p_i - t)^j (q_i + t)^k``, the
    convolution of the binomial rows of (p_i - t)^j and (q_i + t)^k, each
    row built from the one before. The members with j + k <= m < n are the
    first (m + 1)(m + 2) / 2."""
    # rows[0] of (p - t)^j, rows[1] of (q + t)^j: a - b is a + (-1) b exactly
    rows = np.zeros((2, len(p), n + 1, n + 1))
    rows[:, :, 0, 0] = 1.0
    scale, sign = np.stack([p, q])[:, :, None], np.array([-1.0, 1.0])[:, None, None]
    for j in range(1, n + 1):
        rows[:, :, j] = scale * rows[:, :, j - 1]
        rows[:, :, j, 1:] += sign * rows[:, :, j - 1, :-1]
    minus, plus = rows
    tables = np.zeros((len(p), n + 1, n + 1, n + 1))
    for u in range(n + 1):
        tables[:, :, :, u:] += minus[:, :, None, u, None] * plus[:, None, :, : n + 1 - u]
    sums = np.arange(n + 1).repeat(np.arange(1, n + 2))
    j = np.arange(len(sums)) - sums * (sums + 1) // 2
    return tables[:, j, sums - j], sums, j


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
        runs = np.minimum(room[:, 1] // degree, room[:, 0] if counted else 1) + 1
        rows = np.arange(len(keys)).repeat(runs)
        value = np.arange(len(rows)) - (runs.cumsum() - runs).repeat(runs)
        keys = keys[rows]
        keys[:, column] = value
        room = room[rows] - value[:, None] * np.array([int(counted), degree])
    return keys


def _contract(keys: np.ndarray, values: np.ndarray, upper: int, table: np.ndarray,
              sums: np.ndarray, j: np.ndarray):
    """Replace the generator exponent beta in column ``upper`` of every key
    by the pair's letter counts (j, k) in columns ``upper`` and ``upper + 1``,
    with value sum_beta T[j, k, beta] values[beta], from one pair's
    ``_expansion_tables`` of any size that covers the largest beta.

    ``keys`` must hold runs beta = 0..top of otherwise equal keys. The runs,
    zero-padded to one length, meet the table in one product. The result
    lists the members by j + k, then j, each block keeping the order of
    its runs, so the next column contracted, the least significant one
    left, again runs over contiguous rows."""
    (starts,) = (keys[:, upper] == 0).nonzero()
    tops = np.empty_like(starts)
    tops[:-1] = starts[1:] - starts[:-1] - 1
    tops[-1] = len(keys) - starts[-1] - 1
    n = int(tops.max())
    members = (n + 1) * (n + 2) // 2
    table, sums, j = table[:members, : n + 1], sums[:members], j[:members]
    beta = np.arange(n + 1)
    runs = np.zeros((len(starts), n + 1))
    runs[beta <= tops[:, None]] = values
    out = runs @ table.T
    if not np.isfinite(values).all():
        # the product adds 0 * values[beta] for beta > j + k, which an
        # infinite value turns into nan; such runs sum over beta <= j + k only
        (bad,) = np.nonzero(~np.isfinite(runs).all(axis=1))
        for rows in _row_blocks(len(bad), table.size):
            terms = table * runs[bad[rows], None, :]
            out[bad[rows]] = np.where(beta <= sums[:, None], terms, 0.0).sum(axis=2)
    member, run = np.nonzero(sums[:, None] <= tops)
    out_keys = keys[starts[run]]
    out_keys[:, upper] = j[member]
    out_keys[:, upper + 1] = sums[member] - j[member]
    return out_keys, out[run, member]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer array, and the position of each row
    among them."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first], inverse


def _half_products(seq: MomentSequence, generators, degrees: np.ndarray,
                   a_counts: np.ndarray, b_counts: np.ndarray) -> np.ndarray:
    """h_A^T K h_B for each row pair (A, B) of generator counts, the
    ``generators`` by falling ``degrees``: the coefficient vectors h of the
    distinct halves on the graded-lex basis come from the multiplication
    matrices of the generators (``moments._multiplication_matrix``), one
    matrix product per generator power over the halves that hold it. K
    pairs the monomials of degree <= the tallest A with those of degree <=
    the tallest B: a view of the plain moment matrix when A fits n_max, and
    otherwise gathered on the monomials that the halves hold."""
    d = seq.dimension
    halves, inverse = _distinct_rows(np.concatenate([a_counts, b_counts]))
    a_rows, b_rows = inverse[: len(a_counts)], inverse[len(a_counts):]
    half_degrees = halves @ degrees
    tall, short = int(half_degrees[a_rows].max()), int(half_degrees[b_rows].max())
    size = [math.comb(k + d, d) for k in range(tall + 1)]
    vectors = np.zeros((len(halves), size[tall]))
    vectors[:, 0] = 1.0
    # per generator: the halves by falling count of its copies, how many
    # hold each power of it, and the degree they reach before its copies
    weights = halves * degrees
    holding = (-halves).argsort(axis=0, kind="stable")
    before = (weights.cumsum(axis=1) - weights)[holding, np.arange(len(degrees))]
    reached = np.maximum.accumulate(before, axis=0).T.tolist()
    held = (halves[:, :, None] > np.arange(halves.max())).sum(axis=0).tolist()
    for column, (g, w) in enumerate(zip(generators, degrees.tolist())):
        holders = [count for count in held[column] if count]
        if not holders:
            continue
        lows = [reached[column][count - 1] + power * w for power, count in enumerate(holders)]
        # each power reads the top-left block of the widest one
        multiply = _multiplication_matrix(g, max(lows))
        for count, low in zip(holders, lows):
            rows = holding[:count, column]
            vectors[rows, : size[low + w]] = (
                vectors[rows, : size[low]] @ multiply[: size[low + w], : size[low]].T)
    if 2 * tall <= seq.max_degree:  # K is the plain moment matrix
        left = vectors @ _plain_block(seq, tall)[:, : size[short]]
        return (left[a_rows] * vectors[b_rows, : size[short]]).sum(axis=1)
    # a taller A: K on the monomials that the halves hold, and only those
    basis = _monomial_array(d, tall)
    (rows,) = vectors[np.bincount(a_rows, minlength=len(halves)) > 0].any(axis=0).nonzero()
    (columns,) = vectors[np.bincount(b_rows, minlength=len(halves)) > 0, : size[short]].any(
        axis=0).nonzero()
    left = vectors[:, rows] @ _moment_entries(seq, basis[rows], basis[columns])
    return (left[a_rows] * vectors[:, columns][b_rows]).sum(axis=1)


def _pushforward_moments(seq: MomentSequence, generators, exponents: np.ndarray) -> np.ndarray:
    """z[r] = L(g_1^e_1 ... g_n^e_n) for each row e of ``exponents``, every
    such product of degree <= max_degree; ValueError naming the first z, in
    row order, that is not a finite float.

    Each product splits into a taller half A, the shortest run of its
    generator copies, taken by falling degree, that holds at least half its
    degree, and the shorter rest B, and z = h_A^T K h_B
    (``_half_products``). The products whose A fits n_max share one K, a
    view of the plain moment matrix. Those with a taller A, of degree a, are
    grouped by a: B has degree <= max_degree - a, so each group's K and
    vectors stay about the size of the plain matrix, however tall a is, and
    K holds only the monomials of the halves (two for A = 1 - x^a).
    """
    degrees = np.array([g.degree() for g in generators])
    order = (-degrees).argsort(kind="stable")
    degrees = degrees[order]
    counts = exponents[:, order].astype(np.intp)
    weights = counts * degrees
    reach = weights.cumsum(axis=1)
    taken = np.minimum(np.maximum(
        (reach[:, -1:] - 2 * (reach - weights) + 2 * degrees - 1) // (2 * degrees), 0), counts)
    group = np.maximum(taken @ degrees, seq.n_max)
    z = np.empty(len(counts))
    for top in sorted(set(group.tolist())):  # np.unique would import numpy.ma
        (rows,) = (group == top).nonzero()
        z[rows] = _half_products(seq, [generators[i] for i in order.tolist()], degrees,
                                 taken[rows], counts[rows] - taken[rows])
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"L(p q) = {z[finite.argmin()]} is not finite")
    return z


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
    moments z_beta = L(g_1^beta_1 ... g_n^beta_n), all of which that fit the
    budget come from a few matrix products (``_pushforward_moments``), and
    the maps are contracted one pair at a time (``_contract``).

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
    with np.errstate(over="ignore", invalid="ignore"):
        values = _pushforward_moments(
            seq, [g for g, _ in generators], keys[:, [column for _, column in generators]])
        if axes:
            uppers, p, q = zip(*axes)
            tables, sums, j = _expansion_tables(np.array(p, dtype=float),
                                                np.array(q, dtype=float),
                                                int(keys[:, list(uppers)].max()))
            for upper, table in zip(uppers, tables):
                keys, values = _contract(keys, values, upper, table, sums, j)
    counts, prefactored = keys[:, :m], keys[:, m]
    lengths = counts.sum(axis=1)
    formed = (lengths > 0) | (prefactored > 0)

    def listed(rows):
        """The formed members among ``rows``, in enumeration order."""
        rows = rows[formed[rows]]
        return rows[np.lexsort((prefactored[rows], *(-counts[rows, ::-1].T), lengths[rows]))]

    finite = np.isfinite(values)
    if not finite.all():  # the one member not formed, the empty product, is L(1)
        raise ValueError(f"L(p q) = {values[listed((~finite).nonzero()[0])[0]]} is not finite")
    attempted += int(formed.sum())
    (below,) = exceeds(-values, 0.0, tol).nonzero()
    violations = [
        Violation(
            describe(tuple(np.arange(m).repeat(counts[i]).tolist()), bool(prefactored[i])),
            float(values[i]),
        )
        for i in (listed(below) if len(below) else ())
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
    label = functools.cache(lambda k: f"({format_polynomial(letters[k][1], names)})")
    violations, attempted, skipped = _semiring_check(
        seq, letters, max_factors, tol,
        describe=lambda combo, _: " * ".join(map(label, combo)),
    )
    return CheckReport(tuple(violations), attempted, skipped)


def cone_positivity_check(
    seq: MomentSequence,
    a: Polynomial,
    b: Polynomial | None = None,
    jk_max: int = 4,
    tol: float | None = None,
) -> CheckReport:
    """Two positivity families built from growth bounds.

    With c the growth bound of ``a`` (of positive degree) and cb that of
    ``b`` (None: ``a``): L((c - a)^j (c + a)^k) and L((cb^2 - b^2)(c - a)^j
    (c + a)^k) must both be >= -tol for all j + k <= jk_max. They are the
    semiring of the pair c -+ a with the prefactor cb^2 - b^2, valued from
    the moments L(r^e a^beta), e <= 1 (see ``_semiring_check``).
    """
    if jk_max < 0:
        raise ValueError("jk_max must be >= 0")
    if tol is None:
        tol = relative_tol(seq.y)
    b = a if b is None else b
    c_a = growth_bound(seq, a).value
    c_b = growth_bound(seq, b).value
    names = _names(seq)
    minus = Polynomial.constant(seq.dimension, c_a) - a
    plus = Polynomial.constant(seq.dimension, c_a) + a
    prefactor = Polynomial.constant(seq.dimension, c_b * c_b) - b * b

    shown = functools.cache(lambda p: format_polynomial(p, names))

    def describe(combo: tuple, prefactored: bool) -> str:
        head = f"({shown(prefactor)}) * " if prefactored else ""
        return f"{head}({shown(minus)})^{combo.count(0)} * ({shown(plus)})^{combo.count(1)}"

    violations, attempted, skipped = _semiring_check(
        seq, [("cone a", minus), ("cone a", plus)], jk_max, tol, describe,
        prefactor=prefactor,
    )
    details = [{"growth_bound_a": c_a, "growth_bound_b": c_b, "jk_max": jk_max}]
    return CheckReport(tuple(violations), attempted, skipped, tuple(details))


def ball_check(
    seq: MomentSequence,
    radius: float,
    order: int = 1,
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
        coordinates = [Polynomial.variable(seq.dimension, i) for i in range(seq.dimension)]
    elif not coordinates:
        raise ValueError("coordinate list is empty")
    square_sum = Polynomial.zero(seq.dimension)
    for c in coordinates:
        square_sum = square_sum + c * c
    shift = Polynomial.constant(seq.dimension, radius * radius) - square_sum
    record = psd_record(quadratic_module_psd(seq, shift, order, tol),
                        format_polynomial(shift, _names(seq)), order)
    if tol is None:
        tol = relative_tol(seq.y)
    bound = growth_bound(seq, square_sum)
    growth = limit_violations(
        lambda: (f"growth bound {bound.value:.12g} of the square sum exceeds "
                 f"radius^2 = {radius * radius:.12g}"),
        bound.value, radius * radius, tol,
    )
    violations = psd_violations(**record) + growth
    details = [
        {"condition": "localized_psd", **record},
        {
            "condition": "growth",
            "value": bound.value,
            "limit": radius * radius,
            "n_used": bound.n_used,
            "passed": not growth,
        },
    ]
    return CheckReport(tuple(violations), 2, 0, tuple(details))


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
            violations += limit_violations(
                lambda: (f"L(({format_polynomial(a, names)})^{2 * n}) = "
                         f"{value:.12g} > {limit:.12g}"),
                value, limit, tol,
            )
    return CheckReport(tuple(violations), attempted, skipped)


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
            violations += limit_violations(
                lambda: (f"growth bound {bound:.12g} of {format_polynomial(a, names)} "
                         f"exceeds {v_a:.12g}"),
                bound, v_a, tol,
            )
        if a.degree() > seq.max_degree:
            skipped += 1
            continue
        applied = abs(seq.apply(a))
        attempted += 1
        violations += limit_violations(
            lambda: (f"|L({format_polynomial(a, names)})| = {applied:.12g} exceeds "
                     f"{functional_bound * v_a:.12g}"),
            applied, functional_bound * v_a, tol,
        )
    return CheckReport(tuple(violations), attempted, skipped)


def schmudgen_check(
    seq: MomentSequence,
    constraints: Sequence[Polynomial],
    order: int = 1,
    tol: float | None = None,
) -> CheckReport:
    """Localized PSD test for every subset product of the constraints.

    Each subset (including the empty one, the plain matrix) is tested at the
    largest admissible order not exceeding ``order``. Each subset's product
    is its prefix's product times its last constraint, formed once: subsets
    come in ``itertools.combinations`` order, so the prefix is already
    there. A subset whose product does not fit even at order zero raises
    DegreeOverflowError.
    """
    constraints = list(constraints)
    names = _names(seq)
    shown = [format_polynomial(c, names) for c in constraints]
    products = {(): Polynomial.constant(seq.dimension, 1.0)}
    violations = []
    details = []
    attempted = 0
    for size in range(len(constraints) + 1):
        for subset in itertools.combinations(range(len(constraints)), size):
            if subset:
                products[subset] = products[subset[:-1]] * constraints[subset[-1]]
            shift = products[subset]
            shift_degree = max(shift.degree(), 0)
            if shift_degree > seq.max_degree:
                raise DegreeOverflowError(
                    f"constraint product of degree {shift_degree} exceeds the "
                    f"stored truncation {seq.max_degree} even at order zero"
                )
            sub_order = min(order, (seq.max_degree - shift_degree) // 2)
            record = psd_record(quadratic_module_psd(seq, shift, sub_order, tol),
                                format_polynomial(shift, names), sub_order)
            attempted += 1
            details.append({"subset": "{" + ", ".join(shown[j] for j in subset) + "}", **record})
            violations += psd_violations(**record)
    return CheckReport(tuple(violations), attempted, 0, tuple(details))


def interval_membership_check(
    seq: MomentSequence,
    entries: Sequence[tuple[Polynomial, float, float]],
    order: int = 1,
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
        square = Polynomial.constant(seq.dimension, m * m) - a * a
        square_order = min(order, (seq.max_degree - max(square.degree(), 0)) // 2)
        shifts = [(a - Polynomial.constant(seq.dimension, lo), order),
                  (Polynomial.constant(seq.dimension, hi) - a, order)]
        entry = {"poly": label, "shifts": []}
        if square_order < 0:
            skipped += 1
            entry["square"] = "degree budget"
        else:
            shifts.append((square, square_order))
        found = len(violations)
        for shift, shift_order in shifts:
            record = psd_record(quadratic_module_psd(seq, shift, shift_order, tol),
                                format_polynomial(shift, names), shift_order)
            attempted += 1
            entry["shifts"].append(record)
            violations += psd_violations(**record)
        entry["passed"] = len(violations) == found
        details.append(entry)
    return CheckReport(tuple(violations), attempted, skipped, tuple(details))


def _number(value, name: str, *_) -> float:
    """``float(value)``; ValueError naming ``name`` when that fails or the
    number is not finite (an infinite bound would pass vacuously)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _count(value, name: str, *_) -> int:
    return _integer(value, name)


def _list(value, name: str, kind=str) -> list:
    """``value``, a list of strings or, for ``kind`` dict, of objects."""
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise ValueError(f"{name} must be a list of {'strings' if kind is str else 'objects'}")
    return value


def _polynomial(text, name: str, variables) -> Polynomial:
    if not isinstance(text, str):
        raise ValueError(f"polynomial must be text, got {text!r}")
    return parse_polynomial(text, variables)


def _polynomials(texts, name: str, variables) -> list:
    return [parse_polynomial(text, variables) for text in _list(texts, name)]


def _known_keys(item: dict, where: str, *keys: str):
    """ValueError naming the first key of ``item`` that is not in ``keys``:
    a misspelt key would otherwise silently leave its default in force."""
    for key in item:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}")


def _read(item: dict, readers: dict, defaults: dict, where: str, variables) -> dict:
    """{key: value} for every key of ``readers``, in their order: its reader's value
    of ``item[key]``, else ``defaults[key]``, else ValueError naming ``where``."""
    values = {}
    for key, reader in readers.items():
        if key in item:
            values[key] = reader(item[key], key, variables)
        elif key in defaults:
            values[key] = defaults[key]
        else:
            raise ValueError(f"{where} needs {key!r}")
    return values


@functools.cache
def _defaults(check) -> dict:
    """{parameter: its default} of the parameters of ``check`` that have one."""
    parameters = inspect.signature(check).parameters.values()
    return {p.name: p.default for p in parameters if p.default is not p.empty}


class _Objects(NamedTuple):
    """The reader of a list of objects with the keys of ``readers``, a key
    of ``defaults`` optional: each object is the tuple of its values in key
    order. Every object's keys are checked before any is read."""

    readers: dict
    defaults: dict = {}

    def __call__(self, entries, name: str, variables) -> list:
        for entry in _list(entries, name, dict):
            _known_keys(entry, f"{name} entry", *self.readers)
        return [tuple(_read(entry, self.readers, self.defaults, f"{name} entry",
                            variables).values()) for entry in entries]


#: kind: (check, {config key: reader(value, key, variables)}). Each key is the
#: check's parameter of the same name, read in table order; an absent key
#: takes the parameter's default and is required where there is none.
CHECKS = {
    "products": (product_positivity_check, {
        "factors": _Objects({"upper": _polynomial, "lower": _polynomial}),
        "max_factors": _count}),
    "cone": (cone_positivity_check, {"a": _polynomial, "b": _polynomial, "jk_max": _count}),
    "ball": (ball_check, {"radius": _number, "order": _count, "coordinates": _polynomials}),
    "growth": (growth_check, {"generators": _Objects(
        {"poly": _polynomial, "bound": _number, "prefactor": _number}, {"prefactor": 1.0})}),
    "weak_absolute_value": (weak_absolute_value_check, {
        "entries": _Objects({"poly": _polynomial, "value": _number}),
        "functional_bound": _number}),
    "schmudgen": (schmudgen_check, {"constraints": _polynomials, "order": _count}),
    "interval": (interval_membership_check, {
        "entries": _Objects({"poly": _polynomial, "lower": _number, "upper": _number}),
        "order": _count}),
}


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
    negative tolerance, a missing required key and a key that the document,
    its check kind (``CHECKS``) or its entry objects do not know.
    """
    if not isinstance(config, dict):
        raise ValueError("check configuration must be an object")
    _known_keys(config, "check configuration", "variables", "checks")
    variables = _list(config.get("variables", default_variable_names(seq.dimension)),
                      "variables")
    if len(variables) != seq.dimension:
        raise ValueError(f"{len(variables)} variables declared for dimension {seq.dimension}")
    checks = config.get("checks")
    if not checks:
        raise ValueError("no checks requested")
    results = []
    for item in _list(checks, "checks", dict):
        kind = item.get("check")
        tol = _number(item["tol"], "tol") if "tol" in item else default_tol
        if tol is not None and not tol >= 0:
            raise ValueError("tol must be >= 0")
        if not isinstance(kind, str) or kind not in CHECKS:
            raise ValueError(f"unknown check kind {kind!r}")
        check, readers = CHECKS[kind]
        _known_keys(item, f"{kind} check", "check", "tol", *readers)
        arguments = _read(item, readers, _defaults(check), f"{kind} check", variables)
        results.append((kind, check(seq, **arguments, tol=tol)))
    return results


__all__ = [
    "CHECKS",
    "CheckReport",
    "FactorPair",
    "Violation",
    "ball_check",
    "cone_positivity_check",
    "growth_check",
    "interval_membership_check",
    "limit_violations",
    "product_positivity_check",
    "psd_violations",
    "run_check_config",
    "schmudgen_check",
    "weak_absolute_value_check",
]
