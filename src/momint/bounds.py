"""Intrinsic bounds computed from a moment sequence alone.

Three families of estimates, all reported together with the truncation order
that produced them (no operation extrapolates):

* growth bounds: sup over n of L(a^(2n))^(1/(2n)), the even-power root
  sequence, which converges to the sup-norm of ``a`` on the support. Each
  L(a^(2n)) is a quadratic form of the plain moment matrix (``_power_table``);
* Rayleigh bounds: extreme generalized eigenvalues of the localized/plain
  moment matrix pencil, estimating the range of ``a`` on the support;
* archimedean bounds: the smallest constant M making the localized matrix
  of M - a positive semidefinite on the range of the moment form, which must
  be PSD as for the pencil. M is the pencil's top eigenvalue, admitted by one
  PSD check at the package's default tolerance. The bound for a^2 is the
  same question asked of the polynomial a^2.

``quadratic_module_psd`` is the one route from a real localized moment
matrix to a PSD verdict: the plain verdict (shift 1), quadratic-module
membership and every localized check in ``certify`` call it. Every moment
matrix comes from ``MomentSequence.moment_matrix``, which builds one per
order and shift value, and every pencil uses the memoized
eigendecomposition of the plain matrix at its order (``_plain_matrix_eig``),
so no pencil builds or factors the plain matrix again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exceptions import DegreeOverflowError, NotNormalizedError, NotPsdError
from .linalg import (
    EigenDecomposition,
    PsdVerdict,
    pencil_extremes,
    pencil_whitened,
    psd_check,
    sym_eig,
)
from .moments import MomentSequence, _multiplication_matrix
from .policy import MEMBERSHIP_SLACK
from .polynomials import Polynomial


@dataclass(frozen=True)
class GrowthBound:
    """Max of the even-power root sequence, with the sequence itself.

    ``per_power[k]`` holds L(a^(2(k+1)))^(1/(2(k+1))). ``clamped`` flags that
    some even-power value was negative (impossible for PSD input) and was
    clamped to zero instead of erroring, so diagnostics stay available.
    """

    value: float
    n_used: int
    per_power: tuple
    clamped: bool = False


@dataclass(frozen=True)
class RayleighBounds:
    lower: float
    upper: float
    order_used: int
    effective_rank: int


@dataclass(frozen=True)
class MembershipVerdict:
    """Growth-route membership test for {a : L(b^2 a) >= 0 for all b}.

    ``holds`` applies the slack MEMBERSHIP_SLACK; ``raw_holds`` is the unslacked
    comparison ``growth_shift <= growth_a``. Both estimates converge from
    below, so the raw comparison is exact only in the limit.
    """

    holds: bool
    growth_a: float
    growth_shift: float
    raw_holds: bool
    slack: float


def _require_normalized(seq: MomentSequence):
    if not seq.normalized:
        raise NotNormalizedError(
            "operation requires unit mass but L(1) <= 0 (normalization rejected)"
        )


def _plain_matrix_eig(seq: MomentSequence, order: int) -> EigenDecomposition:
    """Eigendecomposition of the plain moment matrix, memoized per sequence."""
    key = ("plain_eig", order)
    cached = seq._cache.get(key)
    if cached is None:
        cached = seq._cache[key] = sym_eig(seq.moment_matrix(order).matrix)
    return cached


def growth_bound(seq: MomentSequence, a: Polynomial) -> GrowthBound:
    """Largest 2n-th root of L(a^(2n)) over every n the truncation affords.

    For a polynomial of degree g >= 1 the achievable powers are
    n = 1 .. max_degree // (2g), valued by ``_power_table``, whose exact
    power-of-two scaling keeps a tiny ``a`` from underflowing and a huge one
    from overflowing: only the scaled values, the roots and the bound must be
    finite floats (ValueError otherwise), not L(a^(2n)) itself. Constant
    polynomials evaluate exactly to their absolute value. Requires unit mass.
    The result is memoized per (sequence, polynomial).
    """
    _require_normalized(seq)
    if a.dimension != seq.dimension:
        raise ValueError("polynomial dimension mismatch")
    key = ("growth", a)
    cached = seq._cache.get(key)
    if cached is None:
        cached = _growth_bound(seq, a)
        seq._cache[key] = cached
    return cached


def _growth_bound(seq: MomentSequence, a: Polynomial) -> GrowthBound:
    deg = a.degree()
    if deg <= 0:
        c = abs(float(a.coefficient((0,) * a.dimension))) if not a.is_zero() else 0.0
        return GrowthBound(value=c, n_used=1, per_power=(c,))
    if deg > seq.n_max:
        raise DegreeOverflowError(
            f"degree {deg} exceeds n_max {seq.n_max}: no even power fits"
        )
    scaled, exponent = _power_table(seq, a, seq.max_degree // (2 * deg))
    bound = _even_power_bound(scaled.tolist())
    try:
        roots = tuple(math.ldexp(root, exponent) for root in bound.per_power)
    except OverflowError:
        roots = (math.inf,)
    if not all(map(math.isfinite, roots)):  # a scaled value or a root
        raise ValueError("growth bound is not finite")
    return GrowthBound(
        value=max(roots), n_used=bound.n_used, per_power=roots, clamped=bound.clamped
    )


def _power_table(seq: MomentSequence, a: Polynomial, count: int) -> tuple[np.ndarray, int]:
    """``(v, e)`` with ``v[n - 1] = L(b^(2n))`` for n = 1 .. count, where
    ``b = 2^(-e) a`` and ``e`` is the binary exponent of a's largest
    coefficient, so L(a^(2n)) is exactly ``v[n - 1] * 2^(2 n e)``.

    With ``top = count * deg a``, S is multiplication by b from the
    graded-lex basis of degree <= ``top - deg a`` into that of degree <=
    top (``moments._multiplication_matrix``). ``p_n = S p_(n-1)`` from
    ``p_0 = 1`` holds the coefficients of b^n, on the basis of degree <=
    top, and ``v[n - 1] = p_n^T M p_n`` with M the plain moment matrix of
    order top. For ``c - a`` this S is ``c I - S_a``: no binomial expansion,
    which would cancel when c is near max |a|. The scaling is exact, but a
    term that underflows in b drops out, and with it maybe b's degree: then
    S has fewer rows, and the rest of p_n stays zero.
    """
    if a.dimension != seq.dimension:
        raise ValueError("polynomial dimension mismatch")
    if a.is_zero():
        return np.zeros(count), 0
    exponent = math.frexp(max(abs(float(c)) for c in a.terms.values()))[1]
    degree = max(a.degree(), 0)
    top = count * degree
    gram = seq.moment_matrix(top).matrix.data
    b = a.map_coefficients(lambda c: math.ldexp(float(c), -exponent))
    shift = _multiplication_matrix(b, top - degree)
    powers = np.zeros((count, len(gram)))
    power = np.zeros(len(gram))
    power[0] = 1.0
    for n in range(count):
        powers[n, : len(shift)] = shift @ power[: shift.shape[1]]
        power = powers[n]
    return np.sum((powers @ gram) * powers, axis=1), exponent


def _even_power_values(seq: MomentSequence, a: Polynomial, count: int) -> list[float]:
    """L(a^2), L(a^4), ..., L(a^(2 count)) from the power table, as
    ``scaled[n - 1] * 2^(2 n exponent)``; ValueError unless each is a finite
    float (L(p q) with p = q = a^n)."""
    scaled, exponent = _power_table(seq, a, count)
    values = []
    for n, value in enumerate(scaled.tolist(), start=1):
        try:
            value = math.ldexp(value, 2 * n * exponent)
        except OverflowError:
            value = math.copysign(math.inf, value)
        if not math.isfinite(value):
            raise ValueError(f"L(p q) = {value} is not finite")
        values.append(value)
    return values


def _even_power_bound(values: Iterable[float]) -> GrowthBound:
    """The growth bound of the even-power values v_1, v_2, ... (v_n standing
    for L(a^(2n))): the largest v_n^(1/(2n)), with negative values clamped
    to zero and flagged."""
    per = []
    clamped = False
    for n, value in enumerate(values, start=1):
        if value < 0.0:
            clamped = True
            value = 0.0
        per.append(value ** (1.0 / (2 * n)))
    return GrowthBound(
        value=max(per), n_used=len(per), per_power=tuple(per), clamped=clamped
    )


def rayleigh_bounds(seq: MomentSequence, a: Polynomial, order: int) -> RayleighBounds:
    """Extremes of L(a b^2) / L(b^2) over b of degree <= order.

    Computed as the extreme generalized eigenvalues of the pencil formed by
    the a-localized and plain moment matrices, deflated to the range of the
    plain matrix.
    """
    localized = seq.moment_matrix(order, a).matrix
    lo, hi, rank = pencil_extremes(localized, _plain_matrix_eig(seq, order))
    return RayleighBounds(lower=lo, upper=hi, order_used=order, effective_rank=rank)


def quadratic_module_psd(
    seq: MomentSequence,
    shift: Polynomial,
    order: int,
    tol: float | None = None,
) -> PsdVerdict:
    """Localized-matrix membership test: is L(shift b^2) >= 0 for b up to
    order? The one place where a real moment matrix meets ``psd_check``;
    shift 1 gives the plain PSD verdict."""
    return psd_check(seq.moment_matrix(order, shift).matrix, tol)


def quadratic_module_growth(seq: MomentSequence, a: Polynomial) -> MembershipVerdict:
    """Growth-route membership test: growth bound of (c - a) stays below c.

    ``c`` is the growth bound of ``a`` itself; membership holds in the limit
    exactly when the shifted bound does not exceed it. Both estimates rise
    toward their limits, so the slack factor MEMBERSHIP_SLACK is applied and
    the raw comparison is reported alongside.
    """
    c_a = growth_bound(seq, a)
    shifted = Polynomial.constant(seq.dimension, c_a.value) - a
    c_shift = growth_bound(seq, shifted)
    raw = c_shift.value <= c_a.value
    return MembershipVerdict(
        holds=c_shift.value <= c_a.value * (1.0 + MEMBERSHIP_SLACK),
        growth_a=c_a.value,
        growth_shift=c_shift.value,
        raw_holds=raw,
        slack=MEMBERSHIP_SLACK,
    )


def archimedean_bound(seq: MomentSequence, a: Polynomial, order: int) -> float:
    """Smallest M with the localized matrix of (M - a) positive semidefinite
    at the given order, on the range of the plain moment matrix.

    With C the localized matrix of ``a`` compressed to that range, as the
    pencil of ``rayleigh_bounds`` compresses it (``pencil_whitened``:
    rank-deficient directions are quotiented out, never perturbed, and a
    plain matrix that is not PSD, or retains nothing, raises the pencil's
    error), the least such M is the top eigenvalue of C, the upper Rayleigh
    bound of ``a``. It is returned as computed, once ``psd_check(M I - C)``
    admits it at the default tolerance; a refusal is a NotPsdError naming M
    and the margin.
    """
    localized = seq.moment_matrix(order, a).matrix
    compressed = pencil_whitened(localized, _plain_matrix_eig(seq, order))
    top = float(sym_eig(compressed, vectors=False).eigenvalues[-1])
    verdict = psd_check(top * np.eye(len(compressed)) - compressed)
    if not verdict.is_psd:
        raise NotPsdError(
            f"archimedean bound {top!r} is not admitted: M I - C misses its PSD "
            f"tolerance {verdict.tolerance_used:.3e} by "
            f"{-(verdict.min_eigenvalue + verdict.tolerance_used):.3e}"
        )
    return top


__all__ = [
    "GrowthBound",
    "MembershipVerdict",
    "RayleighBounds",
    "archimedean_bound",
    "growth_bound",
    "quadratic_module_growth",
    "quadratic_module_psd",
    "rayleigh_bounds",
]
