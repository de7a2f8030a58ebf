"""Intrinsic bounds computed from a moment sequence alone.

Three families of estimates, all reported together with the truncation order
that produced them (no operation extrapolates):

* growth bounds: sup over n of L(a^(2n))^(1/(2n)), the even-power root
  sequence, which converges to the sup-norm of ``a`` on the support;
* Rayleigh bounds: extreme generalized eigenvalues of the localized/plain
  moment matrix pencil, estimating the range of ``a`` on the support;
* archimedean bounds: the smallest constant M making the localized matrix of
  M - a positive semidefinite, found by bisection on the range of the moment
  form. The bound for a^2 is the same question asked of the polynomial a^2.

``quadratic_module_psd`` is the one route from a real localized moment
matrix to a PSD verdict: the plain verdict (shift 1), quadratic-module
membership and every localized check in ``certify`` call it. Every pencil
uses the memoized eigendecomposition of the plain matrix at its order
(``_plain_matrix_eig``), so no pencil builds or factors the plain matrix
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .exceptions import (
    CeilingExceededError,
    DegreeOverflowError,
    NotNormalizedError,
)
from .linalg import (
    EigenDecomposition,
    PsdVerdict,
    pencil_extremes,
    psd_check,
    range_whitener,
    sym_eig,
)
from .moments import MomentSequence
from .polynomials import Polynomial

#: multiplicative slack accepted when comparing two growth bounds, both of
#: which converge from below at finite truncation
MEMBERSHIP_SLACK = 0.05

BISECTION_TOL = 1e-8
BISECTION_CEILING = 1e12


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
        cached = sym_eig(seq.moment_matrix(order).matrix)
        seq._cache[key] = cached
    return cached


def growth_bound(seq: MomentSequence, a: Polynomial) -> GrowthBound:
    """Largest 2n-th root of L(a^(2n)) over every n the truncation affords.

    For a polynomial of degree g >= 1 the achievable powers are
    n = 1 .. max_degree // (2g); each L(a^(2n)) is evaluated as the bilinear
    form L(a^n a^n), so only the powers up to a^n are formed. Constant
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
    return _even_power_bound(_even_power_values(seq, a, seq.max_degree // (2 * deg)))


def _even_power_values(seq: MomentSequence, a: Polynomial, count: int) -> Iterator[float]:
    """L(a^2), L(a^4), ..., L(a^(2 count)), each as the bilinear form
    L(a^n a^n), so only the powers up to a^count are formed."""
    power = a
    for n in range(1, count + 1):
        if n > 1:
            power = power * a
        yield seq.apply(power, power)


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
    at the given order.

    The search runs on the range of the plain moment matrix (rank-deficient
    directions are quotiented out, never perturbed), bisecting to absolute
    tolerance BISECTION_TOL below BISECTION_CEILING. The result coincides
    with the upper Rayleigh bound of ``a``; keeping the bisection route makes
    that equality a checkable property rather than a definition.
    """
    localized = seq.moment_matrix(order, a).matrix
    w = range_whitener(_plain_matrix_eig(seq, order))
    if w.shape[1] == 0:
        raise CeilingExceededError("moment form is zero at this truncation")
    compressed = w.T @ localized.data @ w
    identity = np.eye(compressed.shape[0])

    def admissible(m: float) -> bool:
        return psd_check(m * identity - compressed, tol=0.0).is_psd

    hi = 1.0
    while not admissible(hi):
        hi *= 2.0
        if hi > BISECTION_CEILING:
            raise CeilingExceededError(
                f"no admissible bound below ceiling {BISECTION_CEILING:g}"
            )
    lo = -1.0
    while admissible(lo):
        lo *= 2.0
        if lo < -BISECTION_CEILING:
            raise CeilingExceededError(
                f"bound lies below -ceiling {BISECTION_CEILING:g}; data looks degenerate"
            )
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


__all__ = [
    "BISECTION_CEILING",
    "BISECTION_TOL",
    "GrowthBound",
    "MembershipVerdict",
    "MEMBERSHIP_SLACK",
    "RayleighBounds",
    "archimedean_bound",
    "growth_bound",
    "quadratic_module_growth",
    "quadratic_module_psd",
    "rayleigh_bounds",
]
