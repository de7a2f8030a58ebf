"""Moments of a bounded self-adjoint operator and quadrature reconstruction.

For a symmetric matrix T and a unit vector h, the sequence <T^k h, h> is the
moment sequence of a discrete measure supported on the spectrum of T, with
weights given by the squared overlaps of h with the eigenvectors.
``operator_moments`` returns it as a one-dimensional MomentSequence. The
measure is recovered here by Gauss quadrature from the moments (three-term
recurrence coefficients via Cholesky-style orthogonalization of the Hankel
form, then the tridiagonal eigenproblem). That is one constructive choice
among several equivalent ones, and it loses nodes well before desk scale
ends. On operators with eigenvalues uniform in [-2.9, 2.9] and a Gaussian h,
every node was recovered for 19 of 20 operators at n = 8, 8 of 20 at n = 12
and none of 20 at n = 16; the benchmark's 16 x 16 operators lose nodes in 41
of 43 ``spectral`` runs. The cause is the Hankel pivot floor: it is relative
to the largest even moment it reads, so at k nodes it grows like rho^(2k)
for spectral radius rho > 1, while the pivots stay of order one and only the
last few shrink. For one such operator at n = 16 the floor is 8.5e-3 and
the last two pivots are 1.4e-5, so two genuine nodes fall below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficiencyError
from .linalg import SymMatrix, gauss_rule, sym_eig
from .moments import MomentSequence
from .policy import PIVOT_REL_TOL, WEIGHT_PRUNE_TOL


@dataclass(frozen=True)
class DiscreteMeasure:
    """Strictly increasing nodes with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate_power(self, k: int) -> float:
        return float(np.sum(self.weights * self.nodes**k))


def operator_moments(t, h, max_degree: int) -> MomentSequence:
    """The one-dimensional moment sequence <T^k h, h>, k = 0 .. max_degree.

    ``t`` is normalized by SymMatrix and ``h`` to unit length first (zero
    and non-finite vectors are rejected; a vector whose squared norm under-
    or overflows is divided by its largest entry first); ``max_degree`` must
    be even. Powers that overflow
    raise ValueError naming the first non-finite moment, with no numpy
    warning.
    """
    tm = SymMatrix(t).data
    vec = np.array(h, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != tm.shape[0]:
        raise ValueError("vector length does not match operator order")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector h has non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm == 0.0 or norm == math.inf:
        # the sum of squares under- or overflowed: rescale by the largest
        # entry first (only then, so that other vectors keep their bytes)
        peak = float(np.max(np.abs(vec)))
        if peak == 0.0:
            raise ValueError("vector h must be nonzero")
        vec = vec / peak
        norm = float(np.linalg.norm(vec))
    if max_degree < 0 or max_degree % 2 != 0:
        raise ValueError("max_degree must be an even nonnegative integer")
    moments = np.empty(max_degree + 1)
    moments[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        vec = vec / norm
        current = vec
        for k in range(1, max_degree + 1):
            current = tm @ current
            moments[k] = float(current @ vec)
    return MomentSequence._from_dense(1, max_degree, moments, "operator")


def rayleigh_interval(t) -> tuple[float, float]:
    """Extreme values of <T h, h> over unit h: the extreme eigenvalues."""
    decomp = sym_eig(t)
    return float(decomp.eigenvalues[0]), float(decomp.eigenvalues[-1])


def _hankel_cholesky(moments: np.ndarray, k: int):
    """Partial upper Cholesky factor of the Hankel form, rows 0..k-1.

    Only those rows feed the recurrence coefficients (entries use moments up
    to index 2k-1), so only their pivots must be positive; a failure at row j
    means the measure has numerical rank j.
    """
    pivot_floor = PIVOT_REL_TOL * max(float(np.max(moments[: 2 * k : 2])), 1.0)
    r = np.zeros((k, k + 1))
    for j in range(k):
        d = moments[2 * j] - float(r[:j, j] @ r[:j, j])
        if d <= pivot_floor:
            raise RankDeficiencyError(
                f"moment data supports only {j} quadrature nodes, {k} requested",
                achievable=j,
            )
        r[j, j] = math.sqrt(d)
        for col in range(j + 1, k + 1):
            r[j, col] = (moments[j + col] - float(r[:j, j] @ r[:j, col])) / r[j, j]
    return r


def quadrature_from_moments(moments, node_count: int) -> DiscreteMeasure:
    """Discrete measure with ``node_count`` nodes matching the leading moments.

    Accepts a plain moment list or a one-dimensional MomentSequence, such as
    ``operator_moments`` returns. Needs moments m_0 .. m_(2k-1); the result
    integrates all of them exactly up to roundoff. Raises RankDeficiencyError
    (carrying the achievable count) when the Hankel form has rank below
    ``node_count``.
    """
    if isinstance(moments, MomentSequence):
        if moments.dimension != 1:
            raise ValueError("quadrature reconstruction needs a one-dimensional sequence")
        values = moments.y
    else:
        values = np.asarray(list(moments), dtype=float)
    k = int(node_count)
    if k < 1:
        raise ValueError("node_count must be >= 1")
    if len(values) < 2 * k:
        raise ValueError(
            f"{len(values)} moments stored but {2 * k} needed for {k} nodes"
        )
    if values[0] <= 0:
        raise ValueError("total mass m_0 must be positive")
    r = _hankel_cholesky(values, k)
    pivots = np.diagonal(r)
    ratios = np.diagonal(r, 1) / pivots  # r[j, j + 1] / r[j, j]
    alphas = np.concatenate([ratios[:1], ratios[1:] - ratios[:-1]])
    nodes, weights = gauss_rule(alphas, pivots[1:] / pivots[:-1], values[0])
    keep = weights > WEIGHT_PRUNE_TOL
    return DiscreteMeasure(nodes=nodes[keep], weights=weights[keep])


__all__ = [
    "DiscreteMeasure",
    "operator_moments",
    "quadrature_from_moments",
    "rayleigh_interval",
]
