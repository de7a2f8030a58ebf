"""Moments of a bounded self-adjoint operator and quadrature reconstruction.

For a symmetric matrix T and a unit vector h, the sequence <T^k h, h> is the
moment sequence of a discrete measure supported on the spectrum of T, with
weights given by the squared overlaps of h with the eigenvectors. The measure
is recovered here by Gauss quadrature from the moments (three-term recurrence
coefficients via Cholesky-style orthogonalization of the Hankel form, then
the tridiagonal eigenproblem). That is one constructive choice among several
equivalent ones; it is stable at desk scale (node counts up to about 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import RankDeficiencyError
from .linalg import SymMatrix, as_matrix, gauss_rule, sym_eig
from .moments import MomentSequence

WEIGHT_PRUNE_TOL = 1e-12
PIVOT_REL_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMomentData:
    """Moments m_k = <T^k h, h> for k = 0 .. max_degree, h unit-normalized."""

    operator: SymMatrix
    vector: np.ndarray
    moments: np.ndarray

    @property
    def max_degree(self) -> int:
        return len(self.moments) - 1

    def to_moment_sequence(self) -> MomentSequence:
        """Repackage as a one-dimensional moment sequence."""
        return MomentSequence._from_dense(1, self.max_degree, self.moments, "operator")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Strictly increasing nodes with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate_power(self, k: int) -> float:
        return float(np.sum(self.weights * self.nodes**k))


def operator_moments(t, h, max_degree: int) -> OperatorMomentData:
    """Compute <T^k h, h> for k up to max_degree by iterated products.

    ``h`` is normalized first (zero vectors are rejected); ``max_degree``
    must be even so the result packages as a moment sequence.
    """
    tm = as_matrix(t)
    vec = np.array(h, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != tm.shape[0]:
        raise ValueError("vector length does not match operator order")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("vector h must be nonzero")
    if max_degree < 0 or max_degree % 2 != 0:
        raise ValueError("max_degree must be an even nonnegative integer")
    vec = vec / norm
    moments = np.empty(max_degree + 1)
    current = vec
    moments[0] = 1.0
    for k in range(1, max_degree + 1):
        current = tm @ current
        moments[k] = float(current @ vec)
    return OperatorMomentData(
        operator=t if isinstance(t, SymMatrix) else SymMatrix(tm),
        vector=vec,
        moments=moments,
    )


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

    Accepts a plain moment list, an OperatorMomentData, or a one-dimensional
    MomentSequence. Needs moments m_0 .. m_(2k-1); the result integrates all
    of them exactly up to roundoff. Raises RankDeficiencyError (carrying the
    achievable count) when the Hankel form has rank below ``node_count``.
    """
    if isinstance(moments, OperatorMomentData):
        values = np.asarray(moments.moments, dtype=float)
    elif isinstance(moments, MomentSequence):
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


def spectral_measure(t, h, node_count: int | None = None) -> DiscreteMeasure:
    """Convenience wrapper: moments of (T, h), then quadrature reconstruction.

    ``node_count`` defaults to the operator order; if the moment data has
    lower numerical rank the reconstruction retries at the achievable count.
    """
    tm = as_matrix(t)
    k = tm.shape[0] if node_count is None else int(node_count)
    data = operator_moments(t, h, 2 * k)
    try:
        return quadrature_from_moments(data, k)
    except RankDeficiencyError as exc:
        if exc.achievable and exc.achievable > 0:
            return quadrature_from_moments(data, exc.achievable)
        raise


__all__ = [
    "DiscreteMeasure",
    "OperatorMomentData",
    "operator_moments",
    "quadrature_from_moments",
    "rayleigh_interval",
    "spectral_measure",
]
