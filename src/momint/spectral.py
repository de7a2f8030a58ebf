"""Moments of a bounded self-adjoint operator and their Gauss rules.

For a symmetric matrix T and a unit vector h, the sequence <T^k h, h> is the
moment sequence of a discrete measure supported on the spectrum of T, with
weights given by the squared overlaps of h with the eigenvectors.
``operator_moments`` returns it as a one-dimensional MomentSequence.

Every Gauss rule here is ``linalg.lanczos`` followed by ``linalg.gauss_rule``
(Golub & Meurant, *Matrices, Moments and Quadrature*, 2010).
``operator_rule``, the route of ``spectral``, runs Lanczos on T from h and
reads no monomial moment, so moments that grow like rho^(2k) cost it no
node. ``quadrature_from_moments`` runs the same core on polynomial
coefficients: multiplication by x, in the Hankel inner product of the
moments, so it keeps the Hankel form's conditioning. ``chebyshev_extremes``
checks a rule without Lanczos: its extreme nodes are the extreme Ritz
values of the Chebyshev vectors of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficiencyError
from .linalg import SymMatrix, gauss_rule, lanczos, sym_eig
from .moments import MomentSequence
from .policy import WEIGHT_PRUNE_TOL


@dataclass(frozen=True)
class DiscreteMeasure:
    """Strictly increasing nodes with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate_power(self, k: int) -> float:
        return float(np.sum(self.weights * self.nodes**k))


def _operator(t, h) -> tuple[np.ndarray, np.ndarray]:
    """T normalized by SymMatrix, and h to unit length: zero and non-finite h
    are rejected, and only an h whose squared norm under- or overflows is
    divided by its largest entry first, so other vectors keep their bytes."""
    tm = SymMatrix(t).data
    vec = np.array(h, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != tm.shape[0]:
        raise ValueError("vector length does not match operator order")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector h has non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm == 0.0 or norm == math.inf:
        peak = float(np.max(np.abs(vec)))
        if peak == 0.0:
            raise ValueError("vector h must be nonzero")
        vec = vec / peak
        norm = float(np.linalg.norm(vec))
    return tm, vec / norm


def operator_moments(t, h, max_degree: int) -> MomentSequence:
    """The one-dimensional moment sequence <T^k h, h>, k = 0 .. max_degree.

    ``t`` and ``h`` are normalized first (``_operator``); ``max_degree``
    must be even. Powers that overflow raise ValueError naming the first
    non-finite moment, with no numpy warning.
    """
    tm, vec = _operator(t, h)
    if max_degree < 0 or max_degree % 2 != 0:
        raise ValueError("max_degree must be an even nonnegative integer")
    moments = np.empty(max_degree + 1)
    moments[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        current = vec
        for k in range(1, max_degree + 1):
            current = tm @ current
            moments[k] = float(current @ vec)
    return MomentSequence._from_dense(1, max_degree, moments)


def rayleigh_interval(t) -> tuple[float, float]:
    """Extreme values of <T h, h> over unit h: the extreme eigenvalues."""
    decomp = sym_eig(t)
    return float(decomp.eigenvalues[0]), float(decomp.eigenvalues[-1])


def quadrature_from_moments(moments, node_count: int) -> DiscreteMeasure:
    """Discrete measure with ``node_count`` nodes matching the leading moments.

    Accepts a plain moment list or a one-dimensional MomentSequence, such as
    ``operator_moments`` returns. Needs moments m_0 .. m_(2k-1); the result
    integrates all of them exactly up to roundoff. It is Lanczos of x on the
    coefficients of 1, x, ..., x^k in the moments' Hankel inner product.
    Raises RankDeficiencyError (carrying the achievable count) when the
    Krylov space ends before ``node_count``.
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
    # m_2k is never read: only the last step's vector reaches x^k, and it takes no norm
    hankel = np.append(values[: 2 * k], 0.0)[np.add.outer(np.arange(k + 1), np.arange(k + 1))]
    alphas, betas = lanczos(np.eye(k + 1, k=-1), np.eye(k + 1)[0], k, hankel)
    if len(alphas) < k:
        raise RankDeficiencyError(f"moment data supports only {len(alphas)} quadrature "
                                  f"nodes, {k} requested", achievable=len(alphas))
    return _pruned(*gauss_rule(alphas, betas, values[0]))


def operator_rule(t, h, node_count: int) -> DiscreteMeasure:
    """The Gauss rule of the measure of ``<T^k h, h>`` with at most
    ``node_count`` nodes, fewer when the Krylov space of h ends sooner:
    Lanczos on T from h, normalized by ``_operator``."""
    tm, vec = _operator(t, h)
    return _pruned(*gauss_rule(*lanczos(tm, vec, node_count), 1.0))


def chebyshev_extremes(t, h, interval, order: int) -> tuple[float, float]:
    """Extreme nodes of the ``order + 1``-node Gauss rule of ``<T^k h, h>``
    with no Lanczos: the extreme Ritz values of S, T mapped from
    ``interval`` onto [-1, 1], on the Krylov space of the rule spanned by
    the Chebyshev vectors ``T_j(S) h``, j <= order, and orthonormalized by
    QR (a Gram matrix of them would square their condition number)."""
    tm, vec = _operator(t, h)
    center, half = (interval[0] + interval[1]) / 2, (interval[1] - interval[0]) / 2 or 1.0
    s = (tm - center * np.eye(len(vec))) / half
    chebyshev = [vec, s @ vec]
    for _ in range(order - 1):
        chebyshev.append(2.0 * (s @ chebyshev[-1]) - chebyshev[-2])
    q, _ = np.linalg.qr(np.array(chebyshev[: order + 1]).T)
    ritz = sym_eig(q.T @ s @ q, vectors=False).eigenvalues
    return center + half * float(ritz[0]), center + half * float(ritz[-1])


def _pruned(nodes, weights) -> DiscreteMeasure:
    keep = weights > WEIGHT_PRUNE_TOL
    return DiscreteMeasure(nodes=nodes[keep], weights=weights[keep])


__all__ = [
    "DiscreteMeasure",
    "chebyshev_extremes",
    "operator_moments",
    "operator_rule",
    "quadrature_from_moments",
    "rayleigh_interval",
]
