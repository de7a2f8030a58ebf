"""Dense Hermitian eigendecomposition, PSD testing, pencil extremes and Gauss rules.

Every eigensolve in the package goes through ``sym_eig``, which calls LAPACK
through ``numpy.linalg.eigh``. Real symmetric and complex Hermitian input
share it, together with one PSD tolerance policy. The accuracy is the usual
backward-stable one: eigenvalue errors are a small multiple of machine
epsilon times ``||A||``, so small eigenvalues of ill-conditioned Hankel-type
moment matrices carry only absolute accuracy. The PSD tolerance below is sized
for that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EigensolverError, NotPsdError, RankDeficiencyError

#: relative threshold below which pencil eigenvalues of B count as zero
DEFAULT_RANK_TOL = 1e-10


class SymMatrix:
    """Square real matrix, symmetrized on ingest and then read-only."""

    __slots__ = ("data",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self.data = arr

    @property
    def order(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(order={self.order})"


def as_matrix(a) -> np.ndarray:
    """Hermitian ndarray view of a SymMatrix or array-like input.

    Real input stays real; complex input keeps its complex dtype and is
    symmetrized with the conjugate transpose.
    """
    if isinstance(a, SymMatrix):
        return a.data
    arr = np.asarray(a)
    arr = arr.astype(complex if np.iscomplexobj(arr) else float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return 0.5 * (arr + arr.conj().T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns
    (``None`` when only the eigenvalues were computed)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def sym_eig(a, vectors: bool = True) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric or complex Hermitian matrix.

    With ``vectors=False`` only the eigenvalues are computed (LAPACK through
    ``numpy.linalg.eigvalsh``) and ``eigenvectors`` is None. Raises
    ValueError on non-finite entries and EigensolverError if LAPACK fails to
    converge.
    """
    m = as_matrix(a)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    try:
        if vectors:
            return EigenDecomposition(*np.linalg.eigh(m))
        return EigenDecomposition(np.linalg.eigvalsh(m), None)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def default_psd_tol(a) -> float:
    """Relative tolerance guarding against false negatives on ill-conditioned
    Hankel-type matrices: 1e-9 * (1 + max |entry|), where a complex entry
    counts with max(|Re|, |Im|)."""
    m = as_matrix(a)
    peak = float(np.max(np.maximum(np.abs(m.real), np.abs(m.imag)))) if m.size else 0.0
    return 1e-9 * (1.0 + peak)


def psd_check(a, tol: float | None = None) -> PsdVerdict:
    """PSD verdict: is the smallest eigenvalue at least ``-tol``?"""
    m = as_matrix(a)
    if tol is None:
        tol = default_psd_tol(m)
    if tol < 0:
        raise ValueError("tol must be >= 0")
    values = sym_eig(m, vectors=False).eigenvalues
    min_eig = float(values[0]) if values.size else 0.0
    return PsdVerdict(is_psd=min_eig >= -tol, min_eigenvalue=min_eig, tolerance_used=tol)


def gauss_rule(alphas, betas, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch: the ascending eigenvalues of the Jacobi matrix with
    diagonal ``alphas`` and off-diagonal ``betas`` are the nodes, and each
    weight is ``mass`` times the squared first component of its eigenvector."""
    jacobi = np.diag(np.asarray(alphas, dtype=float))
    below = np.arange(len(jacobi) - 1)
    jacobi[below, below + 1] = jacobi[below + 1, below] = betas
    decomp = sym_eig(jacobi)
    return decomp.eigenvalues, mass * decomp.eigenvectors[0] ** 2


def range_whitener(decomp: EigenDecomposition) -> np.ndarray:
    """Columns ``V[:, keep] / sqrt(lambda[keep])`` whitening the range of B.

    ``decomp`` is B's eigendecomposition; an eigenpair is kept when its
    eigenvalue exceeds ``DEFAULT_RANK_TOL * max(max_eig(B), 0)``. For the
    returned W, ``W.T @ B @ W`` is the identity on the kept range, so
    ``W.T @ A @ W`` is A compressed to that range. W has no columns when nothing is kept; the
    caller decides which error that is.
    """
    values = decomp.eigenvalues
    scale = max(float(values[-1]), 0.0) if values.size else 0.0
    keep = values > DEFAULT_RANK_TOL * scale
    return decomp.eigenvectors[:, keep] / np.sqrt(values[keep])


def pencil_extremes(a, b, b_eig: EigenDecomposition | None = None) -> tuple[float, float, int]:
    """Extreme generalized eigenvalues of the pencil (A, B), B PSD.

    B may be singular: its eigenpairs with eigenvalue above
    ``DEFAULT_RANK_TOL * max_eig(B)`` define the range, A is whitened on that
    range, and the extremes of the whitened matrix are returned together
    with the retained rank. Deflation, never regularization: the quotient
    out of B's null space is exact.

    Raises NotPsdError if B has an eigenvalue below
    ``-DEFAULT_RANK_TOL * max_eig(B)`` and RankDeficiencyError if nothing is
    retained (the form is zero at this truncation). A precomputed ``b_eig``
    decomposition may be supplied.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"pencil shape mismatch: {am.shape} vs {bm.shape}")
    if b_eig is None:
        b_eig = sym_eig(bm)
    values = b_eig.eigenvalues
    scale = max(float(values[-1]), 0.0) if values.size else 0.0
    if values.size and float(values[0]) < -DEFAULT_RANK_TOL * scale:
        raise NotPsdError(
            f"pencil base matrix is not PSD: min eigenvalue {float(values[0]):.3e}"
        )
    w = range_whitener(b_eig)
    rank = w.shape[1]
    if rank == 0:
        raise RankDeficiencyError(
            "pencil base matrix has zero effective rank", achievable=0
        )
    inner = sym_eig(w.T @ am @ w, vectors=False).eigenvalues
    return float(inner[0]), float(inner[-1]), rank


__all__ = [
    "DEFAULT_RANK_TOL",
    "EigenDecomposition",
    "PsdVerdict",
    "SymMatrix",
    "as_matrix",
    "default_psd_tol",
    "gauss_rule",
    "pencil_extremes",
    "psd_check",
    "range_whitener",
    "sym_eig",
]
