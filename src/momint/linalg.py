"""Dense Hermitian eigendecomposition, PSD testing, pencil extremes and Gauss rules.

Every eigensolve in the package goes through ``sym_eig``, which calls LAPACK
through ``numpy.linalg.eigh``. Real symmetric and complex Hermitian input
share it, together with one PSD tolerance, ``policy.relative_tol``. Each
public entry point normalizes its input once through ``SymMatrix`` (shape,
symmetrization, finiteness) and passes the SymMatrix inward.

``pencil_whitened``, and with it ``pencil_extremes``, takes the base matrix
B only through its eigendecomposition, so the one cached decomposition of a
plain moment matrix serves every pencil at its order. A real moment matrix
reaches ``psd_check`` only through ``bounds.quadratic_module_psd``.
``lanczos`` is the one route from an operator or a moment table to the
Jacobi coefficients that ``gauss_rule`` turns into a Gauss rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EigensolverError, NotPsdError, RankDeficiencyError
from .policy import BREAKDOWN_TOL, DEFAULT_RANK_TOL, relative_tol


class SymMatrix:
    """Square real symmetric or complex Hermitian matrix, read-only.

    The one normalizer of eigensolver input: it checks the shape, then
    symmetrizes once with the conjugate transpose (real input stays real),
    then checks that every entry is finite. A non-finite input entry, or a
    sum that overflows, raises ValueError and no numpy warning. Built from a
    SymMatrix it shares the data, so a matrix is normalized once however
    many entry points it passes through. For an exactly Hermitian A,
    ``0.5 * (A + A^H)`` is A bit for bit.
    """

    __slots__ = ("data",)

    def __init__(self, entries):
        if isinstance(entries, SymMatrix):
            self.data = entries.data
            return
        arr = np.asarray(entries)
        arr = arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            arr = 0.5 * (arr + arr.conj().T)
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix has non-finite entries")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def gathered(cls, values: np.ndarray, data: np.ndarray) -> "SymMatrix":
        """``SymMatrix(data)`` for a real symmetric square ``data`` gathered
        from ``values``, every entry of which it takes (a moment matrix and
        its moment vector). Symmetric as gathered, the matrix is its own
        symmetrization wherever that is finite, so only the check runs, on
        ``values``: ``a + a`` is finite exactly where ``0.5 * (a + a)`` is."""
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(values + values).all():
                raise ValueError("matrix has non-finite entries")
        matrix = cls.__new__(cls)
        matrix.data = data
        matrix.data.flags.writeable = False
        return matrix

    @property
    def order(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(order={self.order})"


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
    ValueError on a non-square shape or non-finite entries (from SymMatrix)
    and EigensolverError if LAPACK fails to converge.
    """
    m = SymMatrix(a).data
    try:
        if vectors:
            return EigenDecomposition(*np.linalg.eigh(m))
        return EigenDecomposition(np.linalg.eigvalsh(m), None)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def psd_check(a, tol: float | None = None) -> PsdVerdict:
    """PSD verdict: is the smallest eigenvalue at least ``-tol``? The default
    ``tol`` is ``relative_tol`` of the matrix."""
    m = SymMatrix(a)
    if tol is None:
        tol = relative_tol(m.data)
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    values = sym_eig(m, vectors=False).eigenvalues
    min_eig = float(values[0]) if values.size else 0.0
    return PsdVerdict(is_psd=min_eig >= -tol, min_eigenvalue=min_eig, tolerance_used=tol)


def psd_record(verdict: PsdVerdict, shift: str, order: int) -> dict:
    """The one report entry of a PSD verdict on the localized matrix of
    ``shift`` (its ``format_polynomial`` text, ``"1"`` for a plain matrix and
    for the disc kernel) at ``order`` (the kernel level for the disc)."""
    return {"shift": shift, "order": order, "is_psd": verdict.is_psd,
            "min_eigenvalue": verdict.min_eigenvalue, "tolerance": verdict.tolerance_used}


def gauss_rule(alphas, betas, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch: the ascending eigenvalues of the Jacobi matrix with
    diagonal ``alphas`` and off-diagonal ``betas`` are the nodes, and each
    weight is ``mass`` times the squared first component of its eigenvector."""
    jacobi = np.diag(np.asarray(alphas, dtype=float))
    below = np.arange(len(jacobi) - 1)
    jacobi[below, below + 1] = jacobi[below + 1, below] = betas
    decomp = sym_eig(jacobi)
    return decomp.eigenvalues, mass * decomp.eigenvectors[0] ** 2


def lanczos(a, start, steps: int, gram=None) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi coefficients ``(alphas, betas)`` of at most ``steps`` Lanczos
    steps of ``a``, self-adjoint in the inner product ``u^T G v`` of ``gram``
    (the dot product when None), from ``start``. Each step projects its
    vector out of the whole basis twice, two matrix products a pass. The
    Krylov space ends, with fewer alphas, at a new direction whose squared
    norm is not above ``BREAKDOWN_TOL`` times ``|a q|^T |G| |a q|``. The
    last step forms no direction, so ``betas`` is one shorter."""
    g = np.eye(len(start)) if gram is None else gram
    basis = np.zeros((len(start), steps))
    g_basis = np.zeros_like(basis)  # G times each basis vector
    q = start / math.sqrt(start @ g @ start)
    alphas, betas = [], []
    for j in range(steps):
        basis[:, j], g_basis[:, j] = q, g @ q
        v = a @ q
        alphas.append(float(g_basis[:, j] @ v))
        if j + 1 == steps:
            break
        scale = float(np.abs(v) @ np.abs(g) @ np.abs(v))
        for _ in range(2):
            v = v - basis[:, : j + 1] @ (g_basis[:, : j + 1].T @ v)
        norm2 = float(v @ g @ v)
        if not norm2 > BREAKDOWN_TOL * scale:
            break
        betas.append(math.sqrt(norm2))
        q = v / betas[-1]
    return np.array(alphas), np.array(betas)


def range_whitener(decomp: EigenDecomposition) -> np.ndarray:
    """Columns ``V[:, keep] / sqrt(lambda[keep])`` whitening the range of B.

    ``decomp`` is B's eigendecomposition; an eigenpair is kept when its
    eigenvalue exceeds ``DEFAULT_RANK_TOL * max(max_eig(B), 0)``. For the
    returned W, ``W^H B W`` is the identity on the kept range, so
    ``W^H A W`` is A compressed to that range. W has no columns when nothing is kept; the
    caller decides which error that is.
    """
    values = decomp.eigenvalues
    scale = max(float(values[-1]), 0.0) if values.size else 0.0
    keep = values > DEFAULT_RANK_TOL * scale
    return decomp.eigenvectors[:, keep] / np.sqrt(values[keep])


def pencil_whitened(a, b_eig: EigenDecomposition) -> np.ndarray:
    """``W^H A W``: A compressed to the range of the PSD base matrix B and
    whitened there (``range_whitener``), from A and B's eigendecomposition
    ``b_eig`` (``sym_eig(b)``, with vectors). Deflation, never
    regularization: the quotient out of B's null space is exact.

    Raises ValueError unless ``b_eig`` has eigenvectors of A's order,
    NotPsdError if B has an eigenvalue below
    ``-DEFAULT_RANK_TOL * max_eig(B)`` and RankDeficiencyError if nothing is
    retained (the form is zero at this truncation).
    """
    am = SymMatrix(a).data
    if b_eig.eigenvectors is None or b_eig.eigenvectors.shape != am.shape:
        raise ValueError(f"pencil base decomposition does not match shape {am.shape}")
    values = b_eig.eigenvalues
    scale = max(float(values[-1]), 0.0) if values.size else 0.0
    if values.size and float(values[0]) < -DEFAULT_RANK_TOL * scale:
        raise NotPsdError(
            f"pencil base matrix is not PSD: min eigenvalue {float(values[0]):.3e}"
        )
    w = range_whitener(b_eig)
    if w.shape[1] == 0:
        raise RankDeficiencyError(
            "pencil base matrix has zero effective rank", achievable=0
        )
    return w.conj().T @ am @ w


def pencil_extremes(a, b_eig: EigenDecomposition) -> tuple[float, float, int]:
    """Extreme generalized eigenvalues of the pencil (A, B), B PSD and maybe
    singular, with the retained rank: the extreme eigenvalues of
    ``pencil_whitened(a, b_eig)``, which raises on a base matrix that is not
    PSD or retains nothing."""
    inner = sym_eig(pencil_whitened(a, b_eig), vectors=False).eigenvalues
    return float(inner[0]), float(inner[-1]), len(inner)


__all__ = [
    "EigenDecomposition",
    "PsdVerdict",
    "SymMatrix",
    "gauss_rule",
    "lanczos",
    "pencil_extremes",
    "pencil_whitened",
    "psd_check",
    "psd_record",
    "range_whitener",
    "sym_eig",
]
