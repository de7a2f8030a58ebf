"""Moment functions on the pair semigroup N^2 with complex characters.

Pairs (m, n) multiply componentwise and carry the star operation
(m, n)* = (n, m). The swap is forced by the character family: the characters
are z -> z^n conj(z)^m for z complex, and alpha(s*) = conj(alpha(s)) holds
under the swap but fails for the identity map (which would force every
character to be real-valued, collapsing the character set). A moment
function f assigns f(m, n) = sum of w * z^n * conj(z)^m over the measure;
positive semidefiniteness of the kernel f(s* t) plus a growth bound on the
diagonal f(n, n) characterizes measures supported on a closed disc.

The one storage of f is ``table[m, n] = f(m, n)``, a read-only Hermitian
``(max_level + 1)^2`` complex array. The Hermitian kernel gathered from it
goes to the package's eigensolver, so one eigensolver and one tolerance
policy (``policy.relative_tol``) cover both the real and complex pipelines.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import GrowthBound, _even_power_bound
from .certify import CheckReport, Violation, psd_violations
from .exceptions import CoverageError
from .linalg import PsdVerdict, psd_check
from .moments import _integer, _multi_index
from .policy import HERMITIAN_INGEST_TOL, relative_tol, saturated_limit


class SemigroupElement(NamedTuple):
    """Pair (m, n) of nonnegative integers under componentwise addition."""

    m: int
    n: int

    def __mul__(self, other: "SemigroupElement") -> "SemigroupElement":
        return SemigroupElement(self.m + other.m, self.n + other.n)

    @property
    def star(self) -> "SemigroupElement":
        return SemigroupElement(self.n, self.m)


class ComplexMomentFunction:
    """Values f(m, n) for 0 <= m, n <= max_level, as the read-only complex
    array ``table`` with ``table[m, n] = f(m, n)``.

    Ingest takes a mapping (m, n) -> value that lists each entry or its
    mirror (n, m); a listed pair must be conjugate, the mirror fills in
    what is missing, every entry must be finite, and f(0, 0) must be real
    and positive.
    """

    __slots__ = ("max_level", "table")

    def __init__(self, max_level: int, values: Mapping):
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        rows, columns, entries = [], [], []
        for key, raw in values.items():
            m, n = _multi_index(key, 2)
            if m > max_level or n > max_level:
                raise ValueError(f"index {key} outside level bound {max_level}")
            rows.append(m)
            columns.append(n)
            entries.append(complex(raw))
        size = max_level + 1
        # the entries with m <= n fix a Hermitian table
        if len(entries) < size * (size + 1) // 2:
            raise CoverageError(f"complex moment table incomplete at level {max_level}")
        tol = HERMITIAN_INGEST_TOL * (1.0 + max(map(abs, entries), default=0.0))
        table = np.zeros((size, size), dtype=complex)
        given = np.zeros((size, size), dtype=bool)
        table[rows, columns] = entries
        given[rows, columns] = True
        mirror = table.T.conj()
        missing = ~(given | given.T)
        with np.errstate(invalid="ignore"):  # inf - inf is nan, never a clash
            clash = given & given.T & (np.abs(table - mirror) > tol)
        bad = np.flatnonzero(missing | clash)
        if bad.size:
            m, n = divmod(int(bad[0]), size)
            if missing[m, n]:
                raise CoverageError(f"missing table entry ({m}, {n})")
            raise ValueError(f"entries ({m}, {n}) and ({n}, {m}) are not conjugate")
        table = np.where(given, table, mirror)
        if abs(table[0, 0].imag) > tol:
            raise ValueError("f(0, 0) must be real and positive")
        table[0, 0] = table[0, 0].real
        self._store(max_level, table)

    @classmethod
    def _from_dense(cls, max_level: int, table: np.ndarray) -> "ComplexMomentFunction":
        """A function from its exactly Hermitian dense table."""
        f = cls.__new__(cls)
        f._store(max_level, table)
        return f

    def _store(self, max_level: int, table: np.ndarray):
        """Check that every entry is finite and f(0, 0) is positive, freeze
        the table, fill the slots."""
        finite = np.isfinite(table)
        if not finite.all():
            m, n = divmod(int(np.argmin(finite)), table.shape[1])
            raise ValueError(f"non-finite moment at ({m}, {n})")
        if table[0, 0].real <= 0:
            raise ValueError("f(0, 0) must be real and positive")
        table.flags.writeable = False
        self.max_level = int(max_level)
        self.table = table

    def value(self, element) -> complex:
        m, n = _multi_index(element, 2)
        if m > self.max_level or n > self.max_level:
            raise CoverageError(f"entry ({m}, {n}) beyond table level {self.max_level}")
        return complex(self.table[m, n])

    # -- documents ----------------------------------------------------------

    def to_document(self) -> dict:
        entries = [
            {"m": m, "n": n, "re": v.real, "im": v.imag}
            for m, row in enumerate(self.table.tolist())
            for n, v in enumerate(row)
        ]
        return {"max_level": self.max_level, "values": entries}

    @classmethod
    def from_document(cls, doc: Mapping) -> "ComplexMomentFunction":
        try:
            max_level = _integer(doc["max_level"], "max_level")
            values = {(e["m"], e["n"]): complex(e["re"], e.get("im", 0.0)) for e in doc["values"]}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed complex moment document: {exc}") from exc
        if len(values) != len(doc["values"]):
            raise ValueError("complex moment document lists an entry more than once")
        return cls(max_level, values)

    def __repr__(self) -> str:
        return f"ComplexMomentFunction(max_level={self.max_level})"


def from_complex_atoms(
    atoms: Sequence[tuple[complex, float]], max_level: int
) -> ComplexMomentFunction:
    """Moment function of finitely many weighted points in the plane:
    f(m, n) = sum of w * z^n * conj(z)^m. Hermitian symmetry is exact.

    Atom by atom the table adds (z^n * conj(z)^m) * complex(w, 0) in real
    arithmetic, step for step as Python's complex product (numpy's complex
    multiply may round differently): grouping the powers before the weight
    lets conjugation commute exactly through every step. A table whose
    powers overflow is rejected with ValueError naming its first non-finite
    entry.
    """
    cleaned = []
    for z, w in atoms:
        if not w > 0:
            raise ValueError(f"atom weight must be positive, got {w}")
        cleaned.append((complex(z), float(w)))
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    table = np.zeros((max_level + 1, max_level + 1), dtype=complex)
    for z, w in cleaned:
        zp, cp = [1.0 + 0.0j], [1.0 + 0.0j]
        zc = z.conjugate()
        for _ in range(max_level):
            zp.append(zp[-1] * z)
            cp.append(cp[-1] * zc)
        zp, cp = np.array(zp), np.array(cp)
        # the products with 0.0 are the cross terms of complex(w, 0); like the
        # scalar product they turn an overflowed part into NaN, silently
        with np.errstate(over="ignore", invalid="ignore"):
            re = np.multiply.outer(cp.real, zp.real) - np.multiply.outer(cp.imag, zp.imag)
            im = np.multiply.outer(cp.imag, zp.real) + np.multiply.outer(cp.real, zp.imag)
            table.real += re * w - im * 0.0
            table.imag += re * 0.0 + im * w
    return ComplexMomentFunction._from_dense(max_level, table)


def complex_atoms_from_document(doc: Mapping) -> tuple[list[tuple[complex, float]], int]:
    """Atoms document: {"max_level": M, "atoms": [{"re", "im", "weight"}]}."""
    try:
        max_level = _integer(doc["max_level"], "max_level")
        atoms = [
            (complex(e["re"], e.get("im", 0.0)), float(e["weight"]))
            for e in doc["atoms"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex atoms document: {exc}") from exc
    return atoms, max_level


def psd_kernel_check(
    f: ComplexMomentFunction,
    level: int | None = None,
    tol: float | None = None,
) -> PsdVerdict:
    """PSD test of the Hermitian kernel H[s, t] = f(s* t) on pairs up to level.

    ``level`` defaults to the largest coverable one, max_level // 2. With
    s = (m1, n1) and t = (m2, n2), s* t = (n1 + m2, m1 + n2), so the kernel
    is gathered from ``f.table`` by fancy indexing.
    """
    if level is None:
        level = f.max_level // 2
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if 2 * level > f.max_level:
        raise CoverageError(
            f"level {level} needs entries up to {2 * level} > {f.max_level}"
        )
    # elements ordered (m, n) for m, then n, in 0..level
    ms = np.repeat(np.arange(level + 1), level + 1)
    ns = np.tile(np.arange(level + 1), level + 1)
    kernel = f.table[ns[:, None] + ms[None, :], ms[:, None] + ns[None, :]]
    return psd_check(kernel, tol)


def diagonal_growth_bound(
    f: ComplexMomentFunction, element: SemigroupElement
) -> GrowthBound:
    """Largest 2n-th root of f(s^n (s*)^n) over the n the table affords.

    The products s^n (s*)^n sit on the diagonal of the table, so the entries
    are real for a Hermitian f; negative values (non-PSD data) are clamped
    to zero and flagged. The neutral element gives sqrt(f(0, 0)).
    """
    element = SemigroupElement(*element)
    step = element.m + element.n
    n_used = f.max_level // step if step else 1
    if n_used < 1:
        raise CoverageError(
            f"table level {f.max_level} cannot reach s s* for s=({element.m}, {element.n})"
        )
    diagonal = f.table.diagonal().real.tolist()
    return _even_power_bound([diagonal[n * step] for n in range(1, n_used + 1)])


def disc_check(
    f: ComplexMomentFunction,
    radius: float,
    constant: float,
    tol: float | None = None,
) -> CheckReport:
    """Disc criterion: the kernel is PSD at the maximal coverable level and
    the diagonal obeys f(n, n) <= constant * radius^(2n) for every stored n.
    A given ``tol`` applies to both; with None each part uses its default."""
    if not (radius > 0 and constant > 0):
        raise ValueError("radius and constant must be positive")
    verdict = psd_kernel_check(f, tol=tol)
    if tol is None:
        tol = relative_tol(f.table)
    violations = psd_violations(verdict, f"kernel not PSD at level {f.max_level // 2}")
    diagonal = []
    for n, value in enumerate(f.table.diagonal().real.tolist()):
        limit = saturated_limit(constant, radius, 2 * n)
        # a saturated limit is written as null: strict JSON has no infinity
        diagonal.append({"n": n, "value": value, "limit": limit if limit < math.inf else None})
        if value > limit + tol:
            violations.append(
                Violation(
                    description=f"diagonal growth at n={n}: {value:.12g} > {limit:.12g}",
                    value=value - limit,
                )
            )
    details = [
        {
            "kernel_level": f.max_level // 2,
            "kernel_min_eigenvalue": verdict.min_eigenvalue,
            "kernel_psd": verdict.is_psd,
        },
        {"diagonal": diagonal},
    ]
    return CheckReport(tuple(violations), 1 + f.max_level + 1, 0, tuple(details))


__all__ = [
    "ComplexMomentFunction",
    "SemigroupElement",
    "complex_atoms_from_document",
    "diagonal_growth_bound",
    "disc_check",
    "from_complex_atoms",
    "psd_kernel_check",
]
