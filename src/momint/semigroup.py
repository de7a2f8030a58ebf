"""Moment functions on the pair semigroup N^2 with complex characters.

Pairs (m, n) multiply componentwise and carry the star operation
(m, n)* = (n, m). The swap is forced by the character family: the characters
are z -> z^n conj(z)^m for z complex, and alpha(s*) = conj(alpha(s)) holds
under the swap but fails for the identity map (which would force every
character to be real-valued, collapsing the character set). A moment
function f assigns f(m, n) = sum of w * z^n * conj(z)^m over the measure;
positive semidefiniteness of the kernel f(s* t) plus a growth bound on the
diagonal f(n, n) characterizes measures supported on a closed disc.

Hermitian PSD tests pass the complex kernel straight to the package's
Hermitian eigensolver, so one eigensolver and one tolerance policy cover both
the real and the complex pipelines.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import GrowthBound
from .certify import CheckReport, Violation
from .exceptions import CoverageError
from .linalg import PsdVerdict, psd_check
from .moments import _integer, _multi_index

HERMITIAN_INGEST_TOL = 1e-12


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
    """Table (m, n) -> complex value for 0 <= m, n <= max_level.

    Hermitian symmetry f(n, m) = conj(f(m, n)) is enforced on ingest and
    f(0, 0) must be real and positive.
    """

    __slots__ = ("max_level", "values")

    def __init__(self, max_level: int, values: Mapping):
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        table: dict = {}
        for key, raw in values.items():
            m, n = _multi_index(key, 2)
            if m > max_level or n > max_level:
                raise ValueError(f"index {key} outside level bound {max_level}")
            table[(m, n)] = complex(raw)
        scale = max((abs(v) for v in table.values()), default=0.0)
        for m in range(max_level + 1):
            for n in range(max_level + 1):
                direct = table.get((m, n))
                mirror = table.get((n, m))
                if direct is None and mirror is None:
                    raise CoverageError(f"missing table entry ({m}, {n})")
                if direct is None:
                    table[(m, n)] = mirror.conjugate()
                elif mirror is not None and abs(
                    direct - mirror.conjugate()
                ) > HERMITIAN_INGEST_TOL * (1.0 + scale):
                    raise ValueError(
                        f"entries ({m}, {n}) and ({n}, {m}) are not conjugate"
                    )
        mass = table[(0, 0)]
        if abs(mass.imag) > HERMITIAN_INGEST_TOL * (1.0 + scale) or mass.real <= 0:
            raise ValueError("f(0, 0) must be real and positive")
        table[(0, 0)] = complex(mass.real, 0.0)
        self.max_level = int(max_level)
        self.values = table

    def value(self, element) -> complex:
        m, n = int(element[0]), int(element[1])
        try:
            return self.values[(m, n)]
        except KeyError:
            raise CoverageError(
                f"entry ({m}, {n}) beyond table level {self.max_level}"
            ) from None

    # -- documents ----------------------------------------------------------

    def to_document(self) -> dict:
        entries = [
            {"m": m, "n": n, "re": v.real, "im": v.imag}
            for (m, n), v in sorted(self.values.items())
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
    f(m, n) = sum of w * z^n * conj(z)^m. Hermitian symmetry is exact."""
    cleaned = []
    for z, w in atoms:
        if not w > 0:
            raise ValueError(f"atom weight must be positive, got {w}")
        cleaned.append((complex(z), float(w)))
    values: dict = {}
    powers = []
    for z, w in cleaned:
        zp = [1.0 + 0.0j]
        cp = [1.0 + 0.0j]
        zc = z.conjugate()
        for _ in range(max_level):
            zp.append(zp[-1] * z)
            cp.append(cp[-1] * zc)
        powers.append((zp, cp, w))
    for m in range(max_level + 1):
        for n in range(max_level + 1):
            # group the powers before the real scaling: conjugation then
            # commutes exactly through every operation, so the table is
            # Hermitian to the last bit
            values[(m, n)] = sum((zp[n] * cp[m]) * w for zp, cp, w in powers)
    return ComplexMomentFunction(max_level, values)


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
    is read off the dense table by fancy indexing.
    """
    if level is None:
        level = f.max_level // 2
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if 2 * level > f.max_level:
        raise CoverageError(
            f"level {level} needs entries up to {2 * level} > {f.max_level}"
        )
    span = range(2 * level + 1)
    table = np.array([[f.values[(m, n)] for n in span] for m in span])
    # elements ordered (m, n) for m, then n, in 0..level
    ms = np.repeat(np.arange(level + 1), level + 1)
    ns = np.tile(np.arange(level + 1), level + 1)
    kernel = table[ns[:, None] + ms[None, :], ms[:, None] + ns[None, :]]
    return psd_check(kernel, tol)


def diagonal_growth_bound(
    f: ComplexMomentFunction, element: SemigroupElement
) -> GrowthBound:
    """Largest 2n-th root of f(s^n (s*)^n) over the n the table affords.

    The products s^n (s*)^n sit on the diagonal of the table, so the entries
    are real for a Hermitian f; negative values (non-PSD data) are clamped
    to zero and flagged.
    """
    element = SemigroupElement(*element)
    step = element.m + element.n
    if step == 0:
        root = float(f.value((0, 0)).real) ** 0.5
        return GrowthBound(value=root, n_used=1, per_power=(root,))
    n_used = f.max_level // step
    if n_used < 1:
        raise CoverageError(
            f"table level {f.max_level} cannot reach s s* for s=({element.m}, {element.n})"
        )
    per = []
    clamped = False
    for n in range(1, n_used + 1):
        k = n * step
        value = float(f.value((k, k)).real)
        if value < 0.0:
            clamped = True
            value = 0.0
        per.append(value ** (1.0 / (2 * n)))
    return GrowthBound(
        value=max(per), n_used=n_used, per_power=tuple(per), clamped=clamped
    )


def disc_check(
    f: ComplexMomentFunction,
    radius: float,
    constant: float,
    tol: float | None = None,
) -> CheckReport:
    """Disc criterion: the kernel is PSD at the maximal coverable level and
    the diagonal obeys f(n, n) <= constant * radius^(2n) for every stored n.
    A given ``tol`` applies to both; with None each part uses its default."""
    if radius <= 0 or constant <= 0:
        raise ValueError("radius and constant must be positive")
    verdict = psd_kernel_check(f, tol=tol)
    if tol is None:
        peak = max(abs(v) for v in f.values.values())
        tol = 1e-9 * (1.0 + peak)
    violations = []
    if not verdict.is_psd:
        violations.append(
            Violation(
                description=f"kernel not PSD at level {f.max_level // 2}",
                value=verdict.min_eigenvalue,
            )
        )
    diagonal = []
    for n in range(f.max_level + 1):
        value = float(f.value((n, n)).real)
        limit = constant * radius ** (2 * n)
        diagonal.append({"n": n, "value": value, "limit": limit})
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
    return CheckReport.build(
        violations, attempted=1 + f.max_level + 1, skipped=0, details=details
    )


__all__ = [
    "ComplexMomentFunction",
    "SemigroupElement",
    "complex_atoms_from_document",
    "diagonal_growth_bound",
    "disc_check",
    "from_complex_atoms",
    "psd_kernel_check",
]
