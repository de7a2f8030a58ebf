"""Shared fixtures: hand-derivable measures plus seeded random corpora."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from momint import CheckReport, MeasureSpec, Polynomial, Violation, from_measure

CORPUS_SEED = 20260808
#: working precision of the mpmath eigenvalue oracle
ORACLE_DPS = 50


@pytest.fixture(scope="session")
def lebesgue01():
    """Uniform on [0, 1], moments 1/(k+1) through degree 10."""
    return from_measure(MeasureSpec(box=([[0.0, 1.0]], 6)), 10)


@pytest.fixture(scope="session")
def lebesgue01_deep():
    """Uniform on [0, 1] stored through degree 16 (eight even powers)."""
    return from_measure(MeasureSpec(box=([[0.0, 1.0]], 9)), 16)


@pytest.fixture(scope="session")
def two_atoms():
    """Atoms at -1 and 1, weight 1/2 each, stored through degree 16."""
    return from_measure(
        MeasureSpec(atoms=[((-1.0,), 0.5), ((1.0,), 0.5)]), 16
    )


@pytest.fixture(scope="session")
def dirac3():
    """Point mass at t = 3."""
    return from_measure(MeasureSpec(atoms=[((3.0,), 1.0)]), 8)


@pytest.fixture(scope="session")
def circle4():
    """Four atoms at (+-2, 0), (0, +-2): the square sum is constantly 4."""
    atoms = [
        ((2.0, 0.0), 0.25),
        ((-2.0, 0.0), 0.25),
        ((0.0, 2.0), 0.25),
        ((0.0, -2.0), 0.25),
    ]
    return from_measure(MeasureSpec(atoms=atoms), 8)


def random_atom_spec(rng, dim: int, low: float = -2.0, high: float = 2.0) -> MeasureSpec:
    """Up to three well-separated equal-weight atoms in [low, high]^dim.

    Equal weights keep the truncation gap of the growth estimate within the
    acceptance tolerance: the gap scales like c_max * (1 - w**(1/(2 n))), so
    a tiny weight on the extreme atom would dominate it.
    """
    k = int(rng.integers(1, 4))
    while True:
        pts = rng.uniform(low, high, size=(k, dim))
        if k == 1:
            break
        dists = [
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(k)
            for j in range(i + 1, k)
        ]
        if min(dists) > 0.1:
            break
    return MeasureSpec(atoms=[(tuple(p), 1.0 / k) for p in pts])


@pytest.fixture(scope="session")
def atom_corpus():
    """Twenty random atomic measures, dimensions cycling 1..3, degree 24."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for i in range(20):
        dim = i % 3 + 1
        spec = random_atom_spec(rng, dim)
        out.append((spec, from_measure(spec, 24)))
    return out


@pytest.fixture(scope="session")
def unit_box_corpus():
    """Ten random atomic measures inside [0, 1]^dim, degree 12."""
    rng = np.random.default_rng(CORPUS_SEED + 1)
    out = []
    for i in range(10):
        dim = i % 3 + 1
        spec = random_atom_spec(rng, dim, low=0.0, high=1.0)
        out.append((spec, from_measure(spec, 12)))
    return out


@pytest.fixture(scope="session")
def complex_corpus():
    """Ten random complex atom sets with equal weights, level 8."""
    rng = np.random.default_rng(CORPUS_SEED + 2)
    out = []
    for _ in range(10):
        k = int(rng.integers(1, 4))
        zs = rng.uniform(-1.0, 1.0, size=(k, 2)) * 1.5
        atoms = [(complex(z[0], z[1]), 1.0 / k) for z in zs]
        out.append(atoms)
    return out


@pytest.fixture(scope="session")
def operator_corpus():
    """Twenty random symmetric 6x6 operators with separated spectra and a
    fixed probe vector overlapping every eigenvector."""
    rng = np.random.default_rng(CORPUS_SEED + 3)
    h = np.ones(6) / np.sqrt(6.0)
    out = []
    while len(out) < 20:
        raw = rng.uniform(-0.5, 0.5, size=(6, 6))
        t = raw + raw.T
        eigenvalues, eigenvectors = np.linalg.eigh(t)
        if np.min(np.diff(eigenvalues)) < 0.05:
            continue
        overlaps = (eigenvectors.T @ h) ** 2
        if np.min(overlaps) < 1e-3:
            continue
        out.append((t, h))
    return out


def _mp_eigenvalues(matrix) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric or complex Hermitian matrix
    from mpmath's own eigensolvers at ORACLE_DPS digits; shares no code with
    the LAPACK routine under test."""
    a = np.asarray(matrix)
    with mp.workdps(ORACLE_DPS):
        solve = mp.eighe if np.iscomplexobj(a) else mp.eigsy
        values = solve(mp.matrix(a.tolist()), eigvals_only=True)
        return np.array(sorted(float(v) for v in values))


@pytest.fixture
def mp_eigenvalues():
    """The independent eigenvalue oracle, as a function of a matrix."""
    return _mp_eigenvalues


def polynomial_identity_suite() -> CheckReport:
    """Exact verification, over the rationals, of the two expansion identities
    the interval and cone checks rely on.

    In the polynomial ring Q[m, a]:
    (i)  (m - a)(m + a)^2 + (m + a)(m - a)^2 = 2m(m^2 - a^2);
    (ii) for each n in {2, 3, 4, 5}, the double binomial sum
         sum_{j,k=0..n} [ (j^2 + k^2)(2m)^2 / (n(n-1)) - 2jk(2m)^2 / n^2 ]
         * C(n,j) C(n,k) (m+a)^j (m-a)^(n-j) (m-a)^k (m+a)^(n-k)
         equals (2m)^(2n) 4a^2 + (2m)^(2n+1)/(n-1) (m+a)
                + (2m)^(2n+1)/(n-1) (m-a).

    Any mismatch is a defect: these are theorems, not estimates, so no
    tolerance is involved.
    """
    m = Polynomial.variable(2, 0, Fraction(1))
    a = Polynomial.variable(2, 1, Fraction(1))
    violations = []
    details = []

    plus = m + a
    minus = m - a
    lhs = minus * plus**2 + plus * minus**2
    rhs = (m * (m**2 - a**2)) * Fraction(2)
    details.append({"identity": "two-sided interval composite", "exact": lhs == rhs})
    if lhs != rhs:
        violations.append(
            Violation(description="interval composite identity failed", value=float("nan"))
        )

    two_m = m * Fraction(2)
    for n in range(2, 6):
        total = Polynomial.zero(2)
        for j in range(n + 1):
            for k in range(n + 1):
                coeff = Fraction(4 * (j * j + k * k), n * (n - 1)) - Fraction(
                    8 * j * k, n * n
                )
                coeff *= math.comb(n, j) * math.comb(n, k)
                if coeff == 0:
                    continue
                total = total + (m * m) * plus ** (j + n - k) * minus ** (n - j + k) * coeff
        rhs = (
            two_m ** (2 * n) * (a * a) * Fraction(4)
            + two_m ** (2 * n + 1) * plus * Fraction(1, n - 1)
            + two_m ** (2 * n + 1) * minus * Fraction(1, n - 1)
        )
        exact = total == rhs
        details.append({"identity": f"binomial square certificate n={n}", "exact": exact})
        if not exact:
            violations.append(
                Violation(
                    description=f"binomial square certificate failed at n={n}",
                    value=float("nan"),
                )
            )
    return CheckReport(tuple(violations), len(details), 0, tuple(details))


@pytest.fixture
def identity_suite():
    """The exact identity suite, as a function returning its CheckReport."""
    return polynomial_identity_suite
