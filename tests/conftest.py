"""Shared fixtures: hand-derivable measures plus seeded random corpora."""

from __future__ import annotations

import numpy as np
import pytest
from mpmath import mp

from momint import MeasureSpec, from_measure

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
