import math

import numpy as np
import pytest

from momint.exceptions import NotPsdError, RankDeficiencyError
from momint.linalg import (
    SymMatrix,
    pencil_extremes,
    pencil_whitened,
    psd_check,
    range_whitener,
    sym_eig,
)
from momint.policy import relative_tol


def test_symmetrized_on_ingest():
    m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert m.data[0, 1] == m.data[1, 0] == 1.0
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0, 3.0]])


def test_identity_eigenvalues():
    d = sym_eig(np.eye(3))
    assert np.allclose(d.eigenvalues, [1.0, 1.0, 1.0], atol=0)


def test_reflection_eigenvalues():
    d = sym_eig([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_hilbert_2x2_eigenvalues():
    # roots of l^2 - (4/3) l + 1/12
    disc = math.sqrt((4.0 / 3.0) ** 2 - 4.0 / 12.0)
    expected = sorted([(4.0 / 3.0 - disc) / 2.0, (4.0 / 3.0 + disc) / 2.0])
    d = sym_eig([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert np.allclose(d.eigenvalues, expected, atol=1e-12)


def test_eigendecomposition_invariants_random(mp_eigenvalues):
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 20, 40):
        raw = rng.normal(size=(n, n))
        a = raw + raw.T
        d = sym_eig(a)
        scale = 1.0 + np.max(np.abs(a))
        recon = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
        assert np.max(np.abs(a - recon)) <= 1e-10 * scale
        gram = d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
        assert np.all(np.diff(d.eigenvalues) >= -1e-15)
        assert np.max(np.abs(d.eigenvalues - mp_eigenvalues(a))) <= 1e-10 * scale


def test_sym_eig_rejects_non_finite():
    with pytest.raises(ValueError):
        sym_eig([[np.inf, 0.0], [0.0, 1.0]])


def test_hermitian_input_stays_complex():
    h = SymMatrix([[2.0, 1.0 + 1.0j], [0.0, 2.0]]).data
    assert h.dtype == complex
    assert h[0, 1] == 0.5 + 0.5j and h[1, 0] == 0.5 - 0.5j
    # eigenvalues 2 -+ |h01| = 2 -+ 1/sqrt(2)
    d = sym_eig(h)
    assert np.allclose(d.eigenvalues, [2.0 - 0.5**0.5, 2.0 + 0.5**0.5], atol=1e-14)
    # a complex entry counts with max(|Re|, |Im|), the largest entry of the
    # equivalent real form [[Re, -Im], [Im, Re]]
    assert relative_tol([[1.0, -3.0j], [3.0j, 1.0]]) == 1e-9 * (1.0 + 3.0)


def test_psd_examples():
    v = psd_check([[1.0, 0.0], [0.0, 0.0]])
    assert v.is_psd and abs(v.min_eigenvalue) <= 1e-15

    v = psd_check([[0.0, 1.0], [1.0, 0.0]])
    assert not v.is_psd and abs(v.min_eigenvalue + 1.0) <= 1e-14

    # det = 1/72 > 0 and positive trace
    v = psd_check([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
    assert v.is_psd and v.min_eigenvalue > 0


def test_psd_verdict_consistency():
    v = psd_check([[1e-12, 0.0], [0.0, 1.0]], tol=0.0)
    assert v.is_psd == (v.min_eigenvalue >= -v.tolerance_used)
    with pytest.raises(ValueError):
        psd_check(np.eye(2), tol=-1.0)


def test_pencil_identity_base_matches_sym_eig():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(6, 6))
    a = raw + raw.T
    lo, hi, rank = pencil_extremes(a, sym_eig(np.eye(6)))
    d = sym_eig(a)
    assert rank == 6
    assert abs(lo - d.eigenvalues[0]) <= 1e-10
    assert abs(hi - d.eigenvalues[-1]) <= 1e-10


def test_pencil_two_point_rule():
    a = [[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]]
    b = [[1.0, 0.5], [0.5, 1.0 / 3.0]]
    lo, hi, rank = pencil_extremes(a, sym_eig(b))
    assert rank == 2
    assert abs(lo - (3.0 - math.sqrt(3.0)) / 6.0) <= 1e-12
    assert abs(hi - (3.0 + math.sqrt(3.0)) / 6.0) <= 1e-12


def test_pencil_proportional():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(4, 4))
    b = raw @ raw.T + np.eye(4)
    lo, hi, rank = pencil_extremes(2.0 * b, sym_eig(b))
    assert rank == 4
    assert abs(lo - 2.0) <= 1e-10 and abs(hi - 2.0) <= 1e-10


def test_pencil_scaling_invariance():
    rng = np.random.default_rng(17)
    for _ in range(5):
        raw = rng.normal(size=(5, 5))
        a = raw + raw.T
        rb = rng.normal(size=(5, 5))
        b = rb @ rb.T
        base = pencil_extremes(a, sym_eig(b))
        for s in (1e-3, 7.0, 1e4):
            scaled = pencil_extremes(s * a, sym_eig(s * b))
            assert abs(scaled[0] - base[0]) <= 1e-10 * (1.0 + abs(base[0]))
            assert abs(scaled[1] - base[1]) <= 1e-10 * (1.0 + abs(base[1]))
            assert scaled[2] == base[2]


def test_pencil_shift_invariance():
    rng = np.random.default_rng(19)
    for _ in range(5):
        raw = rng.normal(size=(5, 5))
        a = raw + raw.T
        rb = rng.normal(size=(5, 5))
        b = rb @ rb.T
        base = pencil_extremes(a, sym_eig(b))
        for c in (-3.0, 0.25, 10.0):
            shifted = pencil_extremes(a + c * b, sym_eig(b))
            assert abs(shifted[0] - (base[0] + c)) <= 1e-9 * (1.0 + abs(base[0] + c))
            assert abs(shifted[1] - (base[1] + c)) <= 1e-9 * (1.0 + abs(base[1] + c))


def test_pencil_deflates_singular_base():
    # rank-1 base: Rayleigh values collapse to a point evaluation
    phi = np.array([1.0, 3.0])
    b = np.outer(phi, phi)
    a = 3.0 * b
    lo, hi, rank = pencil_extremes(a, sym_eig(b))
    assert rank == 1
    assert abs(lo - 3.0) <= 1e-12 and abs(hi - 3.0) <= 1e-12


def test_pencil_rejects_indefinite_base():
    with pytest.raises(NotPsdError):
        pencil_extremes(np.eye(2), sym_eig([[1.0, 0.0], [0.0, -1.0]]))


def test_pencil_rejects_zero_base():
    with pytest.raises(RankDeficiencyError):
        pencil_extremes(np.eye(2), sym_eig(np.zeros((2, 2))))


def test_pencil_rejects_decomposition_of_wrong_order():
    with pytest.raises(ValueError, match="does not match"):
        pencil_extremes(np.eye(3), sym_eig(np.eye(2)))
    with pytest.raises(ValueError, match="does not match"):
        pencil_extremes(np.eye(2), sym_eig(np.eye(2), vectors=False))


def test_sym_matrix_normalizes_once():
    m = SymMatrix([[0.0, 2.0], [0.0, 0.0]])
    assert m.data[0, 1] == m.data[1, 0] == 1.0
    assert m.data.dtype == float and not m.data.flags.writeable
    # built from a SymMatrix it shares the data: no second symmetrization
    assert SymMatrix(m).data is m.data
    # an exactly Hermitian matrix comes back bit for bit
    rng = np.random.default_rng(59)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    hermitian = raw + raw.conj().T
    assert SymMatrix(hermitian).data.tobytes() == hermitian.tobytes()
    # non-finite entries and overflowing sums are errors, with no warning
    # (the suite turns warnings into errors)
    for bad in ([[np.inf, 0.0], [-np.inf, 1.0]], [[1.0, np.nan], [0.0, 1.0]],
                [[1.0, 1e308], [1e308, 1.0]], [[1.0, complex(np.inf, 1.0)], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            SymMatrix(bad)


def test_a_gathered_symmetric_matrix_is_the_normalized_one():
    # values[index] with a symmetric index that takes every value, as a
    # moment matrix gathers its moment vector
    rng = np.random.default_rng(61)
    index = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    values = rng.normal(size=5)
    m = SymMatrix.gathered(values, values[index])
    assert m.data.tobytes() == SymMatrix(values[index]).data.tobytes()
    assert not m.data.flags.writeable
    # the same error as the normalizer, without a warning, where the
    # symmetrization would overflow or meet a non-finite value
    for bad in (1e308, -1e308, np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            SymMatrix(np.where(index == 3, bad, values[index]))
        with pytest.raises(ValueError, match="non-finite"):
            spoiled = np.where(np.arange(5) == 3, bad, values)
            SymMatrix.gathered(spoiled, spoiled[index])


def test_eigenvalues_only_path(mp_eigenvalues):
    rng = np.random.default_rng(47)
    for n in (1, 4, 9):
        raw = rng.normal(size=(n, n))
        a = raw + raw.T
        decomp = sym_eig(a, vectors=False)
        assert decomp.eigenvectors is None
        assert np.allclose(decomp.eigenvalues, mp_eigenvalues(a), rtol=0, atol=1e-12)
    h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    assert np.allclose(sym_eig(h, vectors=False).eigenvalues, mp_eigenvalues(h), atol=1e-12)


def test_eigenvalues_only_rejects_non_finite():
    with pytest.raises(ValueError):
        sym_eig([[1.0, np.nan], [np.nan, 1.0]], vectors=False)


def test_psd_check_reads_eigenvalues_only(monkeypatch):
    def no_vectors(*args, **kwargs):
        raise AssertionError("psd_check must not compute eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_vectors)
    verdict = psd_check([[2.0, 1.0], [1.0, 2.0]])
    assert verdict.is_psd and abs(verdict.min_eigenvalue - 1.0) <= 1e-15


def test_range_whitener_compresses_to_identity():
    rng = np.random.default_rng(53)
    basis = rng.normal(size=(5, 3))
    b = basis @ basis.T  # rank 3
    w = range_whitener(sym_eig(b))
    assert w.shape == (5, 3)
    assert np.allclose(w.T @ b @ w, np.eye(3), atol=1e-10)
    assert np.array_equal(pencil_whitened(b, sym_eig(b)), w.T @ SymMatrix(b).data @ w)
    assert range_whitener(sym_eig(np.zeros((3, 3)))).shape == (3, 0)


def _hermitian(rng, n, rank=None):
    x = rng.normal(size=(n, rank or n)) + 1j * rng.normal(size=(n, rank or n))
    return x @ x.conj().T if rank else 0.5 * (x + x.conj().T)


@pytest.mark.parametrize("n, rank", [(1, 1), (3, 3), (6, 6), (8, 5), (12, 7)])
def test_complex_pencils_match_the_cholesky_route(n, rank):
    # the generalized eigenvalues of (A, B) on the range of B, taken with a
    # Cholesky factor of B compressed to an orthonormal basis of its range
    # (QR of its generating columns), not with B's eigendecomposition
    rng = np.random.default_rng(100 * n + rank)
    for _ in range(20):
        x = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        a, b = _hermitian(rng, n), x @ x.conj().T
        q = np.linalg.qr(x)[0]
        factor = np.linalg.cholesky(q.conj().T @ b @ q)
        inverse = np.linalg.inv(factor)
        want = np.linalg.eigvalsh(inverse @ (q.conj().T @ a @ q) @ inverse.conj().T)
        compressed = pencil_whitened(a, sym_eig(b))
        assert np.allclose(compressed, compressed.conj().T, atol=1e-10)
        got = sym_eig(compressed, vectors=False).eigenvalues
        scale = 1.0 + np.abs(want).max()
        assert len(got) == rank and np.allclose(got, want, atol=1e-8 * scale, rtol=0)
        lower, upper, kept = pencil_extremes(a, sym_eig(b))
        assert kept == rank
        assert abs(lower - want[0]) <= 1e-8 * scale and abs(upper - want[-1]) <= 1e-8 * scale


def test_a_real_pencil_is_compressed_to_the_same_bits():
    rng = np.random.default_rng(59)
    basis = rng.normal(size=(7, 4))
    a, b = rng.normal(size=(7, 7)), basis @ basis.T
    w = range_whitener(sym_eig(b))
    compressed = pencil_whitened(a, sym_eig(b))
    assert compressed.dtype == float
    assert compressed.tobytes() == (w.T @ SymMatrix(a).data @ w).tobytes()
