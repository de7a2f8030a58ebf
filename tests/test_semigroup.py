import numpy as np
import pytest

from momint.exceptions import CoverageError
from momint.semigroup import (
    ComplexMomentFunction,
    SemigroupElement,
    complex_atoms_from_document,
    diagonal_growth_bound,
    disc_check,
    from_complex_atoms,
    psd_kernel_check,
)


def test_star_swaps_components():
    assert SemigroupElement(1, 0).star == SemigroupElement(0, 1)
    assert SemigroupElement(2, 2).star == SemigroupElement(2, 2)


def test_star_respects_products():
    s = SemigroupElement(1, 0)
    t = SemigroupElement(0, 1)
    assert (s * t).star == s * t  # (1, 1) is a fixed point
    assert (s * t) == SemigroupElement(1, 1)


def test_characters_are_conjugated_by_star():
    # character z -> z^n conj(z)^m; star must implement alpha(s*) = conj(alpha(s))
    z = complex(0.3, -1.1)

    def character(element):
        return z**element.n * z.conjugate() ** element.m

    for s in [SemigroupElement(m, n) for m in range(3) for n in range(3)]:
        assert character(s.star) == character(s).conjugate()


def test_from_atoms_single_imaginary_point():
    f = from_complex_atoms([(1j, 1.0)], 2)
    # f(m, n) = z^n conj(z)^m with z = i
    assert f.value((1, 0)) == -1j
    assert f.value((0, 1)) == 1j
    assert f.value((1, 1)) == 1.0 + 0j


def test_from_atoms_real_points_give_symmetric_table():
    f = from_complex_atoms([(0.7 + 0j, 0.5), (-0.2 + 0j, 0.5)], 4)
    assert not f.table.imag.any()
    assert np.array_equal(f.table.T, f.table)


def test_from_atoms_plus_minus_one():
    f = from_complex_atoms([(1.0 + 0j, 0.5), (-1.0 + 0j, 0.5)], 3)
    m, n = np.indices(f.table.shape)
    assert np.array_equal(f.table, np.where((m + n) % 2, 0.0, 1.0) + 0j)


def test_hermitian_symmetry_exact(complex_corpus):
    for atoms in complex_corpus:
        f = from_complex_atoms(atoms, 6)
        assert np.array_equal(f.table.T, f.table.conj())


def dict_loop_table(atoms, max_level):
    """Reference for from_complex_atoms in Python complex scalars: f(m, n)
    sums (z^n * conj(z)^m) * complex(w, 0) over the atoms in order, from 0j,
    with the powers formed by repeated multiplication."""
    powers = []
    for z, w in atoms:
        zp, cp = [1.0 + 0.0j], [1.0 + 0.0j]
        for _ in range(max_level):
            zp.append(zp[-1] * z)
            cp.append(cp[-1] * z.conjugate())
        powers.append((zp, cp, complex(w, 0.0)))
    span = range(max_level + 1)
    table = {}
    for m in span:
        for n in span:
            total = complex(0.0, 0.0)
            for zp, cp, w in powers:
                total = total + (zp[n] * cp[m]) * w
            table[(m, n)] = total
    return np.array([[table[(m, n)] for n in span] for m in span])


def test_from_atoms_bit_identical_to_dict_loop(complex_corpus):
    rng = np.random.default_rng(41)

    def coordinate():
        return [0.0, -0.0, float(rng.uniform(-1.4, 1.4))][rng.integers(3)]

    cases = [(atoms, 8) for atoms in complex_corpus]
    for level in range(13):
        for _ in range(4):
            atoms = [
                (complex(coordinate(), coordinate()), float(rng.uniform(0.2, 1.5)))
                for _ in range(rng.integers(1, 5))
            ]
            cases.append((atoms, level))
    for atoms, level in cases:
        f = from_complex_atoms(atoms, level)
        assert f.table.tobytes() == dict_loop_table(atoms, level).tobytes()
    # overflow: the infinities and NaNs of the scalar sums, part by part
    for atoms, level in [([(1e60j, 1.0)], 7), ([(1e200 + 0j, 0.5), (0.5 - 0.5j, 0.5)], 3)]:
        got = from_complex_atoms(atoms, level).table.view(float)
        assert np.array_equal(got, dict_loop_table(atoms, level).view(float), equal_nan=True)


def test_value_validates_element_and_table_is_read_only():
    f = from_complex_atoms([(0.5 + 0.2j, 1.0)], 2)
    assert f.value((1, 2)) == f.table[1, 2]
    with pytest.raises(ValueError):
        f.value((0.5, 0))
    with pytest.raises(ValueError):
        f.value((-1, 0))
    with pytest.raises(CoverageError):
        f.value((3, 0))
    for table in (f.table, ComplexMomentFunction.from_document(f.to_document()).table):
        with pytest.raises(ValueError):
            table[0, 0] = 2.0


def test_psd_kernel_rank_one():
    f = from_complex_atoms([(0.5 + 0j, 1.0)], 4)
    verdict = psd_kernel_check(f, level=2)
    assert verdict.is_psd


def test_psd_kernel_two_imaginary_atoms():
    f = from_complex_atoms([(0.5j, 0.5), (-0.5j, 0.5)], 4)
    assert psd_kernel_check(f, level=2).is_psd


def test_psd_kernel_detects_negative_diagonal():
    values = {(m, n): 0.0 + 0.0j for m in range(3) for n in range(3)}
    values[(0, 0)] = 1.0 + 0j
    values[(1, 1)] = -1.0 + 0j
    f = ComplexMomentFunction(2, values)
    assert not psd_kernel_check(f, level=1).is_psd


def test_psd_kernel_passes_on_corpus(complex_corpus):
    for atoms in complex_corpus:
        f = from_complex_atoms(atoms, 8)
        for level in range(f.max_level // 2 + 1):
            assert psd_kernel_check(f, level=level).is_psd


def test_psd_kernel_against_mpmath(mp_eigenvalues):
    rng = np.random.default_rng(23)
    atoms = [
        (complex(*rng.uniform(-0.9, 0.9, size=2)), float(rng.uniform(0.2, 1.0)))
        for _ in range(4)
    ]
    psd = from_complex_atoms(atoms, 8)
    # a signed table: the last atom enters with a negative weight
    negative = from_complex_atoms(atoms[-1:], 8)
    signed = ComplexMomentFunction(
        8, {k: psd.value(k) - 1.5 * negative.value(k) for k in np.ndindex(9, 9)}
    )
    elements = [SemigroupElement(m, n) for m in range(5) for n in range(5)]
    for f, expected in ((psd, True), (signed, False)):
        verdict = psd_kernel_check(f)
        # the kernel H[s, t] = f(s* t), built element by element
        oracle = mp_eigenvalues([[f.value(s.star * t) for t in elements] for s in elements])[0]
        scale = 1.0 + float(np.abs(f.table).max())
        assert abs(verdict.min_eigenvalue - oracle) <= 1e-12 * scale
        assert verdict.is_psd == (oracle >= -verdict.tolerance_used) == expected


def test_psd_kernel_level_coverage_error():
    f = from_complex_atoms([(0.5 + 0j, 1.0)], 2)
    with pytest.raises(CoverageError):
        psd_kernel_check(f, level=2)
    with pytest.raises(ValueError):
        psd_kernel_check(f, level=-1)


def test_diagonal_growth_half_atom():
    f = from_complex_atoms([(0.5 + 0j, 1.0)], 8)
    gb = diagonal_growth_bound(f, SemigroupElement(0, 1))
    # f(n, n) = |z|^(2n) = 4^(-n)
    assert all(abs(p - 0.5) <= 1e-12 for p in gb.per_power)
    assert abs(gb.value - 0.5) <= 1e-12


def test_diagonal_growth_large_atom():
    f = from_complex_atoms([(2.0 + 0j, 1.0)], 8)
    assert abs(diagonal_growth_bound(f, SemigroupElement(0, 1)).value - 2.0) <= 1e-12


def test_diagonal_growth_neutral_element():
    f = from_complex_atoms([(0.3 + 0.4j, 1.0)], 4)
    assert diagonal_growth_bound(f, SemigroupElement(0, 0)).value == 1.0


def test_diagonal_growth_approaches_max_modulus(complex_corpus):
    for atoms in complex_corpus:
        target = max(abs(z) for z, _ in atoms)
        shallow = from_complex_atoms(atoms, 4)
        deep = from_complex_atoms(atoms, 8)
        s = SemigroupElement(0, 1)
        low = diagonal_growth_bound(shallow, s).value
        high = diagonal_growth_bound(deep, s).value
        assert low <= high + 1e-12
        assert high <= target + 1e-12


def test_disc_check_examples():
    half = from_complex_atoms([(0.5 + 0j, 1.0)], 6)
    assert disc_check(half, radius=0.5, constant=1.0).passed

    unit = from_complex_atoms([(1.0 + 0j, 1.0)], 6)
    report = disc_check(unit, radius=0.5, constant=1.0)
    assert not report.passed
    assert any("n=1" in v.description for v in report.violations)

    origin = from_complex_atoms([(0.0 + 0j, 1.0)], 6)
    assert disc_check(origin, radius=0.3, constant=1.0).passed

    # f(2, 2) = 1e4 exceeds its limit by 1e-8: inside the default diagonal
    # tolerance 1e-9 * (1 + largest |entry|), which scales with the table
    large = from_complex_atoms([(10.0 + 0j, 1.0)], 2)
    assert disc_check(large, radius=10.0, constant=1.0 - 1e-12).passed
    assert not disc_check(large, radius=10.0, constant=1.0 - 1e-12, tol=1e-9).passed


def test_disc_check_tolerance_applies_to_kernel():
    psd = from_complex_atoms([(0.3 + 0.1j, 0.5), (-0.2 + 0.3j, 0.5)], 4)
    negative = from_complex_atoms([(0.4j, 1.0)], 4)
    signed = ComplexMomentFunction(
        4, {k: psd.value(k) - 1e-3 * negative.value(k) for k in np.ndindex(5, 5)}
    )
    min_eigenvalue = psd_kernel_check(signed).min_eigenvalue
    assert -1e-3 < min_eigenvalue < -1e-6
    loose = disc_check(signed, radius=0.5, constant=1.0, tol=1e-2)
    assert loose.passed and loose.details[0]["kernel_psd"]
    default = disc_check(signed, radius=0.5, constant=1.0)
    assert not default.passed and not default.details[0]["kernel_psd"]


def test_disc_check_rejects_bad_parameters():
    f = from_complex_atoms([(0.5 + 0j, 1.0)], 4)
    with pytest.raises(ValueError):
        disc_check(f, radius=-1.0, constant=1.0)


def test_cauchy_bunyakovsky_chain(complex_corpus):
    # squared mixed diagonal values dominated by the product of pure ones
    for atoms in complex_corpus:
        f = from_complex_atoms(atoms, 8)
        elements = [SemigroupElement(0, 1), SemigroupElement(1, 1), SemigroupElement(0, 2)]
        for s in elements:
            for t in elements:
                for n in range(1, 3):
                    for m in range(1, 3):
                        ks = n * (s.m + s.n)
                        kt = m * (t.m + t.n)
                        if ks + kt > f.max_level or 2 * ks > f.max_level or 2 * kt > f.max_level:
                            continue
                        mixed = f.value((ks + kt, ks + kt)).real
                        lhs = mixed * mixed
                        rhs = f.value((2 * ks, 2 * ks)).real * f.value((2 * kt, 2 * kt)).real
                        assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


def test_table_ingest_validation():
    with pytest.raises(CoverageError):
        ComplexMomentFunction(1, {(0, 0): 1.0 + 0j})
    with pytest.raises(ValueError, match="conjugate"):
        ComplexMomentFunction(1, {
            (0, 0): 1.0 + 0j, (1, 1): 1.0 + 0j,
            (0, 1): 1.0 + 1.0j, (1, 0): 1.0 + 1.0j,
        })
    with pytest.raises(ValueError, match="positive"):
        ComplexMomentFunction(0, {(0, 0): -1.0 + 0j})


def test_document_round_trip():
    f = from_complex_atoms([(0.2 + 0.3j, 0.5), (-0.4 - 0.1j, 0.5)], 4)
    doc = f.to_document()
    back = ComplexMomentFunction.from_document(doc)
    assert back.max_level == 4
    assert back.table.tobytes() == f.table.tobytes()
    upper = [e for e in doc["values"] if e["m"] <= e["n"]]
    mirrored = ComplexMomentFunction.from_document({"max_level": 4, "values": upper})
    assert np.array_equal(mirrored.table, f.table)

    atoms_doc = {
        "max_level": 3,
        "atoms": [{"re": 0.5, "im": -0.25, "weight": 1.0}],
    }
    atoms, level = complex_atoms_from_document(atoms_doc)
    assert atoms == [(0.5 - 0.25j, 1.0)] and level == 3
    with pytest.raises(ValueError):
        complex_atoms_from_document({"atoms": []})
