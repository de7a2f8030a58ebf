import math
from fractions import Fraction

import numpy as np
import pytest

from momint.exceptions import DegreeOverflowError
from momint.linalg import psd_check
from momint.moments import MeasureSpec, MomentSequence, from_measure, gauss_legendre
from momint.polynomials import Polynomial, enumerate_monomials


def test_gauss_legendre_integrates_monomials_exactly():
    for order in (1, 2, 3, 6, 13):
        nodes, weights = gauss_legendre(order)
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(float(weights @ nodes**k) - exact) <= 1e-13


def test_gauss_legendre_matches_numpy_leggauss():
    for order in range(1, 41):
        nodes, weights = gauss_legendre(order)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
        assert np.max(np.abs(weights - ref_weights)) <= 1e-14


def test_gauss_legendre_nodes_sorted_in_open_interval():
    nodes, weights = gauss_legendre(9)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(np.abs(nodes) < 1.0)
    assert np.all(weights > 0)


def test_symmetric_two_atoms_parity():
    seq = from_measure(MeasureSpec(atoms=[((-1.0,), 0.5), ((1.0,), 0.5)]), 4)
    assert seq.moment((0,)) == 1.0
    assert seq.moment((1,)) == 0.0
    assert seq.moment((2,)) == 1.0
    assert seq.moment((3,)) == 0.0
    assert seq.moment((4,)) == 1.0


def test_box_moments_match_analytic_integrals():
    seq = from_measure(MeasureSpec(box=([[0.0, 1.0]], 3)), 4)
    for k in range(5):
        assert abs(seq.moment((k,)) - 1.0 / (k + 1)) <= 1e-14


def test_multidim_box_moments_match_analytic_integrals():
    bounds = [[0.0, 1.0], [-1.0, 2.0]]
    seq = from_measure(MeasureSpec(box=(bounds, 5)), 8)

    def one_dim(lo, hi, e):
        return (hi ** (e + 1) - lo ** (e + 1)) / ((e + 1) * (hi - lo))

    for idx in enumerate_monomials(2, 8):
        exact = one_dim(0.0, 1.0, idx[0]) * one_dim(-1.0, 2.0, idx[1])
        assert abs(seq.moment(idx) - exact) <= 1e-12 * (1.0 + abs(exact))


def test_dirac_at_origin():
    seq = from_measure(MeasureSpec(atoms=[((0.0, 0.0), 1.0)]), 6)
    assert seq.moment((0, 0)) == 1.0
    assert all(seq.moment(k) == 0.0 for k in enumerate_monomials(2, 6) if k != (0, 0))


def test_mass_rescaled_on_ingest():
    seq = from_measure(MeasureSpec(atoms=[((2.0,), 3.0)]), 4)
    assert seq.normalized and seq.scale == 3.0
    assert seq.moment((0,)) == 1.0
    assert abs(seq.moment((1,)) - 2.0) <= 1e-15


def test_atomic_apply_matches_direct_summation():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-2.0, 2.0, size=(3, 2))
    atoms = [(tuple(p), 1.0 / 3.0) for p in pts]
    seq = from_measure(MeasureSpec(atoms=atoms), 8)
    for _ in range(20):
        terms = {
            tuple(rng.integers(0, 3, size=2)): float(rng.normal())
            for _ in range(4)
        }
        p = Polynomial(2, terms)
        direct = sum(w * p.evaluate(list(pt)) for pt, w in atoms)
        assert abs(seq.apply(p) - direct) <= 1e-12 * (1.0 + abs(direct))


def test_apply_examples(lebesgue01, two_atoms):
    t = Polynomial.variable(1, 0)
    assert abs(lebesgue01.apply(6.0 * t * t - 6.0 * t + 1.0)) <= 1e-14
    assert lebesgue01.apply(Polynomial.constant(1, 1.0)) == 1.0
    assert abs(two_atoms.apply(1.0 - t * t)) <= 1e-15


def test_apply_degree_overflow(lebesgue01):
    t = Polynomial.variable(1, 0)
    with pytest.raises(DegreeOverflowError):
        lebesgue01.apply(t**11)


def test_moment_matrix_examples(lebesgue01, two_atoms):
    t = Polynomial.variable(1, 0)
    m = lebesgue01.moment_matrix(1).matrix.data
    assert np.allclose(m, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-14)
    m = lebesgue01.moment_matrix(1, t).matrix.data
    assert np.allclose(m, [[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]], atol=1e-14)
    m = two_atoms.moment_matrix(1, t).matrix.data
    assert np.allclose(m, [[0.0, 1.0], [1.0, 0.0]], atol=0)


def test_moment_matrix_returns_one_matrix_per_order_and_shift_value():
    seq = from_measure(MeasureSpec(atoms=[((0.5, -0.2), 0.7), ((-0.3, 0.4), 0.3)]), 8)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    shift = x * 0.1 + y * 0.2 + 0.3
    matrix = seq.moment_matrix(2, shift)
    assert seq.moment_matrix(2, 0.3 + y * 0.2 + x * 0.1) is matrix
    assert seq.moment_matrix(2, Polynomial(2, dict(reversed(shift.terms.items())))) is matrix
    assert seq.moment_matrix(1, shift) is not matrix
    plain = seq.moment_matrix(2)
    ones = [Polynomial.constant(2, 1.0), Polynomial(2, {(0, 0): 1}),
            Polynomial(2, {(0, 0): Fraction(1)}), Polynomial(2, {(0, 0): np.float64(1.0)}),
            (x + 1.0) - x]
    assert all(seq.moment_matrix(2, one) is plain for one in ones)
    assert seq.moment_matrix(2, Polynomial.constant(2, 1.0 + 2.0**-52)) is not plain
    assert seq.moment_matrix(1) is not plain


def test_moment_matrix_budget(lebesgue01):
    t = Polynomial.variable(1, 0)
    with pytest.raises(DegreeOverflowError):
        lebesgue01.moment_matrix(5, t)
    lebesgue01.moment_matrix(4, t)  # 2*4 + 1 <= 10 fits


def test_hankel_structure():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1.0, 1.0, size=(3, 2))
    seq = from_measure(MeasureSpec(atoms=[(tuple(p), 1 / 3) for p in pts]), 8)
    shift = Polynomial.variable(2, 0) + 2.0
    data = seq.moment_matrix(2, shift).matrix.data
    basis = enumerate_monomials(2, 2)
    assert data.shape == (len(basis), len(basis))
    by_sum = {}
    for i, alpha in enumerate(basis):
        for j, beta in enumerate(basis):
            key = tuple(a + b for a, b in zip(alpha, beta))
            by_sum.setdefault(key, set()).add(round(data[i, j], 12))
    assert all(len(vals) == 1 for vals in by_sum.values())


def test_psd_check_examples(lebesgue01, mp_eigenvalues):
    verdict = psd_check(lebesgue01.moment_matrix(2).matrix)
    assert verdict.is_psd
    # independent oracle for the 3x3 Hilbert spectrum
    hilbert = np.array([[1 / (i + j + 1) for j in range(3)] for i in range(3)])
    expected = mp_eigenvalues(hilbert)[0]
    assert abs(verdict.min_eigenvalue - expected) <= 1e-10

    bad = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})
    assert not psd_check(bad.moment_matrix(1).matrix).is_psd


def test_measure_outputs_always_psd(atom_corpus, lebesgue01):
    for order in range(lebesgue01.n_max + 1):
        assert psd_check(lebesgue01.moment_matrix(order).matrix).is_psd
    for _, seq in atom_corpus[:6]:
        for order in range(min(seq.n_max, 3) + 1):
            assert psd_check(seq.moment_matrix(order).matrix).is_psd


def test_nonnegative_shift_gives_psd_matrix(atom_corpus):
    for spec, seq in atom_corpus[:6]:
        d = seq.dimension
        # strictly positive on [-2, 2]^d, hence on every atom
        shift = Polynomial.constant(d, 1.0)
        for i in range(d):
            shift = shift + Polynomial.variable(d, i) ** 2
        assert psd_check(seq.moment_matrix(2, shift).matrix).is_psd


def test_shift_nonnegative_on_atoms_only(unit_box_corpus):
    # x1 is negative on half the ambient space but nonnegative on every atom:
    # the localized matrix is still PSD
    for _, seq in unit_box_corpus[:6]:
        shift = Polynomial.variable(seq.dimension, 0)
        assert psd_check(seq.moment_matrix(2, shift).matrix).is_psd


def test_incomplete_table_rejected():
    with pytest.raises(ValueError, match="incomplete"):
        MomentSequence(1, 4, {(0,): 1.0, (1,): 0.0})


def test_non_finite_moment_rejected():
    with pytest.raises(ValueError, match=r"non-finite moment at \(1,\)"):
        MomentSequence(1, 2, {(0,): 1.0, (1,): math.nan, (2,): 1.0})
    with pytest.raises(ValueError, match=r"non-finite moment at \(2,\)"):
        MomentSequence._from_dense(1, 2, np.array([1.0, 0.5, math.inf]))


@pytest.mark.parametrize("atoms, box", [
    ([((math.inf, 0.0), 1.0)], None),
    ([((0.0, math.nan), 1.0)], None),
    ([((0.0, 0.5), math.inf)], None),
    (None, ([[0.0, math.inf]], 4)),
    (None, ([[-math.inf, 0.0], [0.0, 1.0]], 4)),
])
def test_measure_spec_rejects_non_finite_input(atoms, box):
    with pytest.raises(ValueError, match="not finite"):
        MeasureSpec(atoms=atoms, box=box)


def test_atom_powers_beyond_the_float_range_are_rejected():
    with pytest.raises(ValueError, match="overflow"):
        from_measure(MeasureSpec(atoms=[((1e308,), 1.0)]), 4)


def test_apply_rejects_a_non_finite_value():
    seq = MomentSequence(1, 2, {(0,): 1.0, (1,): 0.0, (2,): 1e300})
    big = 1e200 * Polynomial.variable(1, 0)
    # the command line runs every command under this errstate; apply itself
    # sets none, because it runs hundreds of times per command
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        seq.apply(big, big)
    assert math.isclose(seq.apply(1e4 * Polynomial.variable(1, 0), Polynomial.variable(1, 0)), 1e304)


def test_odd_max_degree_rejected():
    with pytest.raises(ValueError):
        MomentSequence(1, 3, {(k,): 1.0 for k in range(4)})


def test_box_order_too_small():
    with pytest.raises(ValueError, match="order"):
        from_measure(MeasureSpec(box=([[0.0, 1.0]], 3)), 8)


def test_document_round_trip(lebesgue01):
    doc = lebesgue01.to_document()
    assert doc["dimension"] == 1 and doc["max_degree"] == 10
    back = MomentSequence.from_document(doc)
    assert back.y.tolist() == lebesgue01.y.tolist()

    spec = MeasureSpec(atoms=[((1.0, 2.0), 0.5), ((0.0, 0.0), 0.5)])
    again = MeasureSpec.from_document(spec.to_document())
    assert again.atoms == spec.atoms

    box = MeasureSpec(box=([[0.0, 1.0]], 4))
    assert MeasureSpec.from_document(box.to_document()).box == box.box


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        MomentSequence.from_document({"dimension": 1})
    with pytest.raises(ValueError):
        MeasureSpec.from_document({})
    with pytest.raises(ValueError):
        MeasureSpec(atoms=[((0.0,), -1.0)])
    with pytest.raises(ValueError):
        MeasureSpec(box=([[1.0, 1.0]], 3))


def test_fractional_exponent_rejected():
    # int() would truncate (1.5, 0) to (1, 0) and overwrite that moment
    values = {idx: 1.0 for idx in enumerate_monomials(2, 2)}
    values[(1.5, 0)] = 7.0
    with pytest.raises(ValueError, match="bad multi-index"):
        MomentSequence(2, 2, values)


def test_non_numeric_and_infinite_exponents_rejected():
    base = {idx: 1.0 for idx in enumerate_monomials(1, 2)}
    for key in [("1",), (math.inf,), (math.nan,), (-1,), (0, 0)]:
        with pytest.raises(ValueError, match="bad multi-index"):
            MomentSequence(1, 2, {**base, key: 1.0})


def test_repeated_document_index_rejected():
    moments = [{"index": list(idx), "value": 1.0} for idx in enumerate_monomials(2, 2)]
    for repeat in ([1, 0], [1.0, 0]):
        doc = {"dimension": 2, "max_degree": 2, "moments": moments + [{"index": repeat, "value": 5.0}]}
        with pytest.raises(ValueError, match="more than once"):
            MomentSequence.from_document(doc)


def test_moment_lookup_validates_index(lebesgue01):
    assert lebesgue01.moment((2,)) == lebesgue01.y[2]
    assert lebesgue01.moment([2.0]) == lebesgue01.y[2]
    for bad in [(1, 0), (-1,), (1.5,), ()]:
        with pytest.raises(ValueError):
            lebesgue01.moment(bad)
    with pytest.raises(DegreeOverflowError):
        lebesgue01.moment((11,))


# -- ingest: the pair reader's messages, and the numbers of every spelling ---


def _table_document(**changes) -> dict:
    """The d = 2, degree-2 document with moments 1 / (1 + |alpha|), with
    ``changes`` of the form ``{"<entry>_<field>": value}`` applied."""
    doc = {"dimension": 2, "max_degree": 2, "moments": [
        {"index": list(m), "value": 1.0 / (1 + sum(m))} for m in enumerate_monomials(2, 2)]}
    for name, value in changes.items():
        entry, field = name.split("_")
        doc["moments"][int(entry)][field] = value
    return doc


#: the messages of the pair-by-pair ingest, one malformed class each; each
#: names the first bad pair in list order (the test that reads them is
#: named for a bulk reader since removed)
INGEST_ERRORS = [
    (_table_document(**{"3_index": [1, 0, 0]}), "bad multi-index [1, 0, 0] for dimension 2"),
    (_table_document(**{"3_index": [1]}), "bad multi-index [1] for dimension 2"),
    (_table_document(**{"3_index": [1.5, 0]}), "bad multi-index [1.5, 0] for dimension 2"),
    (_table_document(**{"3_index": ["1", "0"]}), "bad multi-index ['1', '0'] for dimension 2"),
    (_table_document(**{"3_index": [-1, 2]}), "bad multi-index [-1, 2] for dimension 2"),
    (_table_document(**{"3_index": [3, 0]}), "index (3, 0) exceeds max_degree 2"),
    (_table_document(**{"3_value": None}), "moment value at (2, 0) must be a number, got None"),
    (_table_document(**{"3_value": "abc"}), "moment value at (2, 0) must be a number, got 'abc'"),
    (_table_document(**{"4_index": [2, 0]}), "moment index [2, 0] listed more than once"),
    ({**_table_document(), "moments": _table_document()["moments"][:-1]},
     "moment table incomplete: 5 indices listed, at least 6 needed"),
    ({**_table_document(), "max_degree": 10**30},
     "moment table incomplete: 6 indices listed, at least "
     "1000000000000000000000000000001 needed"),
    # the first bad pair in list order, whichever check it fails
    (_table_document(**{"1_value": None, "4_index": [9, 9]}),
     "moment value at (1, 0) must be a number, got None"),
    (_table_document(**{"2_index": [0.5, 0.5], "4_value": "x"}),
     "bad multi-index [0.5, 0.5] for dimension 2"),
]


@pytest.mark.parametrize("doc, message", INGEST_ERRORS)
def test_bulk_ingest_names_the_first_bad_pair_as_before(doc, message):
    with pytest.raises(ValueError) as info:
        MomentSequence.from_document(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("changes", [
    {"1_index": [1.0, 0]}, {"1_index": [True, 0]}, {"3_value": "0.5"}, {"3_value": True},
    {"3_value": 2**70}, {"0_index": [0.0, -0.0]},
])
def test_accepted_spellings_give_the_same_moments(changes):
    plain = MomentSequence.from_document(_table_document())
    spelled = MomentSequence.from_document(_table_document(**changes))
    want = plain.y.copy()
    if "3_value" in changes:
        want[3] = float(changes["3_value"])
    assert spelled.y.tobytes() == want.tobytes()


def test_ingest_in_any_order_and_from_a_mapping_gives_the_same_moments():
    doc = _table_document()
    plain = MomentSequence.from_document(doc)
    shuffled = {**doc, "moments": doc["moments"][::-1]}
    assert MomentSequence.from_document(shuffled).y.tobytes() == plain.y.tobytes()
    mapping = {tuple(m["index"]): m["value"] for m in doc["moments"][::-1]}
    assert MomentSequence(2, 2, mapping).y.tobytes() == plain.y.tobytes()
    assert MomentSequence.from_document(plain.to_document()).y.tobytes() == plain.y.tobytes()


def test_to_document_writes_the_enumeration_as_before(lebesgue01):
    import json

    doc = lebesgue01.to_document()
    # fresh lists, so the document equals its JSON round trip and a caller
    # may edit it
    assert doc == json.loads(json.dumps(doc))
    assert [m["index"] for m in doc["moments"]] == [list(m) for m in enumerate_monomials(1, 10)]
    doc["moments"][1]["index"].append(0)
    assert lebesgue01.to_document()["moments"][1]["index"] == [1]
