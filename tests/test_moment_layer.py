"""The dense moment layer: graded-lex ranks, index-table moment matrices and
the bilinear L(p q), each against a dict-loop reference kept in this file."""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest

from momint.exceptions import DegreeOverflowError
from momint.moments import MeasureSpec, from_measure, grlex_rank
from momint.polynomials import Polynomial, enumerate_monomials

EPS = np.finfo(float).eps


def moment_map(seq):
    """Exponent tuple -> moment, by enumeration position."""
    return dict(zip(enumerate_monomials(seq.dimension, seq.max_degree), seq.y.tolist()))


def dict_loop_moment_matrix(seq, order, shift):
    """Term-by-term moment matrix over a map from exponent tuples to moments,
    built from ``enumerate_monomials`` and ``seq.y`` without ``grlex_rank``:
    the shifted value of every gamma with |gamma| <= 2*order, accumulated in
    sorted exponent order from 0.0, then read off at alpha + beta."""
    values = moment_map(seq)
    basis = enumerate_monomials(seq.dimension, order)
    table = {}
    for gamma in enumerate_monomials(seq.dimension, 2 * order):
        total = 0.0
        for delta, coeff in sorted(shift.terms.items()):
            key = tuple(g + d for g, d in zip(gamma, delta))
            total += float(coeff) * values[key]
        table[gamma] = total
    n = len(basis)
    entries = np.empty((n, n))
    for i, alpha in enumerate(basis):
        for j, beta in enumerate(basis):
            entries[i, j] = table[tuple(a + b for a, b in zip(alpha, beta))]
    return entries


def dict_loop_atom_moments(atoms, max_degree):
    """Moments of weighted atoms one monomial at a time: the atoms in spec
    order, each a product of coordinate powers taken left to right from the
    weight, rescaled to unit mass."""
    raw = []
    for index in enumerate_monomials(len(atoms[0][0]), max_degree):
        total = 0.0
        for point, weight in atoms:
            prod = weight
            for x, e in zip(point, index):
                if e:
                    prod *= x**e
            total += prod
        raw.append(total)
    return [value / raw[0] for value in raw]


def random_poly(rng, dim, max_exp, n_terms):
    terms = {}
    for _ in range(n_terms):
        index = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=dim))
        terms[index] = float(rng.normal())
    return Polynomial(dim, terms)


def box_tables():
    return [
        from_measure(MeasureSpec(box=([[-1.0, 2.0]] * d, 9)), 16) for d in (1, 2, 3)
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_grlex_rank_is_enumeration_position(dim):
    degree = 9
    monomials = enumerate_monomials(dim, degree)
    exponents = np.array(monomials)
    assert np.array_equal(grlex_rank(exponents), np.arange(len(exponents)))
    # a sum of parts ranks like the materialized sum, at its enumeration position
    position = {m: r for r, m in enumerate(monomials)}
    half = np.array(enumerate_monomials(dim, degree // 2))
    sums = half[:, None, :] + half[None, :, :]
    pairs = grlex_rank(half[:, None, :], half[None, :, :])
    assert np.array_equal(pairs, grlex_rank(sums))
    assert np.array_equal(pairs, [[position[tuple(s)] for s in row] for row in sums])
    unit = np.eye(dim, dtype=int)[0]
    assert np.array_equal(grlex_rank(half[:, None, :], half[None, :, :], unit),
                          grlex_rank(sums + unit))


def test_sequence_vector_follows_grlex_order(atom_corpus):
    for _, seq in atom_corpus[:6]:
        monomials = enumerate_monomials(seq.dimension, seq.max_degree)
        assert seq.y.shape == (len(monomials),)
        assert [seq.moment(m) for m in monomials] == list(seq.y)
        assert not seq.y.flags.writeable


def test_atom_oracle_bit_identical_to_dict_loop(atom_corpus):
    signed_zeros = MeasureSpec(atoms=[((-0.0, 1.5), 0.5), ((0.0, -2.0), 0.25), ((3.0, -0.0), 2.0)])
    for spec in [spec for spec, _ in atom_corpus] + [signed_zeros]:
        for max_degree in (0, 6, 12):
            got = from_measure(spec, max_degree).y.tolist()
            want = dict_loop_atom_moments(spec.atoms, max_degree)
            assert got == want
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def test_moment_matrix_bit_identical_to_dict_loop(atom_corpus):
    rng = np.random.default_rng(41)
    tables = [seq for _, seq in atom_corpus[:6]] + box_tables()
    for seq in tables:
        d = seq.dimension
        shifts = [None, Polynomial.variable(d, d - 1) + 0.5]
        shifts += [random_poly(rng, d, 2, n_terms) for n_terms in (2, 4, 6)]
        for shift in shifts:
            shift_degree = 0 if shift is None else max(shift.degree(), 0)
            for order in range(0, min(4, (seq.max_degree - shift_degree) // 2) + 1):
                got = seq.moment_matrix(order, shift).matrix.data
                ref_shift = shift if shift is not None else Polynomial.constant(d, 1.0)
                assert np.array_equal(got, dict_loop_moment_matrix(seq, order, ref_shift))


def test_moment_matrix_zero_shift(lebesgue01):
    data = lebesgue01.moment_matrix(2, Polynomial.zero(1)).matrix.data
    assert data.shape == (3, 3) and not np.any(data)


def bilinear_bound(seq, p, q):
    """64 eps * sum |p_a| |q_b| |y_(a+b)|: the rounding allowance between
    two summation orders of the same bilinear form."""
    values = moment_map(seq)
    total = 0.0
    for a, pa in p.terms.items():
        for b, qb in q.terms.items():
            total += abs(pa) * abs(qb) * abs(values[tuple(x + y for x, y in zip(a, b))])
    return 64.0 * EPS * total


def test_bilinear_apply_matches_product(atom_corpus):
    rng = np.random.default_rng(43)
    tables = [seq for _, seq in atom_corpus] + box_tables()
    for seq in tables:
        d = seq.dimension
        for _ in range(6):
            p = random_poly(rng, d, 3, 8)
            q = random_poly(rng, d, 3, 8)
            if p.degree() + q.degree() > seq.max_degree:
                continue
            exact = seq.apply(p * q)
            assert abs(seq.apply(p, q) - exact) <= bilinear_bound(seq, p, q)
            assert seq.apply(p, q) == seq.apply(p, q)


def test_bilinear_apply_long_factors():
    # 165 x 165 terms: several row blocks of pairwise ranks
    atoms = [((0.3, -0.5, 0.7), 0.4), ((-0.8, 0.2, 0.1), 0.6)]
    seq = from_measure(MeasureSpec(atoms=atoms), 16)
    a = Polynomial(3, {(0, 0, 0): 0.2, (1, 0, 0): 0.5, (0, 1, 0): -0.3, (0, 0, 1): 0.4})
    power = a**8
    assert len(power.terms) == 165
    value = seq.apply(power, power)
    assert abs(value - seq.apply(power * power)) <= bilinear_bound(seq, power, power)
    direct = sum(w * a.evaluate(pt) ** 16 for pt, w in atoms)
    assert abs(value - direct) <= 1e-12 * (1.0 + direct)


def test_bilinear_apply_degree_overflow(lebesgue01):
    t = Polynomial.variable(1, 0)
    lebesgue01.apply(t**5, t**5)  # degree 10 fits
    with pytest.raises(DegreeOverflowError):
        lebesgue01.apply(t**6, t**5)
    with pytest.raises(DegreeOverflowError):
        lebesgue01.apply(1.0 + t**11, Polynomial.constant(1, 1.0))


def test_apply_zero_polynomials(lebesgue01):
    t = Polynomial.variable(1, 0)
    zero = Polynomial.zero(1)
    assert lebesgue01.apply(zero) == 0.0
    assert lebesgue01.apply(zero, t) == 0.0
    assert lebesgue01.apply(t**3, zero) == 0.0
    # like L(p * 0), a zero factor gives 0.0 whatever the other degree
    assert lebesgue01.apply(t**20, zero) == 0.0


def test_apply_dimension_mismatch(lebesgue01):
    with pytest.raises(ValueError):
        lebesgue01.apply(Polynomial.variable(1, 0), Polynomial.variable(2, 1))


def test_apply_fraction_coefficients(lebesgue01):
    t = Polynomial.variable(1, 0, Fraction(1))
    p = t * Fraction(3) - Fraction(1, 2)
    q = t * t + Fraction(1, 3)
    assert lebesgue01.apply(p) == lebesgue01.apply(p.as_float())
    assert lebesgue01.apply(p, q) == lebesgue01.apply(p.as_float(), q.as_float())
    # L((3t - 1/2)(t^2 + 1/3)) on [0, 1] = 3/4 - 1/6 + 1/2 - 1/6 = 11/12
    assert abs(lebesgue01.apply(p, q) - 11.0 / 12.0) <= 1e-15


def test_bilinear_apply_matches_product_for_every_construction():
    atoms = [((0.4, -0.7), 0.3), ((-0.2, 0.9), 0.5), ((0.8, 0.1), 0.2)]
    seq = from_measure(MeasureSpec(atoms=atoms), 12)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    public = [
        Polynomial(2, {(0, 0): 0.5, (2, 1): -1.25, (0, 3): 0.75}),
        Polynomial(2, {(1, 0): 2.0, (1.0, 1): -0.5}),
    ]
    arithmetic = [(x + 0.5 * y - 1.0) ** 3, (y - x) ** 2 * (x + 0.25)]
    exact = [p.as_exact() for p in public + arithmetic]
    factors = public + arithmetic + exact
    for p in factors:
        for q in factors:
            expected = seq.apply(p * q)
            assert abs(seq.apply(p, q) - expected) <= bilinear_bound(seq, p, q)
    for p, p_exact in zip(public + arithmetic, exact):
        for q, q_exact in zip(public + arithmetic, exact):
            assert seq.apply(p_exact, q_exact) == seq.apply(p, q)


def test_equal_polynomials_give_identical_values():
    seq = box_tables()[2]
    rng = np.random.default_rng(47)
    for _ in range(5):
        p = random_poly(rng, 3, 2, 10)
        q = random_poly(rng, 3, 2, 10)
        # the same term maps, inserted in reverse order and built by arithmetic
        p_reversed = Polynomial(3, dict(reversed(list(p.terms.items()))))
        q_arithmetic = sum(
            (Polynomial(3, {k: v}) for k, v in reversed(list(q.terms.items()))),
            Polynomial.zero(3),
        )
        assert p_reversed == p and q_arithmetic == q
        assert seq.apply(p_reversed, q_arithmetic) == seq.apply(p, q)
        assert seq.apply(p_reversed) == seq.apply(p)


def test_memo_slot_does_not_change_value_semantics():
    seq = box_tables()[1]
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = (x - 0.5 * y + 0.25) ** 3
    fresh = Polynomial(2, dict(p.terms))
    before = hash(p)
    value = seq.apply(p, p)
    assert p == fresh and hash(p) == before == hash(fresh)
    assert len({p, fresh}) == 1
    clone = copy.deepcopy(p)
    assert clone == p and hash(clone) == before
    assert seq.apply(clone, clone) == value == seq.apply(fresh, fresh)
