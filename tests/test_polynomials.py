import math
import random
from fractions import Fraction

import pytest

from momint.exceptions import PolynomialParseError
from momint.polynomials import (
    Polynomial,
    enumerate_monomials,
    format_polynomial,
    _tokenize,
    grlex_key,
    parse_polynomial,
)


def test_enumerate_univariate():
    assert enumerate_monomials(1, 2) == [(0,), (1,), (2,)]


def test_enumerate_bivariate_order():
    assert enumerate_monomials(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert enumerate_monomials(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_enumerate_count_matches_binomial():
    for d, n in [(1, 5), (2, 4), (3, 4), (4, 3)]:
        assert len(enumerate_monomials(d, n)) == math.comb(n + d, d)


def test_enumerate_is_sorted_and_complete():
    mons = enumerate_monomials(3, 4)
    keys = [grlex_key(m) for m in mons]
    assert keys == sorted(keys)
    assert len(set(mons)) == len(mons)
    assert all(sum(m) <= 4 for m in mons)


def test_enumerate_validates():
    with pytest.raises(ValueError):
        enumerate_monomials(0, 2)
    with pytest.raises(ValueError):
        enumerate_monomials(2, -1)


def test_difference_of_squares():
    t = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1.0)
    assert (one + t) * (one - t) == one - t * t


def test_multiply_by_zero():
    t = Polynomial.variable(1, 0)
    assert (t + 1.0) * Polynomial.zero(1) == Polynomial.zero(1)
    assert Polynomial.zero(1).degree() == -1


def test_two_sided_interval_composite():
    # (M - a)(M + a)^2 + (M + a)(M - a)^2 collapses to 2M^3 - 2Ma^2
    m = Polynomial.variable(2, 0, Fraction(1))
    a = Polynomial.variable(2, 1, Fraction(1))
    lhs = (m - a) * (m + a) ** 2 + (m + a) * (m - a) ** 2
    assert lhs == m**3 * Fraction(2) - m * a**2 * Fraction(2)


def test_power_laws():
    t = Polynomial.variable(1, 0)
    assert (t * t) ** 3 == Polynomial(1, {(6,): 1.0})
    assert (t + 1.0) ** 2 == Polynomial(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})
    assert (t + 1.0) ** 0 == Polynomial.constant(1, 1.0)


def test_binomial_cube_expansion():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    expected = Polynomial(2, {(3, 0): 1.0, (2, 1): 3.0, (1, 2): 3.0, (0, 3): 1.0})
    assert (x + y) ** 3 == expected


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Polynomial.variable(1, 0) * Polynomial.variable(2, 0)


def test_evaluate_examples():
    t = Polynomial.variable(1, 0)
    assert (1.0 - t * t).evaluate([1.0]) == 0.0
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x * x + y * y).evaluate([3.0, 4.0]) == 25.0
    # root of the degree-2 orthogonal polynomial for the uniform weight on [0, 1]
    p = 6.0 * t * t - 6.0 * t + 1.0
    root = (3.0 + math.sqrt(3.0)) / 6.0
    assert abs(p.evaluate([root])) <= 1e-12


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).evaluate([1.0])


def _random_exact_poly(rng: random.Random, dim: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        index = tuple(rng.randint(0, 2) for _ in range(dim))
        terms[index] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(dim, terms)


def test_ring_axioms_exact():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = _random_exact_poly(rng, dim)
        q = _random_exact_poly(rng, dim)
        r = _random_exact_poly(rng, dim)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)


def test_equal_float_polynomials_have_equal_products():
    # each coefficient of p * p sums several float products; the sum runs
    # over the terms in sorted order, not in the order they were inserted
    rng = random.Random(3)
    monomials = enumerate_monomials(3, 2)
    for _ in range(50):
        p = Polynomial(3, {m: rng.gauss(0.0, 1.0) for m in rng.sample(monomials, 6)})
        items = list(p.terms.items())
        rng.shuffle(items)
        q = Polynomial(3, dict(items))
        assert q == p and q * q == p * p and q**3 == p**3


def test_evaluate_is_ring_homomorphism_exact():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = _random_exact_poly(rng, dim)
        q = _random_exact_poly(rng, dim)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_evaluate_homomorphism_float():
    rng = random.Random(13)
    for _ in range(30):
        dim = rng.randint(1, 3)
        p = _random_exact_poly(rng, dim).as_float()
        q = _random_exact_poly(rng, dim).as_float()
        point = [rng.uniform(-1.5, 1.5) for _ in range(dim)]
        lhs = (p * q).evaluate(point)
        rhs = p.evaluate(point) * q.evaluate(point)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_parse_basic():
    p = parse_polynomial("3*x^2*y - 0.5", ["x", "y"])
    assert p == Polynomial(2, {(2, 1): 3.0, (0, 0): -0.5})


def test_parse_signs_and_fractions():
    p = parse_polynomial("-t + 1/2", ["t"])
    assert p == Polynomial(1, {(1,): -1.0, (0,): 0.5})
    assert parse_polynomial("t", ["t"]) == Polynomial.variable(1, 0)
    assert parse_polynomial("2*t^3", ["t"]) == Polynomial(1, {(3,): 2.0})


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x + z", ["x", "y"])


def test_parse_rejects_garbage():
    for bad in ["", "1 +", "x^", "x^-2", "@", "3//2"]:
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad, ["x"])


@pytest.mark.parametrize("text, message", [
    ("2t", "expected an operator before 't' at position 1"),
    ("x y", "expected an operator before 'y' at position 1"),
    ("x^2 3", "expected an operator before '3' at position 3"),
    ("x/2 y", "expected an operator before 'y' at position 3"),
    ("x^", "expected integer exponent at position 2"),
    ("x/", "expected numeric divisor at position 2"),
    ("x * ", "expected a coefficient or variable at position 4"),
    ("2^3", "'^' at position 1 comes after a number: an exponent must follow a variable"),
    ("x^2^3", "'^' at position 3 gives a factor a second exponent"),
    ("x -", "dangling sign at end of input"),
])
def test_parse_error_names_the_position(text, message):
    with pytest.raises(PolynomialParseError) as info:
        parse_polynomial(text, ["x"])
    assert str(info.value) == message


#: token soup for the property test: numbers, declared and undeclared names,
#: every operator, spaces and a character the tokenizer refuses
SOUP = ["2", ".5", "3.", "1e-2", "0", "x", "y", "z", "xy", "^", "*", "/", "+", "-", " ", "@"]
SOUP_WEIGHTS = [3, 2, 2, 2, 1, 4, 4, 1, 1, 3, 4, 2, 3, 3, 4, 0.3]


def _juxtaposed(text: str) -> bool:
    """Whether a number or name directly follows another in the tokens."""
    try:
        kinds = [kind for kind, _, _ in _tokenize(text)]
    except PolynomialParseError:  # a character that no token matches
        return False
    return any(a in ("num", "name") and b in ("num", "name") for a, b in zip(kinds, kinds[1:]))


def test_parse_token_soup_property():
    rng = random.Random(20261019)
    accepted = juxtaposed = 0
    for _ in range(20000):
        text = "".join(rng.choices(SOUP, SOUP_WEIGHTS, k=rng.randint(1, 9)))
        try:
            p = parse_polynomial(text, ["x", "y"])
        except PolynomialParseError:
            juxtaposed += _juxtaposed(text)
            continue
        assert not _juxtaposed(text), text
        accepted += 1
        shown = format_polynomial(p, ["x", "y"])
        q = parse_polynomial(shown, ["x", "y"])
        assert format_polynomial(q, ["x", "y"]) == shown, text
        assert set(q.terms) == set(p.terms), text
        for key, coeff in p.terms.items():
            assert q.terms[key] == pytest.approx(coeff, rel=1e-11), text
    # the soup reaches both sides of the property
    assert accepted > 1000 and juxtaposed > 1000


def test_format_parse_round_trip():
    rng = random.Random(17)
    names = ["x", "y", "z"]
    for _ in range(30):
        dim = rng.randint(1, 3)
        p = _random_exact_poly(rng, dim).as_float()
        text = format_polynomial(p, names[:dim])
        q = parse_polynomial(text, names[:dim])
        assert max(
            (abs(p.coefficient(k) - q.coefficient(k)) for k in set(p.terms) | set(q.terms)),
            default=0.0,
        ) <= 1e-9


def test_format_examples():
    t = Polynomial.variable(1, 0)
    assert format_polynomial(1.0 - t, ["t"]) == "-t + 1"
    assert format_polynomial(Polynomial.zero(1), ["t"]) == "0"
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert format_polynomial(3.0 * x**2 * y - 0.5, ["x", "y"]) == "3*x^2*y - 0.5"
