"""Sparse multivariate polynomials with a fixed graded-lexicographic order.

Coefficients are duck-typed: ``float`` for the numeric pipelines and
``fractions.Fraction`` for exact identity checking. Instances are treated as
immutable values; every operation returns a new polynomial.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .exceptions import PolynomialParseError

MultiIndex = tuple  # tuple of nonnegative ints, one exponent per variable


def grlex_key(index: MultiIndex):
    """Sort key realizing graded lexicographic order (degree, then lex with
    the first variable largest)."""
    return (sum(index), tuple(-e for e in index))


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_monomials(dimension: int, max_degree: int) -> list[MultiIndex]:
    """All exponent tuples of total degree <= max_degree, in graded-lex order.

    The count is binomial(max_degree + dimension, dimension). The enumeration
    is memoized; each call returns a fresh list.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return list(_monomials(dimension, max_degree))


@functools.lru_cache(maxsize=64)
def _monomials(dimension: int, max_degree: int) -> tuple:
    out = []
    for deg in range(max_degree + 1):
        out.extend(_compositions(deg, dimension))
    return tuple(out)


class Polynomial:
    """A term map from exponent tuples to nonzero coefficients.

    Equality and hashing compare the maps, not the order in which the terms
    were inserted. A product sums each coefficient over the factors' terms
    in sorted exponent order, and the moment layer reads the terms in that
    order too (``moments._term_data``), so equal polynomials give equal
    products and the same moments bit for bit.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Mapping | None = None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        clean = {}
        for index, coeff in (terms or {}).items():
            index = tuple(index)
            if len(index) != dimension:
                raise ValueError(f"multi-index {index} has wrong length for dimension {dimension}")
            if any(e < 0 or e != int(e) for e in index):
                raise ValueError(f"multi-index {index} must hold nonnegative integers")
            if coeff != 0:
                clean[tuple(int(e) for e in index)] = clean.get(index, 0) + coeff
        self.dimension = dimension
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def _trusted(cls, dimension: int, terms: dict) -> "Polynomial":
        """Result of arithmetic on valid polynomials: the keys are already
        exponent tuples of the right length, so only zero coefficients are
        dropped. Takes ownership of ``terms``."""
        p = object.__new__(cls)
        p.dimension = dimension
        p.terms = {k: v for k, v in terms.items() if v != 0}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, var: int, coefficient=1.0) -> "Polynomial":
        if not 0 <= var < dimension:
            raise ValueError(f"variable index {var} out of range for dimension {dimension}")
        index = tuple(1 if i == var else 0 for i in range(dimension))
        return cls(dimension, {index: coefficient})

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index) -> float:
        return self.terms.get(tuple(index), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_same_dimension(self, other: "Polynomial"):
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        self._check_same_dimension(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Polynomial._trusted(self.dimension, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.dimension, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial._trusted(
                self.dimension, {k: v * other for k, v in self.terms.items()}
            )
        self._check_same_dimension(other)
        out: dict = {}
        add = operator.add
        right = sorted(other.terms.items())
        for ka, va in sorted(self.terms.items()):
            for kb, vb in right:
                key = tuple(map(add, ka, kb))
                out[key] = out.get(key, 0) + va * vb
        return Polynomial._trusted(self.dimension, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent != int(exponent) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        exponent = int(exponent)
        # repeated squaring
        result = Polynomial.constant(self.dimension, _unit_like(self))
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def evaluate(self, point: Sequence) -> float:
        """Evaluate at a point; exact when coefficients and point are exact."""
        if len(point) != self.dimension:
            raise ValueError(
                f"point has length {len(point)}, expected {self.dimension}"
            )
        total = 0
        for index, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, index):
                if e:
                    value = value * x**e
            total = total + value
        return total

    # -- conversions -------------------------------------------------------

    def map_coefficients(self, fn) -> "Polynomial":
        return Polynomial._trusted(self.dimension, {k: fn(v) for k, v in self.terms.items()})

    def as_float(self) -> "Polynomial":
        return self.map_coefficients(float)

    def as_exact(self) -> "Polynomial":
        return self.map_coefficients(lambda c: c if isinstance(c, Fraction) else Fraction(c))

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {self.terms!r})"


def _unit_like(p: Polynomial):
    """1 in the coefficient domain of p (Fraction stays exact)."""
    for v in p.terms.values():
        if isinstance(v, (Fraction, int)):
            return Fraction(1)
        return 1.0
    return 1.0


def default_variable_names(dimension: int) -> list[str]:
    return ["t"] if dimension == 1 else [f"x{i + 1}" for i in range(dimension)]


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[*^+\-/]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse text like ``3*x^2*y - 0.5`` over the declared variable names.

    Terms are products of numeric literals and ``name^exponent`` factors,
    joined by ``+`` and ``-``. Division by a numeric literal is accepted.
    Two factors with no operator between them are an error.
    """
    names = list(variables)
    if len(set(names)) != len(names):
        raise PolynomialParseError("duplicate variable names")
    index_of = {name: i for i, name in enumerate(names)}
    d = len(names)
    if d < 1:
        raise PolynomialParseError("at least one variable must be declared")
    # the sentinel ends the last term and puts len(text) in end-of-input errors
    tokens = _tokenize(text) + [(None, None, len(text))]
    if tokens[0][0] is None:
        raise PolynomialParseError("empty polynomial text")

    terms: dict = {}
    pos = 0
    while tokens[pos][0] is not None:
        sign = 1.0
        while tokens[pos][1] in ("+", "-"):
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        if tokens[pos][0] is None:
            raise PolynomialParseError("dangling sign at end of input")
        coeff, exps, op = sign, [0] * d, "*"
        # op is the operator before the next token: after "*" comes a factor,
        # after "/" a numeric divisor; any other operator ends the term
        while op in ("*", "/"):
            kind, value, at = tokens[pos]
            pos += 1
            if op == "/":
                if kind != "num":
                    raise PolynomialParseError(f"expected numeric divisor at position {at}")
                if float(value) == 0.0:
                    raise PolynomialParseError(f"division by zero at position {at}")
                coeff /= float(value)
            elif kind == "num":
                coeff *= float(value)
            elif kind == "name":
                if value not in index_of:
                    raise PolynomialParseError(
                        f"unknown variable {value!r} at position {at}; "
                        f"declared: {', '.join(names)}"
                    )
                exponent = 1
                if tokens[pos][1] == "^":
                    k2, v2, a2 = tokens[pos + 1]
                    if k2 != "num" or not v2.isdigit():
                        raise PolynomialParseError(f"expected integer exponent at position {a2}")
                    exponent = int(v2)
                    pos += 2
                exps[index_of[value]] += exponent
            else:
                raise PolynomialParseError(f"expected a coefficient or variable at position {at}")
            factor = kind
            kind, op, at = tokens[pos]
            if op == "^":  # a name has taken its one exponent, a number takes none
                raise PolynomialParseError(
                    f"'^' at position {at} gives a factor a second exponent" if factor == "name"
                    else f"'^' at position {at} comes after a number: an exponent must follow "
                    "a variable")
            if kind in ("num", "name"):
                raise PolynomialParseError(f"expected an operator before {op!r} at position {at}")
            if op in ("*", "/"):
                pos += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff
    return Polynomial._trusted(d, terms)  # keys are d-tuples of ints by construction


def format_polynomial(p: Polynomial, variables: Sequence[str] | None = None) -> str:
    """Render in the same syntax the parser accepts, highest terms first."""
    names = list(variables) if variables is not None else default_variable_names(p.dimension)
    if len(names) != p.dimension:
        raise ValueError("wrong number of variable names")
    if not p.terms:
        return "0"
    pieces = []
    for index in sorted(p.terms, key=grlex_key, reverse=True):
        coeff = p.terms[index]
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, index)
            if e
        ]
        mag = _format_coeff(abs(coeff))
        if factors and mag == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([mag] + factors)
        else:
            body = mag
        sign = "-" if _is_negative(coeff) else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _is_negative(c) -> bool:
    return c < 0


def _format_coeff(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    f = float(c)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.12g}"
