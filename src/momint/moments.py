"""Truncated moment sequences and their matrices.

A :class:`MomentSequence` stores the values of a linear functional on every
monomial up to an even truncation degree. Sequences are built either from a
known measure (the oracle direction) or ingested from a document. On ingest
the mass L(1) is rescaled to 1 whenever it is positive; operations that
assume unit mass must check the ``normalized`` flag.

Storage is dense and single: ``y[r]`` is the moment of the monomial with
graded-lex rank ``r``, the position it has in ``enumerate_monomials``, and
``moment(index)`` reads ``y`` at the rank of ``index``. Because graded-lex
order sorts by degree first, the monomials of degree <= k are a prefix of
``y`` for every k.

Two routes read a table. ``from_document`` reads pair by pair
(``_checked_pairs``) and names the first bad pair. ``to_text`` writes the
bytes of ``json.dumps`` of ``to_document`` from cached entry texts and the
JSON text of the values, and ``from_text`` reads that layout, its entries
in any order, against the same cached texts, with no document built; any
other text goes through ``json`` and ``from_document``.

The oracle measures are weighted sums of product measures, so over the
exponent table ``E`` of the stored monomials ``y = sum_c w_c prod_j
T_(c,j)[E[:, j]]``, where ``T_(c,j)`` holds the powers of coordinate j of
atom c, or the Gauss-Legendre integrals over side j of a box (``w = 1``).

The rank is additive. With the suffix sums ``R_j = e_j + ... + e_(d-1)`` of
an exponent ``e``, ``rank(e) = sum_j C(R_j + d - j - 1, d - j)``, and suffix
sums add: ``R(a + b) = R(a) + R(b)``. Scaled by ``d + 1``, a suffix sum
plus a per-variable offset is a position in a flattened binomial table
(cached per truncation and dimension), so the ranks of all pairwise sums
``a_i + b_j`` are one broadcast add, one gather and one sum, and the sums
``a_i + b_j`` are never materialized. On this layout

* ``apply(p, q)`` evaluates ``L(p q) = sum p_a q_b y[rank(a + b)]`` as the
  bilinear form ``c_p @ y[ranks] @ c_q``, without forming the product
  ``p q``;
* ``moment_matrix(order, shift)`` gathers the shifted moment vector
  ``sum_d c_d y[rank(g + d)]`` through the index table
  ``T[i, j] = rank(b_i + b_j)`` of the order-``order`` basis, cached per
  (dimension, order). Shift terms are accumulated one at a time, so the
  entries are the same floating-point numbers a term-by-term summation in
  sorted exponent order gives;
* ``_multiplication_matrix(p, low)`` is multiplication by p on the
  graded-lex basis.

All three read a polynomial through ``_term_data``, the one route from its
terms to scaled suffix sums and float coefficients, in sorted exponent
order. So each depends on the polynomial only as a value: equal
polynomials give the same numbers bit for bit, however their terms were
inserted.

No cache is sized like ``(max_degree + 1)^d`` or like the square of the
number of stored monomials.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Mapping

import numpy as np

from .exceptions import DegreeOverflowError
from .linalg import SymMatrix, gauss_rule
from .polynomials import Polynomial, enumerate_monomials


@functools.lru_cache(maxsize=64)
def _rank_table(max_total: int, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """The flattened binomial table and the offsets of the additive rank.

    ``flat[a * (d + 1) + b] = C(a, b)`` for ``0 <= a < max_total + d`` and
    ``0 <= b <= d`` (zero when b > a), and ``offset[j] = (d - j - 1) * (d + 1)
    + d - j``, so that ``flat[(d + 1) * R_j + offset[j]] = C(R_j + d - j - 1,
    d - j)`` for every suffix sum ``R_j <= max_total``.
    """
    d = dimension
    flat = np.array(
        [math.comb(a, b) for a in range(max_total + d) for b in range(d + 1)],
        dtype=np.intp,
    )
    offset = np.array([(d - j - 1) * (d + 1) + d - j for j in range(d)], dtype=np.intp)
    flat.flags.writeable = False
    offset.flags.writeable = False
    return flat, offset


def _suffix_sums(exponents: np.ndarray) -> np.ndarray:
    """``R[..., j] = e_j + ... + e_(d-1)`` over the last axis."""
    return np.cumsum(exponents[..., ::-1], axis=-1)[..., ::-1]


def grlex_rank(*parts) -> np.ndarray:
    """Position of an exponent in the graded-lex enumeration.

    The exponent is the sum of ``parts``, integer arrays of shape ``(..., d)``
    that broadcast together, such as ``a[:, None, :]`` and ``b[None, :, :]``
    for the ranks of all pairwise sums ``a_i + b_j``.
    ``grlex_rank(np.array(enumerate_monomials(d, k)))`` is ``0 .. N-1``.

    With the suffix sums ``R_j = e_j + ... + e_(d-1)`` the rank is
    ``sum_j C(R_j + d - j - 1, d - j)``: the j = 0 term counts the monomials
    of lower degree, and the term j >= 1 counts the same-degree monomials
    that agree with e on exponents 0 .. j - 2 and have a larger exponent
    j - 1. Suffix sums add, so the parts enter only through the sum of their
    suffix sums.
    """
    parts = [np.asarray(part, dtype=np.intp) for part in parts]
    d = parts[0].shape[-1]
    suffix = sum(_suffix_sums(part) for part in parts)
    flat, offset = _rank_table(int(np.max(suffix, initial=0)), d)
    return flat.take(suffix * (d + 1) + offset).sum(axis=-1)


@functools.lru_cache(maxsize=64)
def _monomial_array(dimension: int, degree: int) -> np.ndarray:
    """Exponents of the monomials of degree <= ``degree``, one row each, in
    graded-lex order."""
    table = np.array(enumerate_monomials(dimension, degree), dtype=np.intp)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _index_pieces(dimension: int, degree: int) -> list:
    """The text of each entry of a moment document up to its value, as
    ``json.dumps`` writes it: ``{"index": [i, j, k], "value": ``, one per
    row of ``_monomial_array``, in its order; private, so never mutated."""
    return [f'{{"index": {json.dumps(index)}, "value": '
            for index in _monomial_array(dimension, degree).tolist()]


@functools.lru_cache(maxsize=64)
def _index_ranks(dimension: int, degree: int) -> dict:
    """``{entry text: rank}`` over ``_index_pieces``; private, so never mutated."""
    return {piece: rank for rank, piece in enumerate(_index_pieces(dimension, degree))}


#: the head of a moment document as ``to_text`` writes it
_TEXT_HEAD = re.compile(
    r'\{"dimension": ([1-9][0-9]{0,8}), "max_degree": (0|[1-9][0-9]{0,8}), "moments": \[')
#: a JSON number with a fraction or an exponent, which ``json`` reads with
#: ``float``; the values of ``to_text`` are of this form
_JSON_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
#: the values of a document's entries, as ``from_text`` joins them
_JSON_FLOATS = re.compile(rf"{_JSON_FLOAT}(?:\}}, {_JSON_FLOAT})*")


def _table_size(dimension: int, max_degree: int, limit: int) -> int:
    """``C(max_degree + dimension, dimension)``, or the first ``C(max_degree
    + j, j)`` above ``limit``. These grow with j to the size of a complete
    table, so a table larger than ``limit`` is found before any huge count
    is formed."""
    size = 1
    for j in range(1, dimension + 1):
        size = size * (max_degree + j) // j
        if size > limit:
            break
    return size


@functools.lru_cache(maxsize=64)
def _monomial_positions(dimension: int, degree: int) -> np.ndarray:
    """``(d + 1) * R + offset`` over ``_monomial_array``: positions in the
    flat rank table, shifted to ``x^delta`` times each row by adding
    ``(d + 1) * R(delta)``."""
    suffix = _suffix_sums(_monomial_array(dimension, degree))
    positions = (dimension + 1) * suffix + _rank_table(degree, dimension)[1]
    positions.flags.writeable = False
    return positions


#: entries per block of pairwise ranks; bounds the temporaries of
#: ``_gram_index`` and ``MomentSequence.apply`` (a few arrays of this many
#: exponent rows) whatever the sizes
PAIR_BLOCK = 4096


def _row_blocks(rows: int, columns: int):
    """Row slices of about PAIR_BLOCK entries over a ``rows x columns`` grid."""
    step = max(1, PAIR_BLOCK // max(columns, 1))
    for start in range(0, rows, step):
        yield slice(start, start + step)


@functools.lru_cache(maxsize=32)
def _gram_index(dimension: int, order: int) -> np.ndarray:
    """``T[i, j] = rank(b_i + b_j)`` over the basis of degree <= ``order``."""
    basis = _monomial_array(dimension, order)
    table = np.empty((len(basis), len(basis)), dtype=np.intp)
    for rows in _row_blocks(len(basis), len(basis)):
        table[rows] = grlex_rank(basis[rows, None, :], basis[None, :, :])
    table.flags.writeable = False
    return table


def _term_data(p: Polynomial) -> tuple[np.ndarray, np.ndarray, int]:
    """The numeric form of p, computed on demand: the scaled suffix sums
    ``(d + 1) * R`` with one row per variable and one column per term, the
    float coefficients, and the degree (0 for the zero polynomial, which has
    no columns). Terms are in sorted exponent order, so equal polynomials
    give the same arrays however their terms were inserted.
    """
    keys = sorted(p.terms)
    suffix = _suffix_sums(np.array(keys, dtype=np.intp).reshape(len(keys), p.dimension))
    scaled = (p.dimension + 1) * np.ascontiguousarray(suffix.T)
    coefficients = np.array([float(p.terms[k]) for k in keys])
    return scaled, coefficients, int(suffix[:, 0].max(initial=0))


def _multiplication_matrix(p: Polynomial, low: int) -> np.ndarray:
    """Multiplication by p from the graded-lex basis of degree <= ``low``
    into that of degree <= ``low + deg p``: ``S[rank(b + e), rank(b)] =
    p_e`` for every term ``p_e x^e`` and every basis monomial b of degree <=
    low. The ranks come from the cached positions of the basis plus those
    of the terms, as in ``moment_matrix``: no table of pairwise ranks, so S
    is the only array of its size."""
    scaled, coefficients, degree = _term_data(p)
    d = p.dimension
    positions = _monomial_positions(d, low)
    ranks = _rank_table(low + degree, d)[0].take(positions[:, :, None] + scaled).sum(axis=1)
    matrix = np.zeros((math.comb(low + degree + d, d), len(positions)))
    matrix[ranks, np.arange(len(positions))[:, None]] = coefficients
    return matrix


def _plain_block(seq: "MomentSequence", order: int) -> np.ndarray:
    """The plain moment matrix of an order <= n_max as gathered from y,
    read-only and memoized per sequence: ``moment_matrix`` wraps it after
    its finiteness check, and the semiring checks of ``certify`` read it
    unchecked."""
    key = ("plain block", order)
    block = seq._cache.get(key)
    if block is None:
        block = seq._cache[key] = seq.y[_gram_index(seq.dimension, order)]
        block.flags.writeable = False
    return block


def _moment_entries(seq: "MomentSequence", left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``K[i, j] = y[rank(left_i + right_j)]`` over the exponent rows ``left``
    and ``right``, zero where the sum lies beyond the stored truncation;
    gathered in row blocks of about PAIR_BLOCK entries."""
    block = np.zeros((len(left), len(right)))
    for rows in _row_blocks(len(left), len(right)):
        ranks = grlex_rank(left[rows, None, :], right[None, :, :])
        stored = ranks < len(seq.y)
        block[rows][stored] = seq.y[ranks[stored]]
    return block


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], exact through degree
    ``2*order - 1``: the Gauss rule of the Legendre recurrence
    (``alpha_k = 0``, ``beta_k = k / sqrt(4 k^2 - 1)``, mass 2)."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    k = np.arange(1, order)
    return gauss_rule(np.zeros(order), k / np.sqrt(4.0 * k * k - 1.0), 2.0)


def _multi_index(key, dimension: int) -> tuple:
    """``key`` as a tuple of ints; ValueError unless it holds ``dimension``
    nonnegative integral exponents."""
    try:
        index = tuple(map(int, key))
        valid = len(index) == dimension and index == tuple(key) and min(index) >= 0
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"bad multi-index {key} for dimension {dimension}")
    return index


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is integral."""
    if not (isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_pairs(dimension: int, max_degree: int, keys, values):
    """The exponents and float values of the listed pairs, checked one pair
    at a time in list order; ValueError naming the first bad index or value."""
    exponents, floats = [], []
    for key, value in zip(keys, values):
        index = _multi_index(key, dimension)
        if sum(index) > max_degree:
            raise ValueError(f"index {index} exceeds max_degree {max_degree}")
        try:
            floats.append(float(value))
        except (TypeError, ValueError):
            raise ValueError(f"moment value at {index} must be a number, got {value!r}") from None
        exponents.extend(index)
    return exponents, np.array(floats)


def _dense_moments(dimension: int, max_degree: int, keys: list, values: list) -> np.ndarray:
    """The grlex moment vector of the listed indices and values; ValueError
    on a bad index or value (``_checked_pairs``), and unless each index up
    to max_degree is listed once."""
    exponents, floats = _checked_pairs(dimension, max_degree, keys, values)
    # a short list fails before anything is enumerated
    needed = _table_size(dimension, max_degree, len(floats))
    if needed > len(floats):
        raise ValueError(
            f"moment table incomplete: {len(floats)} indices listed, at least {needed} needed"
        )
    # the count above passes these for an empty list; no table has them
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    exponents = np.asarray(exponents, dtype=np.intp).reshape(-1, dimension)
    ranks = grlex_rank(exponents)
    repeated = np.flatnonzero(np.bincount(ranks, minlength=needed) > 1)
    if repeated.size:
        first = exponents[np.argmax(ranks == repeated[0])]
        raise ValueError(f"moment index {first.tolist()} listed more than once")
    # at least ``needed`` distinct ranks below it: none is missing
    y = np.empty(needed)
    y[ranks] = floats
    return y


def _text_moments(dimension: int, max_degree: int, entries: list, values: list):
    """The grlex moment vector of a table's entry texts up to their values and
    its value texts (``MomentSequence.from_text``); None unless the values
    are JSON floats and the entries are ``_index_pieces`` in some order."""
    if not _JSON_FLOATS.fullmatch("}, ".join(values)):
        return None
    floats = np.array(list(map(float, values)))
    if entries == _index_pieces(dimension, max_degree):
        return floats
    ranks = list(map(_index_ranks(dimension, max_degree).get, entries))
    if None in ranks or len(set(ranks)) < len(ranks):
        return None
    y = np.empty(len(ranks))
    y[ranks] = floats
    return y


class MeasureSpec:
    """A desk-scale representable measure: weighted atoms, or uniform on a box.

    Exactly one of ``atoms`` and ``box`` is set. Atoms are (point, weight)
    pairs with finite coordinates and positive finite weights; a box is a
    list of finite [lo, hi] intervals plus a Gauss-Legendre order per
    dimension.
    """

    __slots__ = ("atoms", "box")

    def __init__(self, atoms=None, box=None):
        if (atoms is None) == (box is None):
            raise ValueError("exactly one of atoms/box must be given")
        if atoms is not None:
            cleaned = []
            dim = None
            for point, weight in atoms:
                point = tuple(float(x) for x in point)
                if dim is None:
                    dim = len(point)
                elif len(point) != dim:
                    raise ValueError("atoms have inconsistent dimensions")
                if not weight > 0:
                    raise ValueError(f"atom weight must be positive, got {weight}")
                weight = float(weight)
                if not all(map(math.isfinite, point + (weight,))):
                    raise ValueError(f"atom {point} with weight {weight} is not finite")
                cleaned.append((point, weight))
            if not cleaned:
                raise ValueError("atom list is empty")
            self.atoms = tuple(cleaned)
            self.box = None
        else:
            bounds, order = box
            bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
            if not bounds:
                raise ValueError("box has no bounds")
            for lo, hi in bounds:
                if not all(map(math.isfinite, (lo, hi))):
                    raise ValueError(f"box interval [{lo}, {hi}] is not finite")
                if not lo < hi:
                    raise ValueError(f"box interval [{lo}, {hi}] must have lo < hi")
            order = _integer(order, "quadrature order")
            if order < 1:
                raise ValueError("quadrature order must be >= 1")
            self.atoms = None
            self.box = (bounds, order)

    @property
    def dimension(self) -> int:
        if self.atoms is not None:
            return len(self.atoms[0][0])
        return len(self.box[0])

    @classmethod
    def from_document(cls, doc: Mapping) -> "MeasureSpec":
        try:
            if "atoms" in doc:
                return cls(atoms=[(entry["point"], entry["weight"]) for entry in doc["atoms"]])
            if "box" in doc:
                return cls(box=(doc["box"]["bounds"], doc["box"]["order"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed measure document: {exc}") from exc
        raise ValueError("measure document needs an 'atoms' or 'box' field")

    def to_document(self) -> dict:
        if self.atoms is not None:
            return {
                "atoms": [
                    {"point": list(point), "weight": weight}
                    for point, weight in self.atoms
                ]
            }
        bounds, order = self.box
        return {"box": {"bounds": [list(b) for b in bounds], "order": order}}

    def __repr__(self) -> str:
        if self.atoms is not None:
            return f"MeasureSpec(atoms={len(self.atoms)}, dimension={self.dimension})"
        return f"MeasureSpec(box={self.box[0]}, order={self.box[1]})"


@dataclass(frozen=True)
class MomentMatrix:
    """Localized moment matrix: entry (alpha, beta) = L(shift * x^(alpha+beta))
    over the monomials of degree <= order in graded-lex order; equal
    alpha+beta always produces equal entries (Hankel-type structure)."""

    matrix: SymMatrix


class MomentSequence:
    """Values of a linear functional on all monomials of degree <= max_degree.

    ``y`` holds them in graded-lex order. ``normalized`` records whether they
    have unit mass; ``scale`` keeps the original L(1), the only record of the
    mass before normalization.
    """

    __slots__ = ("dimension", "max_degree", "y", "normalized", "scale", "_cache")

    def __init__(self, dimension: int, max_degree: int, values: Mapping):
        y = _dense_moments(dimension, max_degree, list(values), list(values.values()))
        self._store(dimension, max_degree, y)

    @classmethod
    def _from_dense(cls, dimension: int, max_degree: int, y) -> "MomentSequence":
        """A sequence from its grlex moment vector (no indices to check)."""
        seq = cls.__new__(cls)
        seq._store(dimension, max_degree, y)
        return seq

    def _store(self, dimension: int, max_degree: int, y):
        """Check the truncation and finiteness, rescale a positive mass to 1
        and fill the slots."""
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if max_degree < 0 or max_degree % 2 != 0:
            raise ValueError("max_degree must be an even nonnegative integer")
        y = np.array(y, dtype=float)
        if not np.all(np.isfinite(y)):
            index = _monomial_array(dimension, max_degree)[np.argmin(np.isfinite(y))]
            raise ValueError(f"non-finite moment at {tuple(index.tolist())}")
        mass = float(y[0])
        normalized = mass > 0.0
        if normalized and mass != 1.0:
            y = y / mass
        y.flags.writeable = False
        self.dimension = dimension
        self.max_degree = int(max_degree)
        self.y = y
        self.normalized = normalized
        self.scale = mass
        self._cache: dict = {}

    @property
    def n_max(self) -> int:
        """Largest matrix order N with 2N <= max_degree."""
        return self.max_degree // 2

    def moment(self, index) -> float:
        index = _multi_index(index, self.dimension)
        if sum(index) > self.max_degree:
            raise DegreeOverflowError(
                f"moment of degree {sum(index)} beyond truncation {self.max_degree}"
            )
        return float(self.y[grlex_rank(index)])

    def apply(self, p: Polynomial, q: Polynomial | None = None) -> float:
        """L(p), or L(p q) when ``q`` is given.

        The product is never formed: L(p q) is the bilinear form
        ``sum p_a q_b y[rank(a + b)]``, in row blocks of at most PAIR_BLOCK
        pairs, over the term data of p and q (``_term_data``).
        Raises DegreeOverflowError when p (or p q, of degree
        ``deg p + deg q``) needs unstored moments, and ValueError when the
        value overflows. A zero factor gives 0.0.
        """
        for factor in (p,) if q is None else (p, q):
            if factor.dimension != self.dimension:
                raise ValueError(
                    f"polynomial dimension {factor.dimension} != sequence "
                    f"dimension {self.dimension}"
                )
        if p.is_zero() or (q is not None and q.is_zero()):
            return 0.0
        p_sums, p_coeffs, degree = _term_data(p)
        if q is not None:
            q_sums, q_coeffs, q_degree = _term_data(q)
            degree += q_degree
        if degree > self.max_degree:
            raise DegreeOverflowError(
                f"degree {degree} exceeds stored truncation {self.max_degree}"
            )
        flat, offset = _rank_table(self.max_degree, self.dimension)
        if q is None:
            ranks = flat.take(p_sums + offset[:, None]).sum(axis=0)
            total = float(np.sum(p_coeffs * self.y[ranks]))
        else:
            q_sums = (q_sums + offset[:, None])[:, None, :]
            total = 0.0
            for rows in _row_blocks(len(p_coeffs), len(q_coeffs)):
                ranks = flat.take(p_sums[:, rows, None] + q_sums).sum(axis=0)
                total += float(p_coeffs[rows] @ self.y[ranks] @ q_coeffs)
        if not math.isfinite(total):
            raise ValueError(f"L(p q) = {total} is not finite")
        return total

    def moment_matrix(self, order: int, shift: Polynomial | None = None) -> MomentMatrix:
        """Matrix of b -> L(shift * b^2) on the monomials of degree <= order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if shift is not None and shift.dimension != self.dimension:
            raise ValueError("shift polynomial has wrong dimension")
        shift_degree = 0 if shift is None else max(shift.degree(), 0)
        if 2 * order + shift_degree > self.max_degree:
            raise DegreeOverflowError(
                f"matrix order {order} with shift degree {shift_degree} needs "
                f"moments of degree {2 * order + shift_degree} > {self.max_degree}"
            )
        positions = _monomial_positions(self.dimension, 2 * order)
        if shift is None:  # the one gather of this order per sequence
            block = _plain_block(self, order)
            return MomentMatrix(SymMatrix.gathered(self.y[: len(positions)], block))
        scaled, coefficients, _ = _term_data(shift)
        flat = _rank_table(self.max_degree, self.dimension)[0]
        ranks = flat.take(positions[:, :, None] + scaled).sum(axis=1)
        shifted = np.zeros(len(positions))
        for column, coeff in zip(ranks.T, coefficients):
            shifted = shifted + coeff * self.y[column]
        gathered = shifted[_gram_index(self.dimension, order)]
        return MomentMatrix(SymMatrix.gathered(shifted, gathered))

    # -- documents ----------------------------------------------------------

    def to_document(self) -> dict:
        indices = _monomial_array(self.dimension, self.max_degree).tolist()
        moments = [{"index": i, "value": v} for i, v in zip(indices, self.y.tolist())]
        return {
            "dimension": self.dimension,
            "max_degree": self.max_degree,
            "moments": moments,
        }

    def to_text(self) -> str:
        """``json.dumps(self.to_document(), sort_keys=True, allow_nan=False)``,
        byte for byte, without the document: the cached text of each entry
        up to its value (``_index_pieces``), joined with the JSON text of the
        values. A non-finite value raises json's ValueError."""
        values = json.dumps(self.y.tolist(), allow_nan=False)[1:-1].split(", ")
        pieces = _index_pieces(self.dimension, self.max_degree)
        return (f'{{"dimension": {json.dumps(self.dimension)}, '
                f'"max_degree": {json.dumps(self.max_degree)}, "moments": ['
                + "}, ".join(map(add, pieces, values)) + "}]}")

    @classmethod
    def from_text(cls, text: str) -> "MomentSequence":
        """``from_document(json.loads(text))``: the same sequence, or the same
        exception with the same message.

        A table laid out as ``to_text`` writes it, its entries in any order,
        with or without one trailing newline, is read without building the
        document. One regex reads the head. Inserting ``}, `` after each
        ``"value": `` and splitting at ``}, `` leaves the entry texts up to
        their values and the values, in turn. Every value must be a JSON
        number with a fraction or an exponent, which json reads with
        ``float``. The entry texts must equal the cached ``_index_pieces``
        (one list comparison) or map through ``_index_ranks`` to distinct
        ranks. The table's size is bounded by the number of pieces, and the
        dimension by the text's length, before any entry text is enumerated.
        Any other text is parsed by ``json``.
        """
        head = _TEXT_HEAD.match(text)
        tail = "}]}\n" if text.endswith("\n") else "}]}"
        if head and text.endswith(tail):
            dimension, max_degree = int(head[1]), int(head[2])
            body = text[head.end():len(text) - len(tail)]
            parts = body.replace('"value": ', '"value": }, ').split("}, ")
            if (dimension <= len(text)
                    and 2 * _table_size(dimension, max_degree, len(parts)) == len(parts)):
                y = _text_moments(dimension, max_degree, parts[0::2], parts[1::2])
                if y is not None:
                    return cls._from_dense(dimension, max_degree, y)
        return cls.from_document(json.loads(text))

    @classmethod
    def from_document(cls, doc: Mapping) -> "MomentSequence":
        try:
            dimension = _integer(doc["dimension"], "dimension")
            max_degree = _integer(doc["max_degree"], "max_degree")
            pairs = list(map(itemgetter("index", "value"), doc["moments"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed moment document: {exc}") from exc
        keys, values = [key for key, _ in pairs], [value for _, value in pairs]
        y = _dense_moments(dimension, max_degree, keys, values)
        return cls._from_dense(dimension, max_degree, y)

    def __repr__(self) -> str:
        return (
            f"MomentSequence(dimension={self.dimension}, max_degree={self.max_degree}, "
            f"normalized={self.normalized})"
        )


def from_measure(spec: MeasureSpec, max_degree: int) -> MomentSequence:
    """Moment sequence of a known measure, exact through ``max_degree``.

    Atoms and boxes take the one product-measure path of the module
    docstring. A box needs Gauss-Legendre ``order >= max_degree // 2 + 1``
    so every stored monomial is integrated exactly.
    """
    powers = range(max_degree + 1)
    if spec.atoms is not None:
        try:
            components = [
                (weight, [[x**e for e in powers] for x in point]) for point, weight in spec.atoms
            ]
        except OverflowError:
            raise ValueError(
                f"powers of the atom coordinates overflow by degree {max_degree}"
            ) from None
    else:
        bounds, order = spec.box
        needed = max_degree // 2 + 1
        if order < needed:
            raise ValueError(
                f"quadrature order {order} too small for max_degree {max_degree}: "
                f"need order >= max_degree/2 + 1 = {needed}"
            )
        base_nodes, base_weights = gauss_legendre(order)
        sides = []
        for lo, hi in bounds:
            half = 0.5 * (hi - lo)
            xs, ws = 0.5 * (hi + lo) + half * base_nodes, half * base_weights
            sides.append([float(np.sum(ws * xs**e)) for e in powers])
        components = [(1.0, sides)]
    exponents = _monomial_array(spec.dimension, max_degree)
    y = np.zeros(len(exponents))
    # components in spec order, factors left to right from the weight: the
    # same floating-point operations as summing atom by atom
    for weight, tables in components:
        term = np.full(len(exponents), weight)
        for column, table in zip(exponents.T, tables):
            term *= np.array(table)[column]
        y += term
    return MomentSequence._from_dense(spec.dimension, max_degree, y)


__all__ = [
    "MeasureSpec",
    "MomentMatrix",
    "MomentSequence",
    "from_measure",
    "gauss_legendre",
    "grlex_rank",
]
