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
  ``p q``. The scaled suffix sums, float coefficients and degree of a
  polynomial are computed once and memoized on the (immutable) polynomial,
  so repeated calls with the same factors do no per-term Python work;
* ``moment_matrix(order, shift)`` gathers the shifted moment vector
  ``sum_d c_d y[rank(g + d)]`` through the index table
  ``T[i, j] = rank(b_i + b_j)`` of the order-``order`` basis, cached per
  (dimension, order). Shift terms are accumulated in ``shift.terms`` order,
  so the entries are the same floating-point numbers a term-by-term
  summation gives.

No cache is sized like ``(max_degree + 1)^d`` or like the square of the
number of stored monomials.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
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
    """Rank data of a nonzero p, memoized in ``p._arrays``: the scaled suffix
    sums ``(d + 1) * R`` with one row per variable and one column per term,
    the float coefficients, and the degree. Terms are in sorted exponent
    order, so equal polynomials give the same arrays however their terms
    were inserted, and ``apply`` sums them in the same order.
    """
    if p._arrays is None:
        keys = sorted(p.terms)
        suffix = np.ascontiguousarray(_suffix_sums(np.array(keys, dtype=np.intp)).T)
        scaled = (p.dimension + 1) * suffix
        coefficients = np.array([float(p.terms[k]) for k in keys])
        scaled.flags.writeable = False
        coefficients.flags.writeable = False
        p._arrays = (scaled, coefficients, int(suffix[0].max()))
    return p._arrays


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


def _dense_moments(dimension: int, max_degree: int, pairs) -> np.ndarray:
    """The grlex moment vector of (index, value) pairs; ValueError on a bad
    index or value, and unless each index up to max_degree is listed once."""
    exponents, values = [], []
    for key, value in pairs:
        index = _multi_index(key, dimension)
        if sum(index) > max_degree:
            raise ValueError(f"index {index} exceeds max_degree {max_degree}")
        try:
            values.append(float(value))
        except (TypeError, ValueError):
            raise ValueError(f"moment value at {index} must be a number, got {value!r}") from None
        exponents.extend(index)
    # C(max_degree + j, j) grows with j to the size of a complete table: a
    # short list fails at the first j past it, before anything is enumerated
    needed = 1
    for j in range(1, dimension + 1):
        needed = needed * (max_degree + j) // j
        if needed > len(values):
            raise ValueError(
                f"moment table incomplete: {len(values)} indices listed, at least {needed} needed"
            )
    monomials = _monomial_array(dimension, max_degree)
    ranks = grlex_rank(np.array(exponents, dtype=np.intp).reshape(-1, dimension))
    counts = np.bincount(ranks, minlength=len(monomials))
    repeated = np.flatnonzero(counts > 1)
    if repeated.size:
        raise ValueError(f"moment index {monomials[repeated[0]].tolist()} listed more than once")
    # at least len(monomials) distinct ranks below len(monomials): none is missing
    y = np.empty(len(monomials))
    y[ranks] = values
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
        except TypeError as exc:
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
    have unit mass; ``scale`` keeps the original L(1) so oracle provenance is
    not lost.
    """

    __slots__ = ("dimension", "max_degree", "y", "normalized", "scale", "origin", "_cache")

    def __init__(self, dimension: int, max_degree: int, values: Mapping, origin: str = ""):
        y = _dense_moments(dimension, max_degree, values.items())
        self._store(dimension, max_degree, y, origin)

    @classmethod
    def _from_dense(cls, dimension: int, max_degree: int, y, origin: str) -> "MomentSequence":
        """A sequence from its grlex moment vector (no indices to check)."""
        seq = cls.__new__(cls)
        seq._store(dimension, max_degree, y, origin)
        return seq

    def _store(self, dimension: int, max_degree: int, y, origin: str):
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
        self.origin = origin
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
        pairs, over the memoized term data of p and q (``_term_data``).
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
        if shift is None:
            shift = Polynomial.constant(self.dimension, 1.0)
        if shift.dimension != self.dimension:
            raise ValueError("shift polynomial has wrong dimension")
        shift_degree = max(shift.degree(), 0)
        if 2 * order + shift_degree > self.max_degree:
            raise DegreeOverflowError(
                f"matrix order {order} with shift degree {shift_degree} needs "
                f"moments of degree {2 * order + shift_degree} > {self.max_degree}"
            )
        flat = _rank_table(self.max_degree, self.dimension)[0]
        positions = _monomial_positions(self.dimension, 2 * order)
        shifted = np.zeros(len(positions))
        for delta, coeff in shift.terms.items():
            delta_positions = (self.dimension + 1) * _suffix_sums(np.array(delta))
            shifted = shifted + float(coeff) * self.y[flat.take(positions + delta_positions).sum(1)]
        return MomentMatrix(SymMatrix(shifted[_gram_index(self.dimension, order)]))

    # -- documents ----------------------------------------------------------

    def to_document(self) -> dict:
        indices = enumerate_monomials(self.dimension, self.max_degree)
        moments = [{"index": list(i), "value": v} for i, v in zip(indices, self.y.tolist())]
        return {
            "dimension": self.dimension,
            "max_degree": self.max_degree,
            "moments": moments,
        }

    @classmethod
    def from_document(cls, doc: Mapping, origin: str = "document") -> "MomentSequence":
        try:
            dimension = _integer(doc["dimension"], "dimension")
            max_degree = _integer(doc["max_degree"], "max_degree")
            pairs = [(m["index"], m["value"]) for m in doc["moments"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed moment document: {exc}") from exc
        y = _dense_moments(dimension, max_degree, pairs)
        return cls._from_dense(dimension, max_degree, y, origin)

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
        origin = f"atoms({len(spec.atoms)})"
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
        origin = f"box(order={order})"
    exponents = _monomial_array(spec.dimension, max_degree)
    y = np.zeros(len(exponents))
    # components in spec order, factors left to right from the weight: the
    # same floating-point operations as summing atom by atom
    for weight, tables in components:
        term = np.full(len(exponents), weight)
        for column, table in zip(exponents.T, tables):
            term *= np.array(table)[column]
        y += term
    return MomentSequence._from_dense(spec.dimension, max_degree, y, origin)


__all__ = [
    "MeasureSpec",
    "MomentMatrix",
    "MomentSequence",
    "from_measure",
    "gauss_legendre",
    "grlex_rank",
]
