"""Every numeric threshold of the package, each defined once with the error
it absorbs. The README's numerical-policy table lists the same entries, and
a test compares the two."""

from __future__ import annotations

import math

import numpy as np

#: PSD and check tolerance, relative to 1 + the largest entry: LAPACK is
#: backward stable, so eigenvalue errors are a small multiple of eps * ||A||
#: and small eigenvalues of ill-conditioned Hankel-type matrices carry only
#: that absolute accuracy
RELATIVE_TOL = 1e-9
#: pencil rank cutoff, relative to max_eig(B): eigensolver noise in B's null space
DEFAULT_RANK_TOL = 1e-10
#: conjugate-mirror mismatch, relative to 1 + max |entry|: decimal rounding of an input table
HERMITIAN_INGEST_TOL = 1e-12
#: quadrature weights at or below it are dropped: rounding in the Gauss eigenvectors
WEIGHT_PRUNE_TOL = 1e-12
#: Lanczos breakdown floor, relative to |A q|^T |G| |A q|: cancellation at an invariant subspace
BREAKDOWN_TOL = 1e-12
#: growth-route membership slack: both growth bounds converge from below
MEMBERSHIP_SLACK = 0.05
#: spectral PASS: moment-match and cross-check residuals from rounding in the quadrature
SPECTRAL_RESIDUAL_TOL = 1e-8
#: spectral PASS: node overshoot of the eigenvalue interval from rounding
NODE_CONTAINMENT_TOL = 1e-9


def relative_tol(values) -> float:
    """``RELATIVE_TOL * (1 + largest |Re| or |Im| of values)``: the default
    tolerance of a PSD verdict (the matrix), of a check (the moments) and of
    the disc diagonal (the table)."""
    values = np.asarray(values)
    peak = np.maximum(np.abs(values.real), np.abs(values.imag))
    return RELATIVE_TOL * (1.0 + (float(peak.max()) if peak.size else 0.0))


def exceeds(value, limit, tol):
    """``value > limit + tol``, for a float or elementwise for a numpy array:
    the one rule by which a checked number fails its limit. A NaN never
    exceeds."""
    return value > limit + tol


def saturated_limit(factor: float, base: float, exponent: int) -> float:
    """``factor * base ** exponent``, saturated to inf where the power leaves
    the float range (Python's float ``**`` raises OverflowError there): such
    a limit cannot be exceeded."""
    try:
        return factor * base**exponent
    except OverflowError:
        return math.inf
