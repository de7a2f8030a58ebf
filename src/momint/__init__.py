"""Finite-truncation analysis of moment functionals.

Everything is computed from a truncated moment table alone: growth bounds
from even-power roots, Rayleigh bounds from localized/plain matrix pencils,
quadratic-module membership tests, archimedean bounds, positivity checks on
products and semialgebraic data, spectral-measure reconstruction by Gauss
quadrature, and the complex disc criterion on the pair semigroup.
``quadratic_module_psd`` gives every PSD verdict on a real moment matrix,
``pencil_extremes(a, sym_eig(b))`` the Rayleigh extremes of a pencil, and
``archimedean_bound(seq, a, order)`` the least M with M - a localized PSD;
the bounds of a^2 are those of the polynomial ``a * a``.
"""

from .bounds import (
    GrowthBound,
    MembershipVerdict,
    RayleighBounds,
    archimedean_bound,
    growth_bound,
    quadratic_module_growth,
    quadratic_module_psd,
    rayleigh_bounds,
)
from .certify import (
    CheckReport,
    FactorPair,
    Violation,
    ball_check,
    cone_positivity_check,
    growth_check,
    interval_membership_check,
    product_positivity_check,
    run_check_config,
    schmudgen_check,
    weak_absolute_value_check,
)
from .exceptions import (
    CeilingExceededError,
    CoverageError,
    DegreeOverflowError,
    EigensolverError,
    MomintError,
    NotNormalizedError,
    NotPsdError,
    PolynomialParseError,
    RankDeficiencyError,
)
from .linalg import (
    EigenDecomposition,
    PsdVerdict,
    SymMatrix,
    pencil_extremes,
    psd_check,
    sym_eig,
)
from .moments import MeasureSpec, MomentMatrix, MomentSequence, from_measure, gauss_legendre
from .polynomials import (
    Polynomial,
    default_variable_names,
    enumerate_monomials,
    format_polynomial,
    grlex_key,
    parse_polynomial,
)
from .semigroup import (
    ComplexMomentFunction,
    SemigroupElement,
    diagonal_growth_bound,
    disc_check,
    from_complex_atoms,
    psd_kernel_check,
)
from .spectral import (
    DiscreteMeasure,
    operator_moments,
    quadrature_from_moments,
    rayleigh_interval,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """The eigensolver backend: always 'lapack' (``numpy.linalg.eigh``)."""
    return "lapack"
