"""Exception types shared across the package."""


class MomintError(Exception):
    """Base class for all package-specific errors."""


class DegreeOverflowError(MomintError):
    """A query needs moments beyond the stored truncation degree."""


class NotNormalizedError(MomintError):
    """An operation requiring unit mass was given a functional with L(1) != 1."""


class NotPsdError(MomintError):
    """A matrix required to be positive semidefinite is not, beyond tolerance."""


class RankDeficiencyError(MomintError):
    """Effective rank is too small for the requested computation.

    ``achievable`` carries the largest rank (or node count) that the data
    supports, when known.
    """

    def __init__(self, message: str, achievable: int | None = None):
        super().__init__(message)
        self.achievable = achievable


class EigensolverError(MomintError):
    """The dense eigensolver failed to converge on a finite matrix."""


class CoverageError(MomintError):
    """A semigroup moment table is missing entries needed for the query."""


class PolynomialParseError(MomintError):
    """Text input could not be parsed as a polynomial."""
