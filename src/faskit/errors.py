"""Exception hierarchy shared across the package.

Every error raised by faskit derives from :class:`FaskitError` so callers
(and the CLI) can catch one type. Names describe the condition, messages
carry the offending quantities.
"""


class FaskitError(Exception):
    """Base class for all faskit errors."""


class DimensionMismatchError(FaskitError):
    """Array shapes are incompatible with the requested operation."""


class InsufficientObservationsError(FaskitError):
    """Fewer rows than the operation needs (n must exceed the column count)."""


class RankDeficientError(FaskitError):
    """Design matrix is numerically rank deficient at the pivot tolerance."""


class InvalidCountError(FaskitError):
    """An instrument count outside the supported range (k_z >= 1)."""


class TooManyInstrumentsError(FaskitError):
    """Instrument count above the enumeration cap."""


class ZeroFirstStageError(FaskitError):
    """The just-identifying moment z'x is numerically zero; no estimand."""


class WeakIdentificationError(FaskitError):
    """The projected first stage x'P_Z x is numerically zero in 2SLS."""


class SingularSigmaError(FaskitError):
    """A population instrument covariance matrix that is not positive definite."""


class InvalidVarianceError(FaskitError):
    """Structural error variance implied by (var_u, alpha, sigma_z) is not positive."""


class MissingColumnError(FaskitError):
    """A referenced column is absent from the data file."""


class AmbiguousColumnError(FaskitError):
    """A column name is duplicated in the header or referenced for two roles."""


class ParseError(FaskitError):
    """A referenced cell does not parse as a finite decimal number."""


class EmptyAfterFilteringError(FaskitError):
    """Listwise deletion removed every row."""
