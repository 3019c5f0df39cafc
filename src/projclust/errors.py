"""Exception hierarchy shared across the package."""


class ProjclustError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ProjclustError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DimensionMismatchError(DomainError):
    """Array shapes are incompatible (e.g. direction length != data dim)."""


class InsufficientSampleError(DomainError):
    """Too few samples for the requested estimator."""


class DegenerateMixtureError(DomainError):
    """The mixture is degenerate (e.g. both covariances are zero)."""


class NoBoundaryError(ProjclustError):
    """The two components admit no finite decision threshold."""
