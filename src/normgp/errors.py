"""Exception hierarchy for normgp.

Plain ``ValueError`` is used for ordinary contract violations (dimension
mismatches, bad argument ranges). The classes below mark failures that
callers are expected to distinguish, e.g. for CLI exit codes.
"""


class NormgpError(Exception):
    """Base class for all normgp-specific errors."""


class CohortParseError(NormgpError):
    """A delimited input file could not be parsed.

    Carries human-readable row/column context in the message.
    """


class SchemaError(NormgpError):
    """Column roles or feature names do not match what was expected."""


class ModelFormatError(NormgpError):
    """Model file has the wrong magic line or an unsupported version."""


class ModelIntegrityError(NormgpError):
    """Model file is truncated; inconsistent contents raise ``ModelFormatError``."""


class ConditioningError(NormgpError):
    """Cholesky factorization failed even at the largest allowed jitter."""

    def __init__(self, message: str, attempted_jitters: list[float] | None = None):
        super().__init__(message)
        self.attempted_jitters = attempted_jitters or []


class NumericalError(NormgpError):
    """A numerical invariant was violated beyond repairable roundoff."""
