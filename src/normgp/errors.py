"""Exception hierarchy for normgp: two families, one per CLI exit code.

Bad input is a ``ValueError`` (exit 2): plain for ordinary contract
violations (dimension mismatches, bad argument ranges), or one of the
classes below that subclass it. A numerical failure is a
``NumericalError`` (exit 3), ``ConditioningError`` among them; it is not a
``ValueError``, so no input handler catches it.
"""


class CohortParseError(ValueError):
    """A delimited input file could not be parsed.

    Carries human-readable row/column context in the message.
    """


class SchemaError(ValueError):
    """Column roles or feature names do not match what was expected."""


class ModelFormatError(ValueError):
    """Model file is truncated, or its magic line, version or contents are wrong."""


class NumericalError(Exception):
    """A numerical invariant was violated beyond repairable roundoff."""


class ConditioningError(NumericalError):
    """Cholesky factorization failed even at the largest allowed jitter."""
