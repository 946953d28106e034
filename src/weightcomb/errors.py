"""Shared exception types.

Domain errors (bad mathematical input) are plain ValueError, exit 2 on the
command line; of the two subclasses only BoundExceededError has its own (3).
"""


class UnsupportedRegimeError(ValueError):
    """Raised for parameter regimes the theory deliberately excludes,
    e.g. ell = 2 without 4 | (q - eps)."""


class BoundExceededError(ValueError):
    """Raised when a request exceeds a documented size or policy bound."""
