"""The exception every failed internal exactness check raises."""


class VerificationError(Exception):
    """An internal exactness check failed: an implementation bug, not bad input."""
