"""The exception every failed internal exactness check raises, and the
``p/q`` text that messages and reports print a rational in."""

import math


class VerificationError(Exception):
    """An internal exactness check failed: an implementation bug, not bad input."""


def ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` without loading ``fractions``: n/d in lowest
    terms as 'p/q', the sign on the numerator, or 'p' when it is whole."""
    if d == 0:
        raise ZeroDivisionError(f"ratio({n}, 0)")
    g = math.gcd(n, d) * (-1 if d < 0 else 1)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"
