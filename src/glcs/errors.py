"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GlcsError",
    "ParseError",
    "IntegralityError",
    "FeasibilityError",
    "NotDecomposableError",
    "MismatchError",
]


class GlcsError(Exception):
    """Base class for all package errors."""


class ParseError(GlcsError):
    """Malformed edge-list input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IntegralityError(GlcsError):
    """A Mobius-inverted rank failed the divisibility check.

    Cannot happen for exponent vectors of integer entries; reachable only
    through raw power-sum sequences that no integer exponent vector realizes.
    """

    def __init__(self, degree: int, remainder: int):
        super().__init__(
            f"rank of degree {degree} is not an integer "
            f"(remainder {remainder} mod {degree})"
        )
        self.degree = degree
        self.remainder = remainder


class FeasibilityError(GlcsError):
    """A brute-force computation would exceed the configured size caps."""

    def __init__(self, message: str, *, dimension: int | None = None,
                 entries: int | None = None):
        super().__init__(message)
        self.dimension = dimension
        self.entries = entries


class NotDecomposableError(GlcsError):
    """The decomposable-arrangement formula was applied to a graph with a K_4."""


class MismatchError(GlcsError):
    """Two routes that must agree produced different values."""
