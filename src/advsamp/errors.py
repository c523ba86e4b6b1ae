"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, data errors -> 2,
numeric failures -> 3, no compiled kernel -> 4.
"""


class AdvsampError(Exception):
    """Base class for all package-specific errors."""


class ParseError(AdvsampError):
    """Malformed input file (carries the offending line number)."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DataError(AdvsampError):
    """Semantically invalid data (empty dataset, dimension mismatch, ...)."""


class NumericError(AdvsampError):
    """Numerical failure: non-finite values, singular systems, divergence."""


class KernelError(AdvsampError):
    """The compiled kernel cannot be built or loaded (no C compiler, or the
    build failed)."""
