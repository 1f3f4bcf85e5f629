"""Exception types shared across the package.

The CLI maps these onto exit codes: ConstraintError -> 2,
ResourceLimitError and MemoryError -> 3, file I/O errors -> 4.
"""


class ConstraintError(ValueError):
    """A requested value violates a documented bound or precondition."""


class ResourceLimitError(RuntimeError):
    """The request would exceed a memory or qubit budget."""


class CircuitParseError(ValueError):
    """Malformed circuit text. Carries the offending line and token."""

    def __init__(self, message, line_number, token=None):
        detail = f"line {line_number}: {message}"
        if token is not None:
            detail += f" (token {token!r})"
        super().__init__(detail)
        self.line_number = line_number
        self.token = token
