"""Exception types shared across the package, and the bounds that the
command line quotes in its help, kept here because this module imports no
numpy."""

# every SVG coordinate is at most L·cell_size, so with this cap the int64
# polyline writer of render_svg is exact for any path that fits in memory
MAX_CELL_SIZE = 10**6


class ParseError(ValueError):
    """Raised when path text contains a character outside the alphabet."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(f"{message} (index {index})")
        self.index = index


class RangeError(ValueError):
    """Raised when a size/rank argument is outside the supported range."""


class DomainError(ValueError):
    """Base class for inputs outside an operation's domain."""

    reason = "Domain"


class NotBalancedError(DomainError):
    reason = "NotBalanced"


class DownStartError(DomainError):
    reason = "DownStart"


class EmptyPathError(DomainError):
    reason = "Empty"


class NotUnbalancedError(DomainError):
    reason = "NotUnbalanced"


class OddLengthError(DomainError):
    reason = "OddLength"


class ValidationError(ValueError):
    """Raised when a decomposition violates its structural invariants."""


class PreconditionError(ValueError):
    """Raised when a named precondition of a check is not met."""
