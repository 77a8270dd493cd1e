"""Exception types shared across the package."""


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
