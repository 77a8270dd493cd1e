"""Partial-reflection bijection between balanced lattice paths and
unbalanced Dyck paths, with exhaustive verification of the identity
sum_i C(2i,i)*C(2n-2i,n-i) = 4^n.

Importing the package imports none of its modules, and so no numpy: each
public name is looked up in its home module on first access (PEP 562) and
then kept here, so later lookups are plain dict hits. The exception types
and `MAX_CELL_SIZE` are defined here, so that every module, `cli` among
them, imports them from the root without loading another module.
"""

from importlib import import_module

__version__ = "0.1.0"

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


# each public name defined in a module, by that module
_HOMES = {
    name: home
    for home, names in {
        "bijection": "BijectionTrace Decomposition Direction Segment SegmentKind compose_law_check decompose phi "
        "phi_inverse recompose validate verify_roundtrip",
        "census": "CensusReport enumerate_class last_zero_touch split_at_last_zero verify_bijection",
        "identity": "IdentityReport binomial identity_lhs verify_identity",
        "path": "LatticePath PathClass all_paths classify concat format_path max_height parse_path rank reflect_all "
        "unrank",
        "render": "RenderSpec render_ascii render_svg",
    }.items()
    for name in names.split()
}

# the names of _HOMES and the exception types above
__all__ = sorted([*_HOMES, *(name for name, value in globals().items() if isinstance(value, type))])


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
