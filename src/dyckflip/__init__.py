"""Partial-reflection bijection between balanced lattice paths and
unbalanced Dyck paths, with exhaustive verification of the identity
sum_i C(2i,i)*C(2n-2i,n-i) = 4^n.

Importing the package imports none of its modules, and so no numpy: each
public name is looked up in its home module on first access (PEP 562) and
then kept here, so later lookups are plain dict hits.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    **dict.fromkeys(
        "BijectionTrace Decomposition Direction Segment SegmentKind compose_law_check decompose phi phi_inverse "
        "recompose validate verify_roundtrip".split(),
        "bijection",
    ),
    **dict.fromkeys(
        "CensusReport enumerate_class last_zero_touch split_at_last_zero verify_bijection".split(), "census"
    ),
    **dict.fromkeys(
        "DomainError DownStartError EmptyPathError NotBalancedError NotUnbalancedError OddLengthError ParseError "
        "PreconditionError RangeError ValidationError".split(),
        "errors",
    ),
    **dict.fromkeys("IdentityReport binomial identity_lhs verify_identity".split(), "identity"),
    **dict.fromkeys(
        "LatticePath PathClass all_paths classify concat format_path max_height parse_path rank reflect_all "
        "unrank".split(),
        "path",
    ),
    **dict.fromkeys("RenderSpec render_ascii render_svg".split(), "render"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})

