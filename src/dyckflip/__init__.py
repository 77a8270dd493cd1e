"""Partial-reflection bijection between balanced lattice paths and
unbalanced Dyck paths, with exhaustive verification of the identity
sum_i C(2i,i)*C(2n-2i,n-i) = 4^n.
"""

from .bijection import (
    BijectionTrace,
    Direction,
    compose_law_check,
    phi,
    phi_inverse,
    verify_roundtrip,
)
from .census import (
    CensusReport,
    binomial,
    enumerate_class,
    identity_lhs,
    last_zero_touch,
    split_at_last_zero,
    verify_bijection,
    verify_identity,
)
from .decompose import Decomposition, Segment, SegmentKind, decompose, recompose, validate
from .errors import (
    DomainError,
    DownStartError,
    EmptyPathError,
    NotBalancedError,
    NotUnbalancedError,
    OddLengthError,
    ParseError,
    PreconditionError,
    RangeError,
    ValidationError,
)
from .path import (
    LatticePath,
    PathClass,
    all_paths,
    classify,
    concat,
    format_path,
    max_height,
    parse_path,
    rank,
    reflect_all,
    reflect_segment,
    rightmost_crossing,
    unrank,
)
from .render import RenderSpec, render_ascii, render_svg

__version__ = "0.1.0"

__all__ = [
    "BijectionTrace",
    "CensusReport",
    "Decomposition",
    "Direction",
    "DomainError",
    "DownStartError",
    "EmptyPathError",
    "LatticePath",
    "NotBalancedError",
    "NotUnbalancedError",
    "OddLengthError",
    "ParseError",
    "PathClass",
    "PreconditionError",
    "RangeError",
    "RenderSpec",
    "Segment",
    "SegmentKind",
    "ValidationError",
    "all_paths",
    "binomial",
    "classify",
    "compose_law_check",
    "concat",
    "decompose",
    "enumerate_class",
    "format_path",
    "identity_lhs",
    "last_zero_touch",
    "max_height",
    "parse_path",
    "phi",
    "phi_inverse",
    "rank",
    "recompose",
    "reflect_all",
    "reflect_segment",
    "render_ascii",
    "render_svg",
    "rightmost_crossing",
    "split_at_last_zero",
    "unrank",
    "validate",
    "verify_bijection",
    "verify_identity",
    "verify_roundtrip",
]
