"""Subgroup arithmetic in groups given by consistent polycyclic presentations.

The package computes induced generating sequences (igs) of finitely
generated subgroups, from which subgroup order, index in the parent
group, membership and subgroup equality all read off exactly, for finite
and infinite polycyclic groups alike.  All arithmetic is exact
big-integer arithmetic.
"""

from .presentation import (
    PcPresentation,
    PcpError,
    PcpSyntaxError,
    PcpValidationError,
    format_word,
    load_presentation,
    parse_word,
    save_presentation,
    validate_inverse_tails,
)
from .elements import (
    INFINITE,
    Element,
    PresentationMismatch,
    collect,
    generator,
    generators,
    identity,
)
from .igs import (
    Igs,
    SiftResult,
    add_gen_to_pigs,
    canonical_igs,
    igs_by_generators,
    sift,
    subgroup_index,
    subgroup_order,
    subgroups_equal,
    verify_igs,
)
from .oracle import (
    DEFAULT_BOUND,
    EnumerationBoundExceeded,
    FiniteGroupTable,
    InfiniteGroupError,
    enumerate_subgroup,
    hermite_normal_form,
)

__all__ = [
    "INFINITE",
    "PcPresentation", "PcpError", "PcpSyntaxError", "PcpValidationError",
    "format_word", "load_presentation", "parse_word", "save_presentation",
    "validate_inverse_tails",
    "Element", "PresentationMismatch",
    "collect", "generator", "generators", "identity",
    "Igs", "SiftResult", "add_gen_to_pigs", "canonical_igs",
    "igs_by_generators", "sift", "subgroup_index", "subgroup_order",
    "subgroups_equal", "verify_igs",
    "DEFAULT_BOUND", "EnumerationBoundExceeded", "FiniteGroupTable",
    "InfiniteGroupError", "enumerate_subgroup", "hermite_normal_form",
]

__version__ = "0.1.0"
