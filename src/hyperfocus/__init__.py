"""Finite geometry toolkit for classifying hyperfocused arcs in PG(2, 2^s)."""

from hyperfocus.field import (
    GF,
    DEFAULT_MODULI,
    FieldError,
    NonPrimitive,
    ReducibleModulus,
    make_field,
)
from hyperfocus.arcs import (
    HYPERFOCUSED,
    SHARPLY_FOCUSED,
    NEITHER,
    ArcError,
    classify_focus,
    focus_count,
    focus_set,
    make_arc,
    translation_arc,
    translation_hyperoval,
)
from hyperfocus.conics import (
    ConicError,
    conic_through,
    hyperconic_contains,
    hyperconic_witness,
)
from hyperfocus.canon import (
    arc_digest,
    canonical_form,
    canonical_forms,
    frobenius_orbit_reps,
)
from hyperfocus.search import SearchConfig, SearchError, SearchReport, run_search

__all__ = [
    "GF",
    "DEFAULT_MODULI",
    "FieldError",
    "NonPrimitive",
    "ReducibleModulus",
    "make_field",
    "HYPERFOCUSED",
    "SHARPLY_FOCUSED",
    "NEITHER",
    "ArcError",
    "classify_focus",
    "focus_count",
    "focus_set",
    "make_arc",
    "translation_arc",
    "translation_hyperoval",
    "ConicError",
    "conic_through",
    "hyperconic_contains",
    "hyperconic_witness",
    "arc_digest",
    "canonical_form",
    "canonical_forms",
    "frobenius_orbit_reps",
    "SearchConfig",
    "SearchError",
    "SearchReport",
    "run_search",
]
