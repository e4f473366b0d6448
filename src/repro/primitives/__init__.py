"""Distributed primitives: the substrates the paper's algorithms cite.

* :mod:`repro.primitives.linial` — O(Δ²) coloring in O(log* n) rounds.
* :mod:`repro.primitives.ruling_sets` — the AGLP ruling forest of
  Theorem 4 and the (α, β) ruling-set verifier.
* :mod:`repro.primitives.list_coloring` — (deg+1)-list coloring engines
  (Theorems 18/19 substitutes), including the leader-gathering finisher
  of small components (Lemma 24 substitute).
* :mod:`repro.primitives.numbers` — primes, digits and log*.

Phase 2's ruling set on the DCC virtual graph (Lemma 20) lives with the
DCCs, in :func:`repro.core.dcc.virtual_graph_ruling_set`.
"""

from repro.primitives.linial import LinialResult, linial_coloring, reduction_schedule
from repro.primitives.list_coloring import (
    ListColoringStats,
    available_colors,
    first_available_color,
    greedy_color_sequential,
    list_coloring_deterministic,
    list_coloring_hybrid,
    list_coloring_random,
)
from repro.primitives.numbers import ilog_star, int_to_digits, is_prime, next_prime
from repro.primitives.ruling_sets import RulingSetResult, ruling_forest_aglp, verify_ruling_set

__all__ = [
    "LinialResult",
    "linial_coloring",
    "reduction_schedule",
    "RulingSetResult",
    "ruling_forest_aglp",
    "verify_ruling_set",
    "ListColoringStats",
    "available_colors",
    "first_available_color",
    "list_coloring_random",
    "list_coloring_hybrid",
    "list_coloring_deterministic",
    "greedy_color_sequential",
    "is_prime",
    "next_prime",
    "int_to_digits",
    "ilog_star",
]
