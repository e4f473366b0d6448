"""Distributed primitives: the substrates the paper's algorithms cite.

* :mod:`repro.primitives.linial` — O(Δ²) coloring in O(log* n) rounds.
* :mod:`repro.primitives.mis` — Luby and Ghaffari MIS (+ power-graph and
  message-passing variants).
* :mod:`repro.primitives.ruling_sets` — the Lemma 20 ruling-set toolbox.
* :mod:`repro.primitives.list_coloring` — (deg+1)-list coloring engines
  (Theorems 18/19 substitutes).
* :mod:`repro.primitives.decomposition` — small-component finishers
  (Lemma 24 substitutes).
"""

from repro.primitives.decomposition import (
    Clustering,
    gather_component_cost,
    mpx_clustering,
    solve_component_by_clustering,
    solve_components_by_gathering,
)
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
from repro.primitives.mis import (
    LubyProgram,
    MISResult,
    ghaffari_mis,
    greedy_mis_from_coloring,
    luby_mis,
    power_graph_mis,
)
from repro.primitives.numbers import ilog_star, int_to_digits, is_prime, next_prime
from repro.primitives.ruling_sets import (
    RulingSetResult,
    ruling_forest_aglp,
    ruling_set_from_coloring,
    ruling_set_random,
    verify_ruling_set,
)

__all__ = [
    "LinialResult",
    "linial_coloring",
    "reduction_schedule",
    "MISResult",
    "luby_mis",
    "ghaffari_mis",
    "power_graph_mis",
    "greedy_mis_from_coloring",
    "LubyProgram",
    "RulingSetResult",
    "ruling_forest_aglp",
    "ruling_set_random",
    "ruling_set_from_coloring",
    "verify_ruling_set",
    "ListColoringStats",
    "available_colors",
    "first_available_color",
    "list_coloring_random",
    "list_coloring_hybrid",
    "list_coloring_deterministic",
    "greedy_color_sequential",
    "Clustering",
    "gather_component_cost",
    "mpx_clustering",
    "solve_component_by_clustering",
    "solve_components_by_gathering",
    "is_prime",
    "next_prime",
    "int_to_digits",
    "ilog_star",
]
