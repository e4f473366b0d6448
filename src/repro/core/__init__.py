"""The paper's primary contribution: Δ-coloring algorithms and machinery.

* :mod:`repro.core.degree_choosable` — constructive Theorem 8 colorer.
* :mod:`repro.core.dcc` — DCC detection + virtual graph G_DCC (phases 1-2).
* :mod:`repro.core.brooks` — distributed Brooks' theorem (Theorem 5).
* :mod:`repro.core.layering` — the layering technique (Section 3).
* :mod:`repro.core.marking` — the marking process (phase 4).
* :mod:`repro.core.happiness` — happiness layers (phase 5).
* :mod:`repro.core.small_components` — leftover components (phase 6).
* :mod:`repro.core.randomized` — Theorems 1 and 3 orchestrators.
* :mod:`repro.core.deterministic` — Theorem 4 (subsuming Theorem 21).
* :mod:`repro.core.special_cases` — Brooks' excluded families and the
  per-component dispatcher.

The pipelines are engines behind :func:`repro.api.solve`: each returns a
:class:`repro.local.rounds.EngineRun`, and the facade checks niceness
and validates the coloring once per solve.
"""

from repro.core.brooks import BrooksFixResult, default_fix_radius, fix_uncolored_node
from repro.core.colorstore import ColorStore
from repro.core.dcc import DCCDetection, detect_dccs, virtual_graph_ruling_set
from repro.core.degree_choosable import backtracking_list_color, degree_list_color
from repro.core.deterministic import ruling_distance
from repro.core.happiness import HappinessLayers, build_happiness_layers
from repro.core.layering import LayerColoringReport, color_layers_in_reverse
from repro.core.marking import (
    MarkingOutcome,
    default_selection_probability,
    marking_process,
)
from repro.core.randomized import RandomizedParams
from repro.core.small_components import SmallComponentsReport, color_small_components
from repro.core.special_cases import SpecialColoring, color_special
from repro.core.slocal_coloring import slocal_delta_coloring

__all__ = [
    "degree_list_color",
    "backtracking_list_color",
    "DCCDetection",
    "detect_dccs",
    "virtual_graph_ruling_set",
    "BrooksFixResult",
    "fix_uncolored_node",
    "default_fix_radius",
    "ColorStore",
    "LayerColoringReport",
    "color_layers_in_reverse",
    "MarkingOutcome",
    "marking_process",
    "default_selection_probability",
    "HappinessLayers",
    "build_happiness_layers",
    "SmallComponentsReport",
    "color_small_components",
    "RandomizedParams",
    "ruling_distance",
    "SpecialColoring",
    "color_special",
    "slocal_delta_coloring",
]
