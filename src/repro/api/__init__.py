"""repro.api — the unified solver facade.

One stable surface over the package's family of Δ-coloring pipelines:

* a string-keyed **algorithm registry** with capability metadata
  (:func:`list_algorithms`, :func:`get_algorithm`,
  :func:`register_algorithm`, :class:`AlgorithmSpec`);
* a single frozen result type (:class:`ColoringResult`,
  JSON-round-trippable via ``as_dict`` / ``from_dict``) that
  :func:`solve` packs every engine's :class:`repro.local.rounds.EngineRun`
  into;
* one configuration object (:class:`SolverConfig`) consolidating the
  previously scattered kwargs, including an ``on_phase`` observer hook;
* :func:`solve` for one graph and :func:`solve_many` (+
  :class:`SolverPool`) for process-parallel batches;
* :func:`solve_incremental` for graph *streams* — re-color after an
  edge delta by local repair of a parent result instead of a fresh
  solve (see :mod:`repro.core.incremental` and docs/INCREMENTAL.md).

Quick start::

    from repro.api import solve, solve_many, SolverConfig

    result = solve(graph, algorithm="randomized", seed=1)
    print(result.rounds, result.palette, result.as_dict()["phase_rounds"])

    results = solve_many(graphs, SolverConfig(algorithm="ps"), workers=4)

See docs/API.md for the registry names, config fields, and the result
schema.  :func:`solve` is the only way to run an engine: it checks
niceness once (for algorithms that need it) and validates the coloring
once.  The pre-facade entry points (``repro.delta_color``,
``repro.color_graph``, the per-theorem functions) are gone; docs/API.md
maps each to its ``solve`` call.
"""

from repro.api.config import PhaseObserver, SolverConfig
from repro.api.registry import (
    AlgorithmSpec,
    algorithm_specs,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)
from repro.api.result import ColoringResult
from repro.api.solver import (
    IncrementalUpdate,
    SolverPool,
    apply_incremental,
    default_workers,
    solve,
    solve_incremental,
    solve_many,
)

__all__ = [
    "solve",
    "solve_many",
    "solve_incremental",
    "apply_incremental",
    "IncrementalUpdate",
    "SolverPool",
    "SolverConfig",
    "ColoringResult",
    "PhaseObserver",
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "algorithm_specs",
    "default_workers",
]
