"""repro — a LOCAL-model reproduction of *Improved Distributed Δ-Coloring*
(Ghaffari, Hirvonen, Kuhn, Maus; PODC 2018, arXiv:1803.03248).

The package builds the paper's complete algorithmic system: the randomized
Δ-coloring algorithms (Theorems 1 and 3), the deterministic one (Theorem
4), the distributed Brooks' theorem repair procedure (Theorem 5), the
structural machinery (degree-choosable components, Gallai trees, the
marking process, layering, shattering), every substrate they cite (Linial
coloring, MIS, ruling sets, (deg+1)-list coloring), and the
Panconesi–Srinivasan baseline they improve on.

Quick start — everything routes through the unified solver facade
(:mod:`repro.api`)::

    from repro import random_regular_graph, solve

    graph = random_regular_graph(1000, d=4, seed=1)
    result = solve(graph, seed=1)            # "auto": picks by (n, Δ, class)
    print(result.algorithm, result.palette)  # randomized-large, Δ = 4 colors
    print(result.rounds, result.phase_rounds)
    print(result.as_dict()["wall_time_s"])   # JSON-ready schema

    # Pick an engine by registry name, batch over a process pool:
    from repro import SolverConfig, solve_many, list_algorithms

    print(list_algorithms())  # auto, randomized, ..., ps, greedy, components
    results = solve_many(graphs, SolverConfig(algorithm="ps"), workers=4)

:func:`solve` is the only way to run an engine; docs/API.md maps each
removed pre-facade entry point (``delta_color``, the per-theorem
``delta_coloring_*`` functions, ``color_graph``) to its ``solve`` call,
and links the service, storage and incremental docs next to it.
perfbench/README.md describes the benchmark: the workloads, every
end-to-end and per-layer metric, and how to run it.
"""

from repro.api import (
    AlgorithmSpec,
    ColoringResult,
    SolverConfig,
    SolverPool,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    solve,
    solve_many,
)
from repro.baselines import centralized_brooks, centralized_greedy
from repro.core import (
    RandomizedParams,
    default_fix_radius,
    degree_list_color,
    color_special,
    fix_uncolored_node,
    slocal_delta_coloring,
)
from repro.errors import (
    AlgorithmContractError,
    ColoringError,
    GraphError,
    InfeasibleListColoringError,
    NotNiceGraphError,
    ReproError,
)
from repro.graphs import (
    Graph,
    UNCOLORED,
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    hypercube,
    is_gallai_tree,
    is_nice,
    path_graph,
    random_gallai_tree,
    random_graph_with_max_degree,
    random_nice_graph,
    random_regular_graph,
    random_tree,
    torus_grid,
    validate_coloring,
)
from repro.graphs.generators import high_girth_regular_graph
from repro.local import RoundLedger

__version__ = "1.0.0"

__all__ = [
    "solve",
    "solve_many",
    "SolverConfig",
    "SolverPool",
    "ColoringResult",
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "Graph",
    "UNCOLORED",
    "validate_coloring",
    "RandomizedParams",
    "color_special",
    "slocal_delta_coloring",
    "centralized_brooks",
    "centralized_greedy",
    "degree_list_color",
    "fix_uncolored_node",
    "default_fix_radius",
    "RoundLedger",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "complete_graph_minus_edge",
    "torus_grid",
    "hypercube",
    "random_regular_graph",
    "high_girth_regular_graph",
    "random_graph_with_max_degree",
    "random_nice_graph",
    "random_gallai_tree",
    "random_tree",
    "is_nice",
    "is_gallai_tree",
    "ReproError",
    "GraphError",
    "ColoringError",
    "NotNiceGraphError",
    "InfeasibleListColoringError",
    "AlgorithmContractError",
]

