"""Graph substrate: data structure, traversal, structure theory, generators.

This subpackage contains everything the LOCAL-model algorithms need to know
about graphs: the adjacency structure itself (:mod:`repro.graphs.graph`),
BFS machinery for balls/layers (:mod:`repro.graphs.bfs`), block
decompositions for Gallai-tree / DCC classification
(:mod:`repro.graphs.blocks`, :mod:`repro.graphs.properties`), workload
generators (:mod:`repro.graphs.generators`) and coloring validation
(:mod:`repro.graphs.validation`).
"""

from repro.graphs.bfs import (
    bfs_ball,
    bfs_distances,
    bfs_levels,
    bfs_tree,
    distance_layers,
)
from repro.graphs.blocks import (
    BlockDecomposition,
    biconnected_components,
    blocks_through,
)
from repro.graphs.generators import (
    complete_graph,
    complete_graph_minus_edge,
    cycle_graph,
    disjoint_union,
    hypercube,
    path_graph,
    random_gallai_tree,
    random_graph_with_max_degree,
    random_nice_graph,
    random_regular_graph,
    random_tree,
    torus_grid,
)
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.properties import (
    assert_nice,
    girth_up_to,
    is_clique_nodes,
    is_complete,
    is_cycle_graph,
    is_degree_choosable_component,
    is_gallai_tree,
    is_nice,
    is_odd_cycle_nodes,
    is_path_graph,
)
from repro.graphs.validation import UNCOLORED, count_colors, uncolored_nodes, validate_coloring

__all__ = [
    "Graph",
    "GraphBuilder",
    "DynamicGraph",
    "BlockDecomposition",
    "biconnected_components",
    "blocks_through",
    "bfs_ball",
    "bfs_distances",
    "bfs_levels",
    "bfs_tree",
    "distance_layers",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "complete_graph_minus_edge",
    "torus_grid",
    "hypercube",
    "random_regular_graph",
    "random_graph_with_max_degree",
    "random_tree",
    "random_gallai_tree",
    "random_nice_graph",
    "disjoint_union",
    "is_clique_nodes",
    "is_odd_cycle_nodes",
    "is_complete",
    "is_cycle_graph",
    "is_path_graph",
    "is_nice",
    "assert_nice",
    "is_gallai_tree",
    "is_degree_choosable_component",
    "girth_up_to",
    "UNCOLORED",
    "validate_coloring",
    "count_colors",
    "uncolored_nodes",
]
