"""The layering technique (Section 1.3 / Section 3).

Pick a base layer B_0; define B_i = nodes at distance exactly i from B_0;
remove all layers; later, add them back in reverse order, where coloring
layer B_i (i >= 1) is a (deg+1)-list coloring instance on G[B_i] because
every node of B_i keeps an uncolored neighbour in B_{i-1} until B_{i-1}'s
turn.  B_0 itself is colored last by a technique that depends on how it
was chosen (degree-choosability for the randomized algorithms' DCC base
layer, Theorem 5 token walks for the deterministic algorithm's ruling
forest).

This module provides the two generic halves — building layers and
reverse-coloring them with a pluggable (deg+1)-list engine; the base-layer
coloring lives with each algorithm.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

from repro.errors import AlgorithmContractError
from repro.graphs.bfs import distance_layers
from repro.graphs.graph import Graph
from repro.graphs.validation import UNCOLORED
from repro.local.rounds import RoundLedger
from repro.primitives.list_coloring import ColorWorkspace, ListColoringStats

__all__ = ["ListEngine", "LayerColoringReport", "build_layers", "color_layers_in_reverse"]

ListEngine = Literal["random", "hybrid", "deterministic"]


@dataclass
class LayerColoringReport:
    """Statistics of one reverse-layer-coloring pass."""

    layers_colored: int = 0
    total_iterations: int = 0
    max_iterations_per_layer: int = 0
    gather_rounds: int = 0


def build_layers(
    graph: Graph,
    base: set[int],
    max_depth: int | None = None,
    allowed: set[int] | None = None,
) -> list[list[int]]:
    """Layers ``[B_0, B_1, ..]`` by exact distance from ``base``.

    Thin wrapper over :func:`repro.graphs.bfs.distance_layers`, kept for
    vocabulary symmetry with the paper.
    """
    return distance_layers(graph, base, max_depth=max_depth, allowed=allowed)


def color_layers_in_reverse(
    graph: Graph,
    colors: list[int],
    layers: list[list[int]],
    max_colors: int,
    engine: ListEngine,
    ledger: RoundLedger,
    rng: random.Random | None = None,
    base_colors: list[int] | None = None,
    palette: int | None = None,
    include_layer_zero: bool = False,
    strict: bool = False,
) -> LayerColoringReport:
    """Color ``layers[s], .., layers[1]`` (optionally also ``layers[0]``)
    in reverse order with the chosen (deg+1)-list engine.

    ``include_layer_zero`` is used by phase (7), where C_0's slack
    guarantees (T-nodes / boundary) make C_0 itself a valid deg+1
    instance; the B/D layerings instead color their layer 0 by
    degree-choosability and pass False.

    In strict mode, verifies the structural contract before each layer:
    every node of layer i has a neighbour in layer i-1 (its uncolored
    lower neighbour at coloring time).

    The whole pass shares one :class:`ColorWorkspace`, so the native
    kernel pays for one int32 color mirror and one write-back per phase;
    the deterministic engine outside strict mode sweeps every layer in
    one kernel call.
    """
    rng = rng if rng is not None else random.Random(0)
    if engine == "deterministic" and (base_colors is None or palette is None):
        raise AlgorithmContractError("deterministic engine needs base_colors + palette")
    last = 0 if include_layer_zero else 1
    order = [i for i in range(len(layers) - 1, last - 1, -1) if layers[i]]
    report = LayerColoringReport()
    with ColorWorkspace(graph, colors, sum(len(layers[i]) for i in order)) as work:
        if engine == "deterministic" and not strict:
            work.deterministic(
                [layers[i] for i in order], max_colors, base_colors, palette, ledger
            )
            for _ in order:
                _tally(report, ListColoringStats(iterations=palette))
            return report
        for index in order:
            layer = layers[index]
            if strict:
                _check_layer(graph, work.view, layers, index)
            if engine == "random":
                stats = work.random(layer, max_colors, ledger, rng, strict=strict)
            elif engine == "hybrid":
                stats = work.hybrid(layer, max_colors, ledger, rng, strict=strict)
            else:
                work.deterministic(
                    [layer], max_colors, base_colors, palette, ledger, strict=True
                )
                stats = ListColoringStats(iterations=palette)
            _tally(report, stats)
    return report


def _check_layer(
    graph: Graph, colors: Sequence[int], layers: list[list[int]], index: int
) -> None:
    """Strict mode, before layer ``index`` is colored: each of its nodes
    has a neighbour in layer ``index - 1`` and is still uncolored."""
    layer = layers[index]
    if index >= 1:
        previous = set(layers[index - 1])
        for v in layer:
            if not any(u in previous for u in graph.adj[v]):
                raise AlgorithmContractError(
                    f"layer {index} node {v} has no neighbour in layer {index - 1}"
                )
        for v in layer:
            if colors[v] != UNCOLORED:
                raise AlgorithmContractError(
                    f"layer {index} node {v} is already colored"
                )


def _tally(report: LayerColoringReport, stats: ListColoringStats) -> None:
    report.layers_colored += 1
    report.total_iterations += stats.iterations
    report.max_iterations_per_layer = max(
        report.max_iterations_per_layer, stats.iterations
    )
    report.gather_rounds += stats.gather_rounds
