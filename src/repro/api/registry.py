"""The string-keyed algorithm registry behind :func:`repro.api.solve`.

Every Δ-coloring pipeline in the package is registered here under a
stable name, together with capability metadata (does it require a *nice*
graph, is it deterministic, what palette does it guarantee) and an
adapter that runs the native engine and normalises its output.  New
engines (e.g. the MIS-reduction solver of "Faster Distributed Δ-Coloring
via a Reduction to MIS") plug in with one :func:`register_algorithm`
call — no caller changes.

Registered names
----------------
``auto``              policy: pick by (n, Δ, graph class) per instance
``randomized``        paper dispatch: Theorem 1 for Δ = 3, Theorem 3 for Δ ≥ 4
``randomized-small``  Theorem 1 preset (Δ = O(1), n-aware detection radius)
``randomized-large``  Theorem 3 preset (Δ ≥ 4, constant detection radius)
``deterministic``     Theorem 4 layering pipeline
``slocal``            Remark 17 sequential-local colorer
``ps``                Panconesi–Srinivasan '95 baseline
``greedy``            centralized sequential greedy ((Δ+1)-coloring)
``components``        arbitrary graphs, per-component dispatch (incl.
                      Brooks' excluded families, which get χ colors)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api.config import SolverConfig
from repro.core.randomized import (
    RandomizedParams,
    large_delta_params,
    run_pipeline,
    small_delta_params,
)
from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.graphs.properties import assert_nice, is_nice
from repro.graphs.validation import validate_coloring

__all__ = [
    "AlgorithmSpec",
    "EngineRun",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "algorithm_specs",
]


@dataclass
class EngineRun:
    """Normalised engine output an adapter hands back to the facade."""

    algorithm: str
    colors: list[int]
    delta: int
    palette: int
    rounds: int
    phase_rounds: dict[str, int] = field(default_factory=dict)
    phase_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    seed_used: int | None = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: the adapter plus its capability metadata.

    ``supports_incremental`` marks algorithms whose results the
    incremental engine (:mod:`repro.core.incremental`) can maintain under
    edge updates via local repair: the palette is a single instance-wide
    bound the Theorem 5 machinery can repair against.  Per-component
    χ palettes (``components``) are not — a conflicting update on such a
    seed always falls through to a full re-solve.
    """

    name: str
    summary: str
    needs_nice: bool
    deterministic: bool
    palette_bound: str
    run: Callable[[Graph, SolverConfig], EngineRun]
    supports_incremental: bool = False


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add an algorithm to the registry (names are unique)."""
    if spec.name in _REGISTRY:
        raise ReproError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm; unknown names list the options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ReproError(
            f"unknown algorithm {name!r}; registered: {known}"
        ) from None


def list_algorithms() -> list[str]:
    """Registered names, in registration order."""
    return list(_REGISTRY)


def algorithm_specs() -> list[AlgorithmSpec]:
    """The registered specs, in registration order."""
    return list(_REGISTRY.values())


def _attribute_stats(
    stats: dict[str, Any],
    key_map: dict[str, tuple[str, ...]],
    phase_wall: dict[str, float] | None = None,
) -> dict[str, dict[str, Any]]:
    """Split a run's flat stats dict into per-phase dicts.

    ``phase_wall`` (the ledger's wall-clock breakdown, keyed by the same
    phase names) lands under the reserved ``wall_s`` key; nested ledger
    phases absent from ``key_map`` get an entry of their own, so the
    timing decomposition is complete even where no stats were attributed.
    ``wall_s`` is reserved: it is stripped from content digests, so two
    runs of equal coloring content stay digest-equal across machines.
    """
    attributed = {
        phase: {k: stats[k] for k in keys if k in stats}
        for phase, keys in key_map.items()
    }
    for phase, wall in (phase_wall or {}).items():
        attributed.setdefault(phase, {})["wall_s"] = round(wall, 6)
    return attributed


def _effective_params(config: SolverConfig):
    """The randomized-family params with ``config.strict`` folded in.

    ``params`` owns the pipeline knobs (including its own seed), but an
    explicit ``strict=True`` on the config is a request for contract
    checks and must not be silently dropped; strict mode only adds
    assertions, never touches the rng stream, so folding it in keeps
    colors bit-identical.
    """
    import dataclasses

    params = config.params
    if params is not None and config.strict and not params.strict:
        params = dataclasses.replace(params, strict=True)
    return params


# Which stats keys each pipeline phase produced (module-level so new
# stats keys fail loudly in tests rather than silently vanishing from
# the observer's view).
RANDOMIZED_PHASE_KEYS: dict[str, tuple[str, ...]] = {
    "0:linial": ("linial_palette", "linial_iterations"),
    "1:dcc-detect": ("num_dccs", "nodes_in_dccs"),
    "2:dcc-ruling-set": ("b0_components", "b0_size", "virtual_ruling_iterations"),
    "3:b-layers": ("h_size",),
    "4:marking": ("selection_p", "t_nodes", "marked", "initially_selected", "backed_off"),
    "5:happiness-layers": (
        "happiness_radius", "c_layers", "leftover_nodes", "uncolored_marks",
    ),
    "6:small-components": (
        "leftover_components", "leftover_max_component", "fallbacks",
    ),
}

DETERMINISTIC_PHASE_KEYS: dict[str, tuple[str, ...]] = {
    "0:linial": ("linial_palette",),
    "1:ruling-forest": ("ruling_distance", "b0_size"),
    "2:layers": ("num_layers",),
    "3:color-layers": ("layer_iterations",),
    "4:color-b0-brooks": ("fix_modes", "fix_slots", "max_fix_radius"),
}

PS_PHASE_KEYS: dict[str, tuple[str, ...]] = {
    "1:ruling-forest": ("ruling_distance", "b0_size"),
    "2:layers": ("num_layers",),
    "3:color-layers": ("layer_iterations", "max_layer_iterations"),
    "4:color-b0-brooks": ("fix_modes",),
}


def _run_randomized(graph: Graph, config: SolverConfig) -> EngineRun:
    """The paper's dispatch: Theorem 1 for Δ = 3, Theorem 3 for Δ ≥ 4
    (exactly :func:`repro.delta_color`); ``config.params`` overrides the
    presets and runs the nine-phase pipeline with those knobs."""
    # Checked before the Δ dispatch so degenerate graphs (paths, cycles)
    # raise NotNiceGraphError, not the small-Δ contract error.
    assert_nice(graph)
    return _run_randomized_on_nice(graph, config)


def _run_randomized_on_nice(graph: Graph, config: SolverConfig) -> EngineRun:
    """:func:`_run_randomized` minus the nice check (``auto`` has made it)."""
    params = _effective_params(config)
    if params is not None:
        return _run_pipeline(graph, config, params, "randomized")
    if graph.max_degree() >= 4:
        params = large_delta_params(graph, config.seed, config.strict, None)
        return _run_pipeline(graph, config, params, "randomized-large")
    params = small_delta_params(graph, config.seed, config.strict, None)
    return _run_pipeline(graph, config, params, "randomized-small")


def _run_pipeline(
    graph: Graph, config: SolverConfig, params: RandomizedParams, name: str
) -> EngineRun:
    """Run the nine-phase pipeline on a graph known to be nice.

    The final coloring is validated once per solve: by the facade when
    ``config.validate`` is on, here otherwise.
    """
    result = run_pipeline(graph, params)
    if not config.validate:
        validate_coloring(graph, result.colors, max_colors=result.delta)
    return EngineRun(
        algorithm=name,
        colors=result.colors,
        delta=result.delta,
        palette=result.delta,
        rounds=result.rounds,
        phase_rounds=result.phase_rounds,
        phase_stats=_attribute_stats(
            result.stats, RANDOMIZED_PHASE_KEYS, result.phase_wall
        ),
        stats=result.stats,
        seed_used=params.seed,
    )


def _run_randomized_small(graph: Graph, config: SolverConfig) -> EngineRun:
    params = small_delta_params(
        graph, config.seed, config.strict, _effective_params(config)
    )
    assert_nice(graph)
    return _run_pipeline(graph, config, params, "randomized-small")


def _run_randomized_large(graph: Graph, config: SolverConfig) -> EngineRun:
    params = large_delta_params(
        graph, config.seed, config.strict, _effective_params(config)
    )
    assert_nice(graph)
    return _run_pipeline(graph, config, params, "randomized-large")


def _run_deterministic(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.core.deterministic import delta_coloring_deterministic

    result = delta_coloring_deterministic(
        graph, strict=config.strict, ruling_k=config.ruling_k
    )
    return EngineRun(
        algorithm="deterministic",
        colors=result.colors,
        delta=result.delta,
        palette=result.delta,
        rounds=result.rounds,
        phase_rounds=result.phase_rounds,
        phase_stats=_attribute_stats(
            result.stats, DETERMINISTIC_PHASE_KEYS, result.phase_wall
        ),
        stats=result.stats,
    )


def _run_slocal(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.core.slocal_coloring import slocal_delta_coloring

    colors, run = slocal_delta_coloring(graph, order=config.order)
    histogram: dict[str, int] = {}
    for radius in run.per_node_radius.values():
        histogram[str(radius)] = histogram.get(str(radius), 0) + 1
    stats: dict[str, Any] = {
        "model": "SLOCAL",
        "read_radius": run.read_radius,
        "write_radius": run.write_radius,
        "max_locality": run.write_radius,
        "locality_histogram": histogram,
    }
    return EngineRun(
        algorithm="slocal",
        colors=colors,
        delta=graph.max_degree(),
        palette=graph.max_degree(),
        rounds=run.write_radius,  # SLOCAL's measure is locality, not rounds
        phase_rounds={"slocal": run.write_radius},
        phase_stats={"slocal": dict(stats)},
        stats=stats,
    )


def _run_ps(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.baselines.panconesi_srinivasan import ps_delta_coloring

    result = ps_delta_coloring(graph, seed=config.seed, strict=config.strict)
    return EngineRun(
        algorithm="ps",
        colors=result.colors,
        delta=result.delta,
        palette=result.delta,
        rounds=result.rounds,
        phase_rounds=result.phase_rounds,
        phase_stats=_attribute_stats(
            result.stats, PS_PHASE_KEYS, result.phase_wall
        ),
        stats=result.stats,
    )


def _run_greedy(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.baselines.greedy import centralized_greedy

    colors = centralized_greedy(graph, order=config.order)
    delta = graph.max_degree() if graph.n else 0
    palette = max(colors, default=0)
    return EngineRun(
        algorithm="greedy",
        colors=colors,
        delta=delta,
        palette=palette,
        # A sequential pass over n nodes: the honest LOCAL dependency chain.
        rounds=graph.n,
        phase_rounds={"greedy": graph.n},
        phase_stats={"greedy": {"model": "centralized"}},
        stats={"model": "centralized", "colors_used": len(set(colors))},
    )


def _run_components(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.core.special_cases import color_graph

    result = color_graph(graph, seed=config.seed, strict=config.strict)
    delta = graph.max_degree() if graph.n else 0
    stats: dict[str, Any] = {
        "component_families": dict(result.component_families),
        "num_components": sum(result.component_families.values()),
    }
    return EngineRun(
        algorithm="components",
        colors=result.colors,
        delta=delta,
        palette=result.num_colors,
        rounds=result.rounds,
        phase_rounds={"components": result.rounds},
        phase_stats={"components": dict(stats)},
        stats=stats,
    )


def _run_auto(graph: Graph, config: SolverConfig) -> EngineRun:
    """The ``auto`` policy, picking by (n, Δ, graph class).

    A connected *nice* graph gets the paper's dispatch — Theorem 1 for
    Δ = 3 (whose preset radius grows with log log n), Theorem 3 for
    Δ ≥ 4; everything else (disconnected graphs, Brooks' excluded
    families) goes through the per-component dispatcher, which colors
    each component with its own optimum.
    """
    if graph.n > 0 and is_nice(graph):  # is_nice implies connected
        return _run_randomized_on_nice(graph, config)
    return _run_components(graph, config)


register_algorithm(AlgorithmSpec(
    name="auto",
    supports_incremental=True,
    summary="pick per instance: paper dispatch on nice graphs, "
            "per-component handling otherwise",
    needs_nice=False,
    deterministic=False,
    palette_bound="Δ (nice) / χ per excluded component",
    run=_run_auto,
))
register_algorithm(AlgorithmSpec(
    name="randomized",
    supports_incremental=True,
    summary="paper dispatch: Thm 1 (Δ=3) or Thm 3 (Δ≥4) randomized Δ-coloring",
    needs_nice=True,
    deterministic=False,
    palette_bound="Δ",
    run=_run_randomized,
))
register_algorithm(AlgorithmSpec(
    name="randomized-small",
    supports_incremental=True,
    summary="Theorem 1: randomized Δ-coloring tuned for Δ = O(1)",
    needs_nice=True,
    deterministic=False,
    palette_bound="Δ",
    run=_run_randomized_small,
))
register_algorithm(AlgorithmSpec(
    name="randomized-large",
    supports_incremental=True,
    summary="Theorem 3: randomized Δ-coloring for Δ ≥ 4",
    needs_nice=True,
    deterministic=False,
    palette_bound="Δ",
    run=_run_randomized_large,
))
register_algorithm(AlgorithmSpec(
    name="deterministic",
    supports_incremental=True,
    summary="Theorem 4: deterministic layering Δ-coloring",
    needs_nice=True,
    deterministic=True,
    palette_bound="Δ",
    run=_run_deterministic,
))
register_algorithm(AlgorithmSpec(
    name="slocal",
    supports_incremental=True,
    summary="Remark 17: SLOCAL(O(log_Δ n)) sequential-local Δ-coloring",
    needs_nice=True,
    deterministic=True,
    palette_bound="Δ",
    run=_run_slocal,
))
register_algorithm(AlgorithmSpec(
    name="ps",
    supports_incremental=True,
    summary="Panconesi–Srinivasan '95 baseline: O(log³n/logΔ) Δ-coloring",
    needs_nice=True,
    deterministic=False,
    palette_bound="Δ",
    run=_run_ps,
))
register_algorithm(AlgorithmSpec(
    name="greedy",
    supports_incremental=True,
    summary="centralized sequential greedy (the (Δ+1)-coloring reference)",
    needs_nice=False,
    deterministic=True,
    palette_bound="Δ+1",
    run=_run_greedy,
))
register_algorithm(AlgorithmSpec(
    name="components",
    summary="arbitrary graphs: per-component dispatch incl. Brooks' "
            "excluded families",
    needs_nice=False,
    deterministic=False,
    palette_bound="max over components (Δ or χ)",
    run=_run_components,
))
