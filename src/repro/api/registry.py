"""The string-keyed algorithm registry behind :func:`repro.api.solve`.

Every Δ-coloring pipeline in the package is registered here under a
stable name, together with capability metadata (does it require a *nice*
graph, is it deterministic, what palette does it guarantee) and an
adapter that unpacks the :class:`SolverConfig` into the engine call and
returns the engine's :class:`EngineRun`.  :func:`repro.api.solve` owns
the whole-graph checks: niceness once when ``needs_nice``, validation
once on every solve.  New
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

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.api.config import SolverConfig
from repro.baselines.panconesi_srinivasan import ps_delta_coloring
from repro.core.deterministic import delta_coloring_deterministic
from repro.core.randomized import (
    large_delta_params,
    run_pipeline,
    small_delta_params,
)
from repro.core.special_cases import color_components
from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.graphs.properties import is_nice
from repro.local.rounds import EngineRun, PipelineState, run_phases

__all__ = [
    "AlgorithmSpec",
    "EngineRun",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: the adapter plus its capability metadata.

    ``needs_nice`` makes :func:`repro.api.solve` reject a graph that is
    not nice with :class:`repro.errors.NotNiceGraphError` before the
    adapter runs, so adapters never check niceness themselves.

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


def _effective_params(config: SolverConfig):
    """The randomized-family params with ``config.strict`` folded in.

    ``params`` owns the pipeline knobs (including its own seed), but an
    explicit ``strict=True`` on the config is a request for contract
    checks and must not be silently dropped; strict mode only adds
    assertions, never touches the rng stream, so folding it in keeps
    colors bit-identical.
    """
    params = config.params
    if params is not None and config.strict and not params.strict:
        params = dataclasses.replace(params, strict=True)
    return params


def _run_randomized(graph: Graph, config: SolverConfig) -> EngineRun:
    """The paper's dispatch: Theorem 1 for Δ = 3, Theorem 3 for Δ ≥ 4;
    ``config.params`` overrides the presets and runs the nine-phase
    pipeline with those knobs."""
    params = _effective_params(config)
    if params is not None:
        return run_pipeline(graph, params)
    if graph.max_degree() >= 4:
        return _run_randomized_large(graph, config)
    return _run_randomized_small(graph, config)


def _run_randomized_small(graph: Graph, config: SolverConfig) -> EngineRun:
    params = small_delta_params(
        graph, config.seed, config.strict, _effective_params(config)
    )
    return run_pipeline(graph, params, "randomized-small")


def _run_randomized_large(graph: Graph, config: SolverConfig) -> EngineRun:
    params = large_delta_params(
        graph, config.seed, config.strict, _effective_params(config)
    )
    return run_pipeline(graph, params, "randomized-large")


def _run_deterministic(graph: Graph, config: SolverConfig) -> EngineRun:
    return delta_coloring_deterministic(
        graph, strict=config.strict, ruling_k=config.ruling_k
    )


def _run_slocal(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.core.slocal_coloring import slocal_delta_coloring

    def slocal(s: PipelineState) -> dict[str, Any]:
        s.colors, run = slocal_delta_coloring(s.graph, order=config.order)
        # SLOCAL's measure is locality, not rounds.
        s.ledger.charge(run.write_radius)
        histogram: dict[str, int] = {}
        for radius in run.per_node_radius.values():
            histogram[str(radius)] = histogram.get(str(radius), 0) + 1
        return {
            "model": "SLOCAL",
            "read_radius": run.read_radius,
            "write_radius": run.write_radius,
            "max_locality": run.write_radius,
            "locality_histogram": histogram,
        }

    state = run_phases(PipelineState(graph), [("slocal", slocal)])
    return EngineRun.from_state("slocal", state)


def _run_ps(graph: Graph, config: SolverConfig) -> EngineRun:
    return ps_delta_coloring(graph, seed=config.seed, strict=config.strict)


def _run_greedy(graph: Graph, config: SolverConfig) -> EngineRun:
    from repro.baselines.greedy import centralized_greedy

    def greedy(s: PipelineState) -> dict[str, Any]:
        s.colors = centralized_greedy(s.graph, order=config.order)
        # A sequential pass over n nodes: the honest LOCAL dependency chain.
        s.ledger.charge(s.graph.n)
        return {"model": "centralized"}

    state = run_phases(PipelineState(graph), [("greedy", greedy)])
    return EngineRun.from_state(
        "greedy",
        state,
        palette=max(state.colors, default=0),
        stats={"colors_used": len(set(state.colors))},
    )


def _run_components(graph: Graph, config: SolverConfig) -> EngineRun:
    return color_components(graph, seed=config.seed, strict=config.strict)


def _run_auto(graph: Graph, config: SolverConfig) -> EngineRun:
    """The ``auto`` policy, picking by (n, Δ, graph class).

    A connected *nice* graph gets the paper's dispatch — Theorem 1 for
    Δ = 3 (whose preset radius grows with log log n), Theorem 3 for
    Δ ≥ 4; everything else (disconnected graphs, Brooks' excluded
    families) goes through the per-component dispatcher, which colors
    each component with its own optimum.
    """
    if graph.n > 0 and is_nice(graph):  # is_nice implies connected
        return _run_randomized(graph, config)
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
