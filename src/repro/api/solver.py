"""`solve` / `solve_many` — the facade every caller routes through.

:func:`solve` runs one graph through a registered algorithm and returns
a :class:`repro.api.result.ColoringResult`; :func:`solve_many` fans a
batch of graphs out over a process pool for throughput workloads.
:class:`SolverPool` keeps one warmed pool alive across many
``solve_many`` calls (perfbench reuses one across its batches instead
of re-spawning workers per batch).

Determinism: a solve is a pure function of ``(graph, config)`` — workers
only change scheduling, never results, so ``solve_many(workers=4)`` is
bit-identical to ``workers=1``.

:func:`solve_incremental` and :func:`apply_incremental` repair instead
of re-solving.  Both run the one update path of
:mod:`repro.core.incremental`: the engine adopts the graph into a
:class:`repro.graphs.dynamic.DynamicGraph` and applies each delta in
place; ``solve_incremental`` additionally hands back the child graph as
the engine's compacted snapshot.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.api.config import SolverConfig
from repro.api.registry import get_algorithm
from repro.api.result import ColoringResult
from repro.graphs.graph import Graph
from repro.graphs.properties import assert_nice
from repro.graphs.validation import validate_coloring

__all__ = [
    "solve",
    "solve_many",
    "solve_incremental",
    "apply_incremental",
    "IncrementalUpdate",
    "SolverPool",
    "default_workers",
]


def _make_config(config: SolverConfig | None, overrides: dict[str, Any]) -> SolverConfig:
    if config is None:
        config = SolverConfig()
    if overrides:
        config = config.replace(**overrides)
    return config


def solve(
    graph: Graph, config: SolverConfig | None = None, **overrides: Any
) -> ColoringResult:
    """Color ``graph`` with the configured algorithm.

    ``overrides`` are :class:`SolverConfig` fields applied on top of
    ``config`` (so ``solve(g, algorithm="ps", seed=3)`` needs no explicit
    config object).

    This is the one place the whole-graph checks run: niceness once,
    before the engine, for algorithms that need a nice graph
    (:class:`repro.errors.NotNiceGraphError` otherwise), and validation
    once, after it, on every solve — a proper coloring within
    ``palette`` colors (:class:`repro.errors.ColoringError` otherwise).
    Other engine errors propagate unchanged.
    """
    config = _make_config(config, overrides)
    spec = get_algorithm(config.algorithm)
    if spec.needs_nice:
        assert_nice(graph)
    started = time.perf_counter()
    run = spec.run(graph, config)
    wall_time = time.perf_counter() - started
    validate_coloring(graph, run.colors, max_colors=run.palette or None)
    phase_stats = {k: dict(v) for k, v in run.phase_stats.items()}
    result = ColoringResult(
        algorithm=run.algorithm,
        n=graph.n,
        delta=run.delta,
        palette=run.palette,
        colors=tuple(run.colors),
        rounds=run.rounds,
        phase_rounds=dict(run.phase_rounds),
        phase_stats=phase_stats,
        stats=dict(run.stats),
        seed=run.seed_used if run.seed_used is not None else config.seed,
        wall_time_s=wall_time,
    )
    _notify(config, result)
    return result


def _notify(config: SolverConfig, result: ColoringResult) -> None:
    """Replay the run's phases through the observer, in execution order."""
    if config.on_phase is None:
        return
    for name, rounds in result.phase_rounds.items():
        config.on_phase(name, rounds, result.phase_stats.get(name, {}))


@dataclass(frozen=True)
class IncrementalUpdate:
    """What :func:`solve_incremental` returns.

    ``result`` is a normal :class:`ColoringResult` for the *child* graph
    (``stats["incremental"]`` carries the update's repair statistics;
    ``rounds`` is the charged LOCAL repair cost, not a full pipeline's),
    ``graph`` is the child graph itself (reusable as the next parent),
    and ``update`` is the raw per-op outcome dict.

    ``graph`` is None only for :func:`apply_incremental` calls with
    ``materialize_graph=False`` — sustained streams keep the graph inside
    the engine and skip the O(n + m) snapshot per op.
    """

    result: ColoringResult
    graph: Graph | None
    update: dict[str, Any]


def solve_incremental(
    graph: Graph,
    parent: ColoringResult,
    edges_added: Iterable[tuple[int, int]] = (),
    edges_removed: Iterable[tuple[int, int]] = (),
    config: SolverConfig | None = None,
    **overrides: Any,
) -> IncrementalUpdate:
    """Re-color ``graph`` after an edge delta, seeded by ``parent``.

    The streaming counterpart of :func:`solve`: instead of solving the
    child instance from scratch, the parent coloring is kept and only the
    conflicts the delta created are repaired through the incremental
    ladder (greedy free color → Theorem 5 token walk → full re-solve;
    see :mod:`repro.core.incremental`).  ``parent`` must be a result for
    ``graph`` itself (the *pre-update* instance, never mutated); the
    engine adopts it, applies the delta in place and returns the child
    graph (its compacted snapshot) alongside the result so callers can
    chain updates.

    ``config`` (plus ``overrides``) governs validation and the full
    re-solve fallback — by default ``algorithm="auto"`` with the parent's
    seed.  Raises the engine's typed errors
    (:class:`repro.errors.EdgeAlreadyPresentError`,
    :class:`repro.errors.EdgeNotPresentError`) on rejected deltas.
    """
    from repro.core.incremental import IncrementalColoring

    config = _make_config(config, overrides)
    engine = IncrementalColoring.from_result(
        graph, parent, config=config.without_observer()
    )
    return apply_incremental(engine, edges_added, edges_removed, config)


def apply_incremental(
    engine: "Any",
    edges_added: Iterable[tuple[int, int]] = (),
    edges_removed: Iterable[tuple[int, int]] = (),
    config: SolverConfig | None = None,
    *,
    materialize_graph: bool = True,
    **overrides: Any,
) -> IncrementalUpdate:
    """One delta against a **long-lived** :class:`repro.core.incremental.
    IncrementalColoring` engine, packaged exactly like
    :func:`solve_incremental`.

    Where ``solve_incremental`` builds a fresh engine per call (the
    one-shot price), this is the sustained-stream entry point: the caller
    keeps the engine across ops — the service's ``MemoryStore`` does for
    chain heads — and each call advances it in place.  The
    returned result is bit-identical to what ``solve_incremental`` would
    produce for the same lineage (same colors, seed, and stats layout),
    which is what pins the service's chained-update digests to the old
    re-materializing path.

    ``config.validate`` checks the op through the engine's own dirty-
    region validation (O(vol(region)) for repairs, full pass after a
    re-solve — the same contract ``solve_incremental`` applied
    externally, minus the graph snapshot).  ``materialize_graph=False``
    additionally skips the O(n + m) ``engine.graph`` snapshot and
    returns ``graph=None``; callers on the streaming path read sizes
    from the engine instead.
    """
    config = _make_config(config, overrides)
    engine.set_resolve_config(config.without_observer())
    started = time.perf_counter()
    validate_here = bool(config.validate) and not engine.validate
    if validate_here:
        engine.validate = True
    try:
        outcome = engine.batch_update(edges_added, edges_removed)
    finally:
        if validate_here:
            engine.validate = False
    update = outcome.as_dict()
    result = ColoringResult(
        algorithm=engine.algorithm,
        n=engine.n,
        delta=engine.delta,
        palette=engine.palette,
        colors=tuple(engine.colors),
        rounds=outcome.rounds,
        phase_rounds={"incremental-repair": outcome.rounds},
        phase_stats={
            "incremental-repair": {
                **update, "wall_s": update.get("wall_time_s", 0.0),
            }
        },
        stats={"incremental": dict(update)},
        seed=engine.result_seed,
        wall_time_s=time.perf_counter() - started,
    )
    _notify(config, result)
    graph = engine.graph if materialize_graph else None
    return IncrementalUpdate(result=result, graph=graph, update=update)


def _solve_task(task: tuple[Graph, SolverConfig]) -> ColoringResult:
    """Top-level worker entry point (must be picklable by name)."""
    graph, config = task
    return solve(graph, config)


def default_workers() -> int:
    """Usable CPU count (affinity-aware; ≥ 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def solve_many(
    graphs: Iterable[Graph],
    config: SolverConfig | None = None,
    workers: int = 1,
    pool: "SolverPool | None" = None,
    **overrides: Any,
) -> list[ColoringResult]:
    """Solve a batch of graphs, optionally fanning out over processes.

    Results come back in input order and are bit-identical for any
    ``workers`` value.  ``workers=1`` (the default) stays in-process;
    ``workers=N`` spawns a transient pool; passing an existing
    :class:`SolverPool` reuses its warmed workers and overrides
    ``workers``.  Observers fire in the parent, per graph, in input
    order — they never cross the process boundary.
    """
    config = _make_config(config, overrides)
    graphs = list(graphs)
    if pool is not None:
        results = pool._map(graphs, config.without_observer())
    elif workers > 1 and len(graphs) > 1:
        with SolverPool(workers) as transient:
            results = transient._map(graphs, config.without_observer())
    else:
        return [solve(graph, config) for graph in graphs]
    for result in results:
        _notify(config, result)
    return results


class SolverPool:
    """A reusable process pool for :func:`solve_many` batches.

    Spawning workers (and re-importing the package in each) costs real
    time; sweeps that call ``solve_many`` once per size point should
    create one pool up front and pass it to every call::

        with SolverPool(workers=4) as pool:
            for batch in batches:
                results = solve_many(batch, config, pool=pool)

    The pool lazily spawns on first use; :meth:`warm` forces the spawn
    (and a no-op round-trip per worker) ahead of any timed region.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers if workers and workers > 0 else default_workers()
        self._executor: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def warm(self) -> "SolverPool":
        """Spawn the workers now (outside any timed region)."""
        executor = self._ensure()
        for _ in executor.map(_noop, range(self.workers)):
            pass
        return self

    def _map(
        self, graphs: Sequence[Graph], config: SolverConfig
    ) -> list[ColoringResult]:
        executor = self._ensure()
        tasks = [(graph, config) for graph in graphs]
        return list(executor.map(_solve_task, tasks))

    def solve_many(
        self,
        graphs: Iterable[Graph],
        config: SolverConfig | None = None,
        **overrides: Any,
    ) -> list[ColoringResult]:
        """Convenience: :func:`solve_many` bound to this pool."""
        return solve_many(graphs, config, pool=self, **overrides)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _noop(_: Any) -> None:
    return None
