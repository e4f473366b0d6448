"""Scalable wall-clock benchmark harness: size sweeps, warmup, repetition,
JSON output.

The experiment tables in :mod:`repro.analysis.experiments` measure *round
complexity* — the paper's own metric.  This module measures the other axis
the ROADMAP cares about: **wall-clock throughput of the simulator itself**,
so that performance work on the CSR graph core and the hot algorithm loops
is demonstrated by numbers, not claimed.  Design:

* :func:`measure` — run one thunk with warmup and repetition, reporting
  best/mean/stdev seconds (best-of-N is the standard noise-resistant
  summary for CPU-bound benchmarks).
* :func:`size_sweep` — run a ``setup → run`` pair across instance sizes;
  ``setup`` (graph generation) is excluded from the timed region.
* :class:`HarnessReport` — collects sweeps plus environment metadata and
  serialises to JSON (``benchmarks/results/*.json``) so regressions can be
  diffed mechanically between commits.
* :func:`delta_coloring_sweep` — the canonical scaling workload: generate
  a random Δ-regular graph at each size and Δ-color it end-to-end.  This
  is what ``python -m repro bench --sweep`` drives, up to and beyond the
  million-edge instances the CSR core was built for.

The harness is dependency-free (``time.perf_counter`` + ``json``) and
deliberately decoupled from pytest-benchmark: CI smoke runs and ad-hoc
scaling measurements should not need a test runner.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "Measurement",
    "SweepPoint",
    "HarnessReport",
    "measure",
    "size_sweep",
    "delta_coloring_sweep",
    "throughput_sweep",
    "incremental_update_sweep",
    "carve_matching",
]


@dataclass
class Measurement:
    """Timing summary of one measured case."""

    label: str
    repeats: int
    best_s: float
    mean_s: float
    stdev_s: float
    meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out = {
            "label": self.label,
            "repeats": self.repeats,
            "best_s": round(self.best_s, 6),
            "mean_s": round(self.mean_s, 6),
            "stdev_s": round(self.stdev_s, 6),
        }
        if self.meta:
            out["meta"] = self.meta
        return out


@dataclass
class SweepPoint:
    """One size point of a sweep: the parameters plus its measurement."""

    params: dict[str, Any]
    measurement: Measurement

    def as_dict(self) -> dict[str, Any]:
        return {"params": self.params, **self.measurement.as_dict()}


def measure(
    fn: Callable[[], Any],
    label: str = "case",
    warmup: int = 1,
    repeats: int = 3,
    meta_from_result: Callable[[Any], dict[str, Any]] | None = None,
) -> Measurement:
    """Time ``fn`` with ``warmup`` discarded runs and ``repeats`` kept runs.

    ``meta_from_result`` may extract result metadata (rounds, palette, ...)
    from the final run's return value into ``Measurement.meta``.
    """
    if warmup < 0 or repeats < 1:
        raise ValueError("need warmup >= 0 and repeats >= 1")
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    result: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    meta = meta_from_result(result) if meta_from_result is not None else {}
    return Measurement(
        label=label,
        repeats=repeats,
        best_s=min(samples),
        mean_s=mean,
        stdev_s=math.sqrt(var),
        meta=meta,
    )


def size_sweep(
    points: Iterable[dict[str, Any]],
    setup: Callable[[dict[str, Any]], Any],
    run: Callable[[Any], Any],
    warmup: int = 1,
    repeats: int = 3,
    label: Callable[[dict[str, Any]], str] | None = None,
    meta_from_result: Callable[[Any], dict[str, Any]] | None = None,
) -> list[SweepPoint]:
    """Measure ``run(setup(point))`` for every parameter point.

    ``setup`` output (typically a generated graph) is built once per point
    and excluded from the timed region; ``run`` is what warmup/repetition
    time.
    """
    results: list[SweepPoint] = []
    for point in points:
        fixture = setup(point)
        name = label(point) if label is not None else str(point)
        measurement = measure(
            lambda: run(fixture),
            label=name,
            warmup=warmup,
            repeats=repeats,
            meta_from_result=meta_from_result,
        )
        results.append(SweepPoint(params=dict(point), measurement=measurement))
    return results


@dataclass
class HarnessReport:
    """A named collection of sweep results with environment metadata."""

    name: str
    sweeps: dict[str, list[SweepPoint]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, sweep_name: str, points: list[SweepPoint]) -> None:
        self.sweeps[sweep_name] = points

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "notes": list(self.notes),
            "sweeps": {
                key: [p.as_dict() for p in points]
                for key, points in self.sweeps.items()
            },
        }

    def write_json(self, path: str | Path) -> Path:
        """Serialise to ``path`` (parent directories created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    def render(self) -> str:
        """Fixed-width text summary (one line per sweep point)."""
        lines = [f"== harness: {self.name} =="]
        for sweep_name, points in self.sweeps.items():
            lines.append(f"-- {sweep_name}")
            for p in points:
                meta = (
                    " ".join(f"{k}={v}" for k, v in p.measurement.meta.items())
                    if p.measurement.meta
                    else ""
                )
                lines.append(
                    f"   {p.measurement.label:<28} best {p.measurement.best_s:8.3f}s  "
                    f"mean {p.measurement.mean_s:8.3f}s ±{p.measurement.stdev_s:.3f}  {meta}"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def delta_coloring_sweep(
    sizes: Sequence[int],
    delta: int = 8,
    seed: int = 0,
    warmup: int = 1,
    repeats: int = 3,
    algorithm: str = "randomized-large",
    on_phase: Callable[[str, int, dict[str, Any]], None] | None = None,
) -> list[SweepPoint]:
    """End-to-end Δ-coloring wall-clock sweep on random Δ-regular graphs.

    ``sizes`` are node counts; edges per instance are ``n·Δ/2`` (so a
    250_000-node Δ=8 instance is the canonical million-edge run).  Graph
    generation is excluded from the timed region; validation is part of the
    pipeline under test (it is unconditional in production use).

    Each point runs through :func:`repro.api.solve`; ``algorithm`` is any
    registry name and ``on_phase`` is the solver's phase observer (the
    harness reads phase costs from the hook, not result internals).  The
    observer is replayed exactly **once per size point** — from the final
    measured run — so aggregating consumers see one event per phase per
    point, not warmup+repeats duplicates; the timed runs themselves are
    observer-free.
    """
    from repro.api import SolverConfig, solve
    from repro.graphs.generators import random_regular_graph

    config = SolverConfig(algorithm=algorithm, seed=seed)

    def setup(point: dict[str, Any]):
        return random_regular_graph(point["n"], delta, seed=seed)

    def run(graph):
        return solve(graph, config)

    # measure() hands the final repeat's result to meta_from_result once
    # per point — the natural place to replay the phases.
    def meta_from_result(result) -> dict[str, Any]:
        if on_phase is not None:
            for name, rounds in result.phase_rounds.items():
                on_phase(name, rounds, result.phase_stats.get(name, {}))
        return {"rounds": result.rounds}

    return size_sweep(
        [{"n": n, "delta": delta, "m": n * delta // 2} for n in sizes],
        setup,
        run,
        warmup=warmup,
        repeats=repeats,
        label=lambda p: f"n={p['n']} Δ={p['delta']} m={p['m']}",
        meta_from_result=meta_from_result,
    )


def throughput_sweep(
    sizes: Sequence[int],
    delta: int = 8,
    seed: int = 0,
    batch: int = 4,
    workers: int = 1,
    warmup: int = 1,
    repeats: int = 3,
    algorithm: str = "randomized-large",
) -> list[SweepPoint]:
    """Batch-throughput sweep: ``batch`` instances per size point through
    :func:`repro.api.solve_many` on ``workers`` processes.

    One :class:`repro.api.SolverPool` is created and warmed up front and
    reused across every sweep point (and every warmup/repeat run), so the
    timed region measures solving, not worker re-spawning.  The per-point
    metadata records instances/second — the number the ROADMAP's
    throughput workloads care about.
    """
    from repro.api import SolverConfig, SolverPool, solve_many
    from repro.graphs.generators import random_regular_graph

    config = SolverConfig(algorithm=algorithm, seed=seed, validate=False)

    def setup(point: dict[str, Any]):
        return [
            random_regular_graph(point["n"], delta, seed=seed + i)
            for i in range(batch)
        ]

    points = [
        {"n": n, "delta": delta, "batch": batch, "workers": workers}
        for n in sizes
    ]
    pool = SolverPool(workers).warm() if workers > 1 else None
    try:
        sweep_points = size_sweep(
            points,
            setup,
            lambda graphs: solve_many(graphs, config, pool=pool),
            warmup=warmup,
            repeats=repeats,
            label=lambda p: f"n={p['n']} Δ={p['delta']} ×{p['batch']} w={p['workers']}",
            meta_from_result=lambda rs: {"solved": len(rs)},
        )
    finally:
        if pool is not None:
            pool.close()
    for point in sweep_points:
        point.measurement.meta["graphs_per_s"] = round(
            batch / point.measurement.best_s, 2
        )
    return sweep_points


def carve_matching(graph, size: int) -> list[tuple[int, int]]:
    """``size`` pairwise-disjoint edges of ``graph`` (greedy matching).

    The canonical way to build an *updatable* benchmark instance: a
    Δ-regular graph minus a matching keeps Δ while giving every matched
    endpoint one unit of degree slack, so re-inserting matching edges is
    a Δ-preserving edit stream (inserting into a perfectly Δ-regular
    graph would raise Δ and force a full re-solve on every op).
    """
    matching: list[tuple[int, int]] = []
    used: set[int] = set()
    for u, v in graph.edges():
        if u not in used and v not in used:
            matching.append((u, v))
            used.add(u)
            used.add(v)
            if len(matching) == size:
                break
    if len(matching) < size:
        raise ValueError(
            f"graph has no matching of size {size} (found {len(matching)})"
        )
    return matching


def incremental_update_sweep(
    sizes: Sequence[int],
    delta: int = 8,
    edits: Sequence[int] = (1, 16, 256),
    seed: int = 0,
    warmup: int = 1,
    repeats: int = 5,
    algorithm: str = "randomized-large",
) -> list[SweepPoint]:
    """Update-op latency vs fresh-solve latency across edit sizes.

    Per size point: a random Δ-regular graph minus a matching (the
    updatable instance — see :func:`carve_matching`) is solved fresh
    (timed), then for each edit size ``k`` the same ``k`` matching edges
    are repeatedly *inserted* through :func:`repro.api.solve_incremental`
    — the op that can conflict and exercise the repair ladder; each
    timed call is one update op on the current version, seeded by the
    previous op's result, exactly the service's ``update``-verb workload
    (validation included on both sides of the comparison).  Between
    timed samples the chunk is deleted again, *outside* the timed
    region: deletions are trivially conflict-free, and letting them into
    the sample pool would report the cheap half of the stream as the
    headline.  Per-point metadata aggregates the repair stats over every
    timed insert and records the fresh baseline and the speedup — the
    number the incremental subsystem exists to deliver.
    """
    from repro.api import SolverConfig, solve, solve_incremental
    from repro.graphs.generators import random_regular_graph

    config = SolverConfig(algorithm=algorithm, seed=seed)
    points: list[SweepPoint] = []
    for n in sizes:
        full = random_regular_graph(n, delta, seed=seed)
        matching = carve_matching(full, max(edits))
        base = full.apply_updates(removed=matching)
        fresh = measure(
            lambda: solve(base, config),
            label=f"fresh-solve n={n} Δ={delta}",
            warmup=warmup,
            repeats=repeats,
            meta_from_result=lambda r: {"rounds": r.rounds},
        )
        points.append(
            SweepPoint(
                params={"n": n, "delta": delta, "kind": "fresh"},
                measurement=fresh,
            )
        )
        parent = solve(base, config)
        for k in edits:
            chunk = matching[:k]
            graph, result = base, parent
            samples: list[float] = []
            agg = {"conflicts": 0, "recolored": 0, "max_radius": 0,
                   "full_resolves": 0}
            for i in range(warmup + repeats):
                t0 = time.perf_counter()
                inserted = solve_incremental(
                    graph, result, edges_added=chunk, config=config
                )
                elapsed = time.perf_counter() - t0
                if i >= warmup:
                    samples.append(elapsed)
                    agg["conflicts"] += inserted.update["conflicts"]
                    agg["recolored"] += inserted.update["recolored_count"]
                    agg["max_radius"] = max(
                        agg["max_radius"], inserted.update["max_repair_radius"]
                    )
                    agg["full_resolves"] += inserted.update["full_resolve"]
                # untimed restore so every timed sample inserts afresh
                restored = solve_incremental(
                    inserted.graph, inserted.result, edges_removed=chunk,
                    config=config,
                )
                graph, result = restored.graph, restored.result
            mean = sum(samples) / len(samples)
            var = sum((s - mean) ** 2 for s in samples) / len(samples)
            update = Measurement(
                label=f"update k={k} n={n} Δ={delta}",
                repeats=len(samples),
                best_s=min(samples),
                mean_s=mean,
                stdev_s=math.sqrt(var),
                meta=dict(agg),
            )
            update.meta["fresh_best_s"] = round(fresh.best_s, 6)
            update.meta["speedup"] = round(fresh.best_s / update.best_s, 1)
            points.append(
                SweepPoint(
                    params={"n": n, "delta": delta, "kind": "update", "edits": k},
                    measurement=update,
                )
            )
    return points


def sustained_update_stream(
    n: int = 100_000,
    delta: int = 8,
    ops: int = 2000,
    matching_size: int = 256,
    seed: int = 0,
    validate: bool = True,
    algorithm: str = "randomized-large",
) -> dict:
    """Sustained update throughput on one long-lived engine.

    The complement of :func:`incremental_update_sweep`: instead of one
    facade call per measurement (engine setup, child snapshot, result
    marshalling — the *service* path), a single
    :class:`repro.core.incremental.IncrementalColoring` engine absorbs a
    long alternating insert/delete stream over a carved matching — the
    *streaming* path, every delta in place.  Matching edges
    keep Δ fixed by construction (see :func:`carve_matching`), so no op
    forces a full re-solve and every op exercises exactly the in-place
    delta + conflict-repair machinery, with per-op dirty-region
    validation on unless disabled.

    Returns a flat dict (ops/sec, p50/p99/max latencies, engine repair
    totals, the cold fresh-solve baseline) ready for the bench report.
    """
    from repro.api import SolverConfig, solve
    from repro.core.incremental import IncrementalColoring
    from repro.graphs.generators import random_regular_graph

    config = SolverConfig(algorithm=algorithm, seed=seed)
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, matching_size)
    base = full.apply_updates(removed=matching)
    t0 = time.perf_counter()
    parent = solve(base, config)
    cold_s = time.perf_counter() - t0
    engine = IncrementalColoring.from_result(
        base,
        parent,
        config=config.without_observer(),
        validate=validate,
    )
    # One untimed round trip warms the stream: the first relocation of
    # the touched rows, the engine's registry lookup.
    engine.insert_edge(*matching[0])
    engine.delete_edge(*matching[0])
    inserted = [False] * len(matching)
    latencies: list[float] = []
    idx = 0
    started = time.perf_counter()
    for _ in range(ops):
        u, v = matching[idx]
        t1 = time.perf_counter()
        if inserted[idx]:
            engine.delete_edge(u, v)
        else:
            engine.insert_edge(u, v)
        latencies.append(time.perf_counter() - t1)
        inserted[idx] = not inserted[idx]
        idx = (idx + 1) % len(matching)
    elapsed = time.perf_counter() - started
    latencies.sort()
    return {
        "n": n,
        "delta": delta,
        "ops": ops,
        "validate": validate,
        "matching_size": matching_size,
        "elapsed_s": round(elapsed, 6),
        "ops_per_sec": round(ops / elapsed, 1),
        "p50_us": round(latencies[len(latencies) // 2] * 1e6, 1),
        "p99_us": round(latencies[(len(latencies) * 99) // 100] * 1e6, 1),
        "max_us": round(latencies[-1] * 1e6, 1),
        "cold_solve_s": round(cold_s, 6),
        "conflicts": engine.totals["conflicts"],
        "recolored": engine.totals["recolored"],
        "full_resolves": engine.totals["full_resolves"],
    }
