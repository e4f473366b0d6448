"""The library workloads, ``solve-dcc`` and ``solve-shatter``.

The system under test is a fresh solver process calling
``repro.api.solve`` (closed loop, one caller) and ``solve_many`` through a
warmed ``SolverPool`` (one pool worker per CPU).  This file is both the
orchestrator half (:func:`run`) and the two child roles:

    python3 perfbench/library.py --probe <edges.npy> --n N --seed S
        set-up probe: import, load, first solve, print its digest
    python3 perfbench/library.py --worker <edges.npy>... --n N ...
        the measured process; prints one JSON line of samples
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import (
    SPEC,
    NullSpanLog,
    Outcome,
    SpanLog,
    Speed,
    child_env,
    derive_seed,
    mean,
    median,
    percentile,
    pinned_around,
    run_python,
    stop_process,
    use_src,
    vmhwm_mb,
)

PHASES: list[str] = SPEC["phases"]
STRUCTURE = ("num_dccs", "b0_size", "t_nodes", "fallbacks")


def phase_key(phase: str) -> str:
    """``"0:linial"`` -> ``"0-linial"`` (metric names carry no colons)."""
    return phase.replace(":", "-")


def sample(result, wall_s: float) -> dict:
    """What the orchestrator needs from one solve."""
    return {
        "wall_s": wall_s,
        "rounds": result.rounds,
        "phase_wall": {
            p: s.get("wall_s", 0.0) for p, s in result.phase_stats.items() if "/" not in p
        },
        "phase_rounds": dict(result.phase_rounds),
        "stats": {k: result.stats.get(k, 0) for k in STRUCTURE},
    }


def check(graph, result, delta: int) -> bool:
    """Independent output check: a proper coloring within Δ colors."""
    from repro.errors import ColoringError
    from repro.graphs.validation import validate_coloring

    try:
        validate_coloring(graph, result.colors, max_colors=delta)
    except ColoringError:
        return False
    return result.palette <= delta


def traced_solve(spans: SpanLog, graph, config=None, parent=None, **overrides):
    """One ``solve`` as an ``api.solve`` span with the solver phases
    (their own ``wall_s``) as children; the span's self time is the
    facade overhead (nice check, validation, result packing)."""
    from repro.api import solve

    with spans.span("api.solve", parent) as handle:
        result = solve(graph, config, **overrides)
    offset = 0.0
    for phase in PHASES:
        wall = result.phase_stats.get(phase, {}).get("wall_s", 0.0)
        spans.emit(
            f"solver.{phase_key(phase)}", handle, offset, wall,
            rounds=result.phase_rounds.get(phase, 0),
        )
        offset += wall
    return result, handle


# -- child roles ---------------------------------------------------------------


def probe_main(args: argparse.Namespace) -> None:
    use_src()
    from inputs import load_graph
    from repro.api import solve

    result = solve(load_graph(args.probe, args.n), seed=args.seed)
    print(result.content_digest(), flush=True)


def worker_main(args: argparse.Namespace) -> None:
    use_src()
    from inputs import load_graph
    from repro.api import SolverPool, default_workers, solve

    graphs = [load_graph(path, args.n) for path in args.worker]
    out: dict = {"attempted": 0, "invalid": 0}

    def checked(graph, result) -> None:
        out["attempted"] += 1
        if not check(graph, result, args.delta):
            out["invalid"] += 1

    # The set-up probes' request: its digest must match theirs.
    first = solve(graphs[0], seed=args.seed)
    checked(graphs[0], first)
    out["first_digest"] = first.content_digest()

    # Closed-loop solves and pooled batches alternate over the whole
    # window, so a slow spell of the box lands on both, not on one.  The
    # loop runs at least ``rounds_solves`` closed-loop solves: the rounds
    # figure is taken over exactly those, whatever the box's speed.  Each
    # solve carries the box's speed right around it.
    closed = []
    pool_stats: dict = {"rates": [], "factors": []}
    speed = Speed()
    i = 0
    if args.seconds:
        pool = SolverPool(default_workers()).warm()
        batch = [graphs[j % len(graphs)] for j in range(args.batch)]
        try:
            # Untimed: each worker's first solve pays its lazy imports.
            for graph, result in zip(batch, pool.solve_many(batch, seed=args.seed)):
                checked(graph, result)
            started = time.perf_counter()
            while time.perf_counter() - started < args.seconds or i < args.rounds_solves:
                for _ in range(args.closed_per_batch):
                    i += 1
                    graph = graphs[i % len(graphs)]
                    result, wall, factor = speed.around(solve, graph, seed=args.seed + i)
                    closed.append({**sample(result, wall), "speed": factor})
                    checked(graph, result)
                results, wall, factor = pinned_around(
                    pool.solve_many, batch, seed=args.seed + 100_000 + i
                )
                pool_stats["rates"].append(len(batch) / wall)
                pool_stats["factors"].append(factor)
                for graph, result in zip(batch, results):
                    checked(graph, result)
            pool_stats["workers"] = pool.workers
        finally:
            pool.close()
    out["closed"] = closed
    out["pool"] = pool_stats
    out["speed"] = speed.samples

    if args.traced:
        # The same solve runs through a span log that records nothing and
        # through the real one, alternately, so their difference is the
        # tracing overhead and nothing else; each graph is solved once
        # first, so neither side pays its lazy caches.
        for graph in graphs[1:]:
            solve(graph, seed=args.seed)
        spans, null = SpanLog(args.seed), NullSpanLog()
        pairs = []
        for _ in range(args.traced):
            i += 1
            graph = graphs[i % len(graphs)]
            t0 = time.perf_counter()
            plain, _ = traced_solve(null, graph, seed=args.seed + i)
            t1 = time.perf_counter()
            result, _ = traced_solve(spans, graph, seed=args.seed + i)
            t2 = time.perf_counter()
            checked(graph, plain)
            checked(graph, result)
            pairs.append({"untraced_s": t1 - t0, "traced_s": t2 - t1, **sample(result, 0.0)})
        spans.write(Path(args.trace_out))
        out["traced"] = pairs
        out["self_s"] = spans.self_times()

    out["vmhwm_mb"] = vmhwm_mb()
    print(json.dumps(out), flush=True)


# -- orchestrator ----------------------------------------------------------------


def _probe(path: Path, n: int, seed: int) -> tuple[float, str]:
    """Launch a fresh solver process; seconds until its first result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--probe", str(path), "--n", str(n), "--seed", str(seed)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        digest = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        stop_process(proc)
    return elapsed, digest


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from inputs import save_graph, solve_graphs

    spec = SPEC["workloads"][workload]
    outcome = Outcome()
    paths = [
        save_graph(graph, work / f"graph{i}.npy")
        for i, graph in enumerate(solve_graphs(workload, seed))
    ]
    config_seed = derive_seed(seed, workload, "config") % 100_000
    args = [
        __file__, "--n", str(spec["n"]), "--delta", str(spec["delta"]),
        "--seed", str(config_seed), "--batch", str(spec["batch"]),
        "--worker", *map(str, paths),
    ]
    probes = []
    if trace:
        trace_path = work.parent / "traces" / f"{workload}-seed{seed}.jsonl"
        args += ["--traced", str(spec["traced"]), "--trace-out", str(trace_path)]
        outcome.details["trace_file"] = str(trace_path)
    else:
        for _ in range(SPEC["setup_runs"]):
            (elapsed, digest), _, factor = pinned_around(_probe, paths[0], spec["n"], config_seed)
            probes.append((elapsed, digest, factor))
        args += [
            "--seconds", str(spec["measure_share"] * seconds),
            "--closed-per-batch", str(spec["closed_per_batch"]),
            "--rounds-solves", str(spec["rounds_solves"]),
        ]
    data = json.loads(run_python(args, timeout=150).splitlines()[-1])

    outcome.attempted = data["attempted"] + len(probes)
    outcome.failed = data["invalid"]
    if data["invalid"]:
        outcome.problem(f"{data['invalid']} solve results failed validation")
    for _, digest, _ in probes:
        if digest != data["first_digest"]:
            outcome.problem("a set-up probe's result differs from the worker's")
    if trace:
        layer_metrics(outcome, data)
        return outcome

    closed = data["closed"]
    speed = Speed(data["speed"])
    # Each solve at the speed the box had right around it (its own
    # calibration samples), so a slow spell does not become the tail.
    # Batches and set-up probes run in other processes: each is scaled by
    # the loops pinned to each CPU right around it (README.md, Steadiness).
    walls = [s["wall_s"] / s["speed"] for s in closed]
    p95 = percentile(walls, 95) * 1000
    pool = data["pool"]
    rates = [rate * factor for rate, factor in zip(pool["rates"], pool["factors"])]
    setups = [elapsed / factor for elapsed, _, factor in probes]
    m = outcome.metrics
    m["setup_s"] = median(setups)
    m["peak_rss_mb"] = data["vmhwm_mb"]
    m["ok_ratio"] = 1 - outcome.failed / outcome.attempted
    m["solve_p50_s"] = median(walls)
    # A fixed set of solves: the first ``rounds_solves`` (graph, seed) pairs.
    m["local_rounds_p50"] = median([s["rounds"] for s in closed[: spec["rounds_solves"]]])
    m["batch_solves_per_s"] = median(rates)
    # No server here: the ladder is the one closed-loop caller.
    m["capacity_rps"] = len(walls) / sum(walls) if p95 <= spec["latency_limit_ms"] else 0.0
    m["latency_p50_ms"] = median(walls) * 1000
    m["latency_p95_ms"] = p95
    outcome.details.update(
        solves=len(walls), scaled_walls_s=walls, solve_factors=[s["speed"] for s in closed],
        pool=pool, first_solve_digest=data["first_digest"],
        setup_probes_s=[t for t, _, _ in probes], setup_factors=[f for _, _, f in probes],
        speed_factor=speed.factor, raw_solve_p50_s=median([s["wall_s"] for s in closed]),
        raw_batch_solves_per_s=median(pool["rates"]),
        raw_setup_s=median([t for t, _, _ in probes]),
    )
    return outcome


def layer_metrics(outcome: Outcome, data: dict) -> None:
    """Per-layer figures of the traced run, means per solve."""
    pairs = data["traced"]
    m = outcome.metrics
    for phase in PHASES:
        key = phase_key(phase)
        m[f"solver.{key}.ms"] = 1000 * mean([p["phase_wall"].get(phase, 0.0) for p in pairs])
        m[f"solver.{key}.rounds"] = mean([p["phase_rounds"].get(phase, 0) for p in pairs])
    for stat in STRUCTURE:
        m[f"solver.{stat}"] = mean([p["stats"][stat] for p in pairs])
    m["api.overhead_ms"] = 1000 * data["self_s"].get("api.solve", 0.0) / len(pairs)
    layered = 1000 * sum(data["self_s"].values()) / len(pairs)
    untraced = 1000 * mean([p["untraced_s"] for p in pairs])
    m["coverage"] = layered / untraced
    m["residual_ms"] = untraced - layered
    m["trace.overhead_ms"] = 1000 * median([p["traced_s"] - p["untraced_s"] for p in pairs])
    outcome.details["traced_solves"] = len(pairs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe")
    parser.add_argument("--worker", nargs="+")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--delta", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--closed-per-batch", type=int, default=1)
    parser.add_argument("--rounds-solves", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    if args.probe:
        probe_main(args)
    else:
        worker_main(args)


if __name__ == "__main__":
    main()
