"""S2 — incremental recoloring under edge updates: update-op latency vs
fresh-solve latency.

The acceptance number of the incremental subsystem: a single-edge update
against a cached n=32768, Δ=8 instance must complete **≥ 10× faster**
than a fresh solve of the same instance, digest-chained and
validity-asserted.  Three probes:

* ``service_hot_update`` — the headline: an in-process
  :class:`repro.service.BatchingGateway` serves the instance once
  (cold), then single-edge ``update`` ops chain against the cached
  parent — cost includes delta application, repair, child
  re-fingerprinting, caching, and validation.  Asserts the ≥ 10× bar,
  the digest chain (every child names its parent; replaying an update
  hits the cache), and child-coloring validity.
* ``sustained`` — :func:`sustained_update_stream`: one long-lived
  engine, every delta in place on its updatable CSR, absorbs thousands
  of alternating insert/delete ops at n=10⁵ with per-op dirty-region
  validation; must hold **≥ 10⁴ ops/sec**.
* ``tcp_update`` — functional check of the wire protocol on a small
  instance: solve → update → chained update over real sockets, plus the
  ``stale_parent`` and typed-rejection error paths.

``scripts/ab.py`` runs the smoke in this checkout and in a base commit
and compares ``service_hot_update.update_ms`` and
``sustained.ops_per_sec`` between the two.

Modes::

    python benchmarks/bench_s2_incremental.py           # n=4096 wire check
    python benchmarks/bench_s2_incremental.py --smoke   # CI gate (make incremental-smoke)

Results land in ``benchmarks/results/s2_incremental.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.api import SolverConfig, solve
from repro.analysis.harness import carve_matching
from repro.core.incremental import IncrementalColoring
from repro.errors import IncrementalUpdateError, StaleParentError
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring
from repro.service import BatchingGateway, ColoringClient

RESULTS_DIR = Path(__file__).parent / "results"


def sustained_update_stream(
    n: int = 100_000,
    delta: int = 8,
    ops: int = 2000,
    matching_size: int = 256,
    seed: int = 0,
) -> dict:
    """Sustained update throughput on one long-lived engine.

    A single :class:`IncrementalColoring` engine absorbs a long
    alternating insert/delete stream over a carved matching, every delta
    in place.  Matching edges keep Δ fixed by construction (see
    :func:`carve_matching`), so no op forces a full re-solve and every op
    exercises exactly the in-place delta + conflict-repair machinery, with
    per-op dirty-region validation on.

    Returns a flat dict (ops/sec, p50/p99/max latencies, engine repair
    totals, the cold fresh-solve time) for the bench report.
    """
    config = SolverConfig(algorithm="randomized-large", seed=seed)
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, matching_size)
    base = full.apply_updates(removed=matching)
    t0 = time.perf_counter()
    parent = solve(base, config)
    cold_s = time.perf_counter() - t0
    engine = IncrementalColoring.from_result(
        base, parent, config=config, validate=True
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


def run_service_hot_update(
    n: int, delta: int, seed: int, ops: int = 6
) -> dict:
    """Cold solve vs chained single-edge updates through the gateway."""
    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, ops + 2)
    base = full.apply_updates(removed=matching)

    async def drive() -> dict:
        async with BatchingGateway(max_queue=8) as gateway:
            # Cold baseline, best-of-2: distinct seeds give distinct
            # fingerprints, so each submission genuinely solves.
            cold_samples = []
            for i in range(2):
                t0 = time.perf_counter()
                reply = await gateway.submit(base, SolverConfig(seed=seed + i))
                cold_samples.append(time.perf_counter() - t0)
                assert not reply.cached, "distinct-seed request must solve cold"
                if i == 0:
                    parent = reply
            update_samples = []
            chain_ok = True
            digest = parent.fingerprint
            first_update = None
            for i in range(ops):
                t0 = time.perf_counter()
                upd = await gateway.submit_update(
                    digest, edges_added=[matching[i]]
                )
                update_samples.append(time.perf_counter() - t0)
                chain_ok = chain_ok and upd.parent_digest == digest
                digest = upd.fingerprint
                if first_update is None:
                    first_update = upd
            # Validity of the final child against its stored graph.
            child_graph = gateway.cache.get_graph(digest)
            final = gateway.cache.get(digest)
            validate_coloring(
                child_graph, list(final.colors), max_colors=final.palette
            )
            # Replaying the first update on the original parent is a hit.
            replay = await gateway.submit_update(
                parent.fingerprint, edges_added=[matching[0]]
            )
            return {
                "n": n,
                "delta": delta,
                "ops": ops,
                "cold_ms": round(1000 * min(cold_samples), 3),
                "update_ms": round(1000 * min(update_samples), 3),
                "update_max_ms": round(1000 * max(update_samples), 3),
                "speedup": round(min(cold_samples) / min(update_samples), 1),
                "chain_ok": chain_ok,
                "replay_cached": replay.cached,
                "validated": True,
            }

    return asyncio.run(drive())


def run_tcp_update_check(n: int, delta: int, seed: int) -> dict:
    """The wire protocol end to end: solve → update → chained update,
    plus the stale-parent and typed-rejection error paths."""
    from bench_s1_service import ServerThread

    full = random_regular_graph(n, delta, seed=seed)
    matching = carve_matching(full, 4)
    base = full.apply_updates(removed=matching)
    out = {"n": n, "delta": delta}
    with ServerThread(max_queue=16) as server:
        with ColoringClient(port=server.port, timeout=300.0) as client:
            solved = client.solve(base, seed=seed)
            first = client.update(solved.fingerprint, edges_added=[matching[0]])
            child = base.apply_updates(added=[matching[0]])
            validate_coloring(
                child, list(first.result.colors), max_colors=first.result.palette
            )
            chained = client.update(
                first.fingerprint,
                edges_added=[matching[1]],
                edges_removed=[matching[0]],
            )
            out["chain_ok"] = (
                first.parent_digest == solved.fingerprint
                and chained.parent_digest == first.fingerprint
            )
            out["update_stats_present"] = bool(chained.update) and (
                "recolored_count" in chained.update
            )
            try:
                client.update("0" * 64, edges_added=[[0, 1]])
                out["stale_parent_ok"] = False
            except StaleParentError:
                out["stale_parent_ok"] = True
            try:
                client.update(chained.fingerprint, edges_removed=[matching[0]])
                out["typed_rejection_ok"] = False
            except IncrementalUpdateError:
                out["typed_rejection_ok"] = True
            out["validated"] = True
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI gate (make incremental-smoke)"
    )
    parser.add_argument(
        "--hot-n", type=int, default=32768,
        help="instance size of the headline cold-vs-update comparison",
    )
    parser.add_argument("--delta", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="acceptance bar for the single-edge service-path speedup",
    )
    parser.add_argument(
        "--sustained-n", type=int, default=100_000,
        help="instance size of the sustained-stream probe",
    )
    parser.add_argument(
        "--sustained-ops", type=int, default=2000,
        help="ops in the sustained-stream probe",
    )
    parser.add_argument(
        "--min-ops-per-sec", type=float, default=10_000.0,
        help="acceptance bar for sustained incremental throughput",
    )
    parser.add_argument("--json", default=str(RESULTS_DIR / "s2_incremental.json"))
    args = parser.parse_args(argv)

    report = {"bench": "s2_incremental", "mode": "smoke" if args.smoke else "full"}
    report["service_hot_update"] = run_service_hot_update(
        args.hot_n, args.delta, args.seed
    )
    report["sustained"] = sustained_update_stream(
        n=args.sustained_n, delta=args.delta, ops=args.sustained_ops,
        seed=args.seed,
    )
    report["tcp_update"] = run_tcp_update_check(
        2048 if args.smoke else 4096, args.delta, args.seed
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failures = []
    hot = report["service_hot_update"]
    if hot["speedup"] < args.min_speedup:
        failures.append(
            f"single-edge update speedup {hot['speedup']}x < {args.min_speedup}x"
        )
    if not hot["chain_ok"]:
        failures.append("update replies did not chain parent digests")
    if not hot["replay_cached"]:
        failures.append("replaying an identical update missed the cache")
    sustained = report["sustained"]
    if sustained["ops_per_sec"] < args.min_ops_per_sec:
        failures.append(
            f"sustained throughput {sustained['ops_per_sec']} ops/s < "
            f"{args.min_ops_per_sec} ops/s at n={sustained['n']}"
        )
    if sustained["full_resolves"]:
        failures.append(
            "sustained stream hit full re-solves; the matching workload "
            "must be Δ-preserving by construction"
        )
    tcp = report["tcp_update"]
    for key in ("chain_ok", "update_stats_present", "stale_parent_ok",
                "typed_rejection_ok", "validated"):
        if not tcp.get(key):
            failures.append(f"tcp update check failed: {key}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"s2_incremental ok: single-edge update {hot['update_ms']}ms vs "
            f"fresh {hot['cold_ms']}ms ({hot['speedup']}x) at n={hot['n']} "
            f"Δ={hot['delta']}; sustained {sustained['ops_per_sec']} ops/s "
            f"(p50 {sustained['p50_us']}µs) at n={sustained['n']}; "
            "chain + validity + typed errors verified",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
