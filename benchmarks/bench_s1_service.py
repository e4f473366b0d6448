"""S1 — serving-layer load test: QPS, tail latency, cache, load shedding.

Drives a real :class:`repro.service.ColoringServer` over localhost TCP
with open-loop traffic (requests fire on a fixed schedule regardless of
completions — the honest way to measure tail latency under load) and
reports one JSON document with:

* ``hot_path`` — cold-solve vs cached latency on the same instance,
  sent as a :class:`Graph` (the packed wire form both clients use), plus
  the bit-identity check: the cached result's ``content_digest()``
  equals the fresh solve's.  The figures are reported, not gated: the
  hit path's speed is gated by ``scripts/ab.py`` on perfbench
  serve-read's ``latency_p50_ms`` and ``capacity_rps`` against the base
  commit.
* ``open_loop`` — achieved QPS vs offered, p50/p95/p99 latency, server
  cache hit rate, for a mixed-size workload with a configurable
  duplicate-request ratio.
* ``shedding`` — a burst beyond the queue bound against a deliberately
  tiny gateway: rejected requests fail *fast* with ``overloaded`` while
  admitted ones complete; nothing hangs.

Modes::

    python benchmarks/bench_s1_service.py              # full load test
    python benchmarks/bench_s1_service.py --smoke      # make serve-smoke
    python benchmarks/bench_s1_service.py --rate 200 --duration 5 --dup-ratio 0.8

``--smoke`` is the CI gate: 50 mixed requests through
:class:`repro.service.ColoringClient`, every returned coloring validated
client-side, cache hits and the hot path's bit-identity asserted,
shedding exercised.  Results land in ``benchmarks/results/s1_service.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.api import SolverConfig
from repro.errors import ServiceOverloadedError
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring
from repro.service import AsyncColoringClient, ColoringClient, ColoringServer
from repro.service.metrics import percentile

RESULTS_DIR = Path(__file__).parent / "results"


class ServerThread:
    """A :class:`ColoringServer` on its own event loop + thread.

    The load generator runs client-side in the main thread, so the
    server must live elsewhere; a thread (not a subprocess) keeps the
    bench runnable in constrained CI sandboxes and makes the server's
    in-process stats reachable for debugging.
    """

    def __init__(self, **server_kwargs):
        self._kwargs = {"host": "127.0.0.1", "port": 0, **server_kwargs}
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = ColoringServer(**self._kwargs)
        await server.start()
        self.port = server.port
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service did not start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


def _mixed_workload(count, sizes, delta, dup_ratio, hot_instances, seed):
    """``count`` graphs cycling through ``sizes``; a ``dup_ratio`` fraction
    repeats one of ``hot_instances`` hot graphs (cache traffic)."""
    hot = [
        random_regular_graph(sizes[i % len(sizes)], delta, seed=seed + i)
        for i in range(hot_instances)
    ]
    workload = []
    duplicates = 0
    seen_hot: set[int] = set()
    per_block = round(10 * dup_ratio)  # hot repeats per block of 10 requests
    for i in range(count):
        if i > 0 and (i % 10) < per_block:
            hot_index = i % len(hot)
            workload.append(hot[hot_index])
            # a hot graph's first-ever send is a miss, not a duplicate
            if hot_index in seen_hot:
                duplicates += 1
            else:
                seen_hot.add(hot_index)
        else:
            workload.append(
                random_regular_graph(
                    sizes[i % len(sizes)], delta, seed=seed + hot_instances + 1 + i
                )
            )
    return workload, duplicates


def _hit_rate_delta(cache_before: dict, cache_after: dict) -> float:
    """Hit rate over one measurement phase (lifetime counters differenced,
    so earlier phases on the same server don't contaminate the number)."""
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    total = hits + misses
    return round(hits / total, 4) if total else 0.0


def run_hot_path(port: int, n: int, delta: int, seed: int) -> dict:
    """Cold-vs-cached latency on one instance + bit-identity check.

    Best-of-N on both sides (the box timing noise is large): cold over a
    few distinct-seed solves of the same graph (distinct fingerprints, so
    each is genuinely uncached), hot over repeats of the first request.
    """
    graph = random_regular_graph(n, delta, seed=seed)
    with ColoringClient(port=port, timeout=600.0) as client:
        cold_samples = []
        for i in range(3):
            t0 = time.perf_counter()
            reply = client.solve(graph, algorithm="auto", seed=seed + i)
            cold_samples.append(time.perf_counter() - t0)
            assert not reply.cached, "distinct-seed request must solve cold"
            if i == 0:
                cold = reply
        hot_samples = []
        for _ in range(8):
            t0 = time.perf_counter()
            hot = client.solve(graph, algorithm="auto", seed=seed)
            hot_samples.append(time.perf_counter() - t0)
            assert hot.cached, "repeat request must hit the cache"
        cold_s, hot_s = min(cold_samples), min(hot_samples)
        bit_identical = hot.result.content_digest() == cold.result.content_digest()
        validate_coloring(graph, list(cold.result.colors), max_colors=cold.result.palette)
    return {
        "n": n,
        "delta": delta,
        "cold_ms": round(1000 * cold_s, 3),
        "hot_ms": round(1000 * hot_s, 3),
        "speedup": round(cold_s / hot_s, 1),
        "bit_identical": bit_identical,
    }


async def _open_loop_async(
    port, workload, rate, config, connections
) -> tuple[list[float], int, dict, dict]:
    """Fire one request per workload item at ``rate``/s, spread over
    ``connections`` pipelined clients; returns (latencies, rejected,
    stats_before, stats_after) — before/after so callers report this
    phase's cache delta, not the server's lifetime counters."""
    clients = []
    for _ in range(connections):
        clients.append(await AsyncColoringClient(port=port).connect())
    stats_before = await clients[0].stats()
    latencies: list[float] = []
    rejected = 0

    async def one(client, graph, fire_at):
        nonlocal rejected
        delay = fire_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        t0 = time.perf_counter()
        try:
            await client.solve(graph, config)
            latencies.append(time.perf_counter() - t0)
        except ServiceOverloadedError:
            rejected += 1

    start = time.perf_counter() + 0.05
    tasks = [
        asyncio.ensure_future(one(clients[i % connections], graph, start + i / rate))
        for i, graph in enumerate(workload)
    ]
    await asyncio.gather(*tasks)
    stats_after = await clients[0].stats()
    for client in clients:
        await client.close()
    return latencies, rejected, stats_before, stats_after


def run_open_loop(
    port, *, rate, count, sizes, delta, dup_ratio, hot_instances, seed, connections=4
) -> dict:
    workload, duplicates = _mixed_workload(
        count, sizes, delta, dup_ratio, hot_instances, seed
    )
    config = SolverConfig(algorithm="auto", seed=seed)
    t0 = time.perf_counter()
    latencies, rejected, before, after = asyncio.run(
        _open_loop_async(port, workload, rate, config, connections)
    )
    elapsed = time.perf_counter() - t0
    ordered = sorted(latencies)
    out = {
        "requests": count,
        "duplicates": duplicates,
        "dup_ratio": dup_ratio,
        "sizes": list(sizes),
        "offered_qps": rate,
        "achieved_qps": round(len(latencies) / elapsed, 2),
        "completed": len(latencies),
        "rejected": rejected,
        "cache_hit_rate": _hit_rate_delta(before["cache"], after["cache"]),
        "coalesced": after["coalesced"] - before["coalesced"],
        "mean_batch_size": after["metrics"]["mean_batch_size"],
    }
    if ordered:
        out.update(
            p50_ms=round(1000 * percentile(ordered, 50), 3),
            p95_ms=round(1000 * percentile(ordered, 95), 3),
            p99_ms=round(1000 * percentile(ordered, 99), 3),
            mean_ms=round(1000 * statistics.mean(ordered), 3),
        )
    return out


def run_smoke_requests(
    port, *, count, sizes, delta, dup_ratio, hot_instances, seed
) -> dict:
    """The serve-smoke body: ``count`` mixed requests through the blocking
    :class:`ColoringClient`, every returned coloring validated client-side."""
    workload, duplicates = _mixed_workload(
        count, sizes, delta, dup_ratio, hot_instances, seed
    )
    hits = 0
    with ColoringClient(port=port, timeout=300.0) as client:
        assert client.ping()
        before = client.stats()
        for graph in workload:
            reply = client.solve(graph, algorithm="auto", seed=seed)
            validate_coloring(
                graph, list(reply.result.colors), max_colors=reply.result.palette
            )
            hits += reply.cached
        after = client.stats()
    return {
        "requests": count,
        "duplicates": duplicates,
        "cache_hits": hits,
        "validated": count,
        "server_hit_rate": _hit_rate_delta(before["cache"], after["cache"]),
    }


def run_shedding(n: int, delta: int, seed: int, burst: int = 24) -> dict:
    """Burst ``burst`` distinct requests at a gateway bounded to 2: the
    overflow must be rejected immediately and nothing may hang."""
    with ServerThread(max_queue=2, max_batch=2, max_wait_s=0.0) as server:
        graphs = [
            random_regular_graph(n, delta, seed=seed + i) for i in range(burst)
        ]
        config = SolverConfig(algorithm="auto", seed=seed, validate=False)

        async def drive():
            client = await AsyncColoringClient(port=server.port).connect()
            completed, rejected, reject_lat = 0, 0, []

            async def one(graph):
                nonlocal completed, rejected
                t0 = time.perf_counter()
                try:
                    await client.solve(graph, config)
                    completed += 1
                except ServiceOverloadedError:
                    reject_lat.append(time.perf_counter() - t0)
                    rejected += 1

            t0 = time.perf_counter()
            await asyncio.wait_for(
                asyncio.gather(*(one(g) for g in graphs)), timeout=120
            )
            elapsed = time.perf_counter() - t0
            await client.close()
            return completed, rejected, reject_lat, elapsed

        completed, rejected, reject_lat, elapsed = asyncio.run(drive())
    return {
        "burst": burst,
        "max_queue": 2,
        "completed": completed,
        "rejected": rejected,
        "max_reject_ms": round(1000 * max(reject_lat), 3) if reject_lat else None,
        "wall_s": round(elapsed, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true", help="CI gate (make serve-smoke)")
    parser.add_argument("--rate", type=float, default=100.0, help="offered requests/s")
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--duration", type=float, default=None,
                        help="overrides --requests as rate*duration")
    parser.add_argument("--sizes", default="64,256,1024",
                        help="comma-separated node counts of the mixed workload")
    parser.add_argument("--delta", type=int, default=4)
    parser.add_argument("--hot-delta", type=int, default=8,
                        help="degree of the cold-vs-cached instance (denser = "
                        "costlier solve per payload byte)")
    parser.add_argument("--dup-ratio", type=float, default=0.5)
    parser.add_argument("--hot-instances", type=int, default=8)
    parser.add_argument("--hot-n", type=int, default=8192,
                        help="instance size for the cold-vs-cached check")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=str(RESULTS_DIR / "s1_service.json"))
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s]
    count = args.requests
    if args.duration is not None:
        count = max(1, int(args.rate * args.duration))
    if args.smoke:
        sizes = [32, 64, 128]
        count = 50
        args.hot_n = 8192
        args.rate = min(args.rate, 100.0)

    report = {"bench": "s1_service", "mode": "smoke" if args.smoke else "load"}
    with ServerThread(max_queue=max(64, count)) as server:
        report["hot_path"] = run_hot_path(
            server.port, args.hot_n, args.hot_delta, args.seed
        )
        if args.smoke:
            report["smoke_requests"] = run_smoke_requests(
                server.port,
                count=count,
                sizes=sizes,
                delta=args.delta,
                dup_ratio=args.dup_ratio,
                hot_instances=args.hot_instances,
                seed=args.seed,
            )
        else:
            report["open_loop"] = run_open_loop(
                server.port,
                rate=args.rate,
                count=count,
                sizes=sizes,
                delta=args.delta,
                dup_ratio=args.dup_ratio,
                hot_instances=args.hot_instances,
                seed=args.seed,
            )
    report["shedding"] = run_shedding(512, args.delta, args.seed)

    RESULTS_DIR.mkdir(exist_ok=True)
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failures = []
    hot = report["hot_path"]
    if not hot["bit_identical"]:
        failures.append("cached result is not bit-identical to the fresh solve")
    shed = report["shedding"]
    if shed["rejected"] == 0:
        failures.append("queue-bound burst produced no rejections")
    if shed["completed"] == 0:
        failures.append("queue-bound burst completed nothing")
    if args.smoke:
        smoke = report["smoke_requests"]
        if smoke["validated"] != count:
            failures.append("not every smoke request was validated")
        if smoke["cache_hits"] == 0:
            failures.append("duplicate traffic produced no cache hits")
    else:
        open_loop = report["open_loop"]
        if open_loop["completed"] + open_loop["rejected"] != count:
            failures.append("open-loop requests went missing (hang?)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        traffic = report.get("open_loop") or report.get("smoke_requests")
        rate_info = (
            f"{traffic['achieved_qps']} qps achieved, hit rate "
            f"{traffic['cache_hit_rate']}"
            if "achieved_qps" in traffic
            else f"{traffic['cache_hits']}/{traffic['requests']} cache hits"
        )
        print(
            f"s1_service ok: hot path {hot['hot_ms']}ms cached vs "
            f"{hot['cold_ms']}ms cold at n={hot['n']}, {rate_info}, "
            f"{shed['rejected']}/{shed['burst']} shed",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
