"""S3 — sharded-service scale-out: offered vs achieved QPS at 1/2/4 shards.

Drives the consistent-hash front tier (:class:`repro.service.ShardRouter`
over :class:`ShardWorker` child processes, the ``repro serve --shards N``
topology) with the same open-loop mixed workload as ``bench_s1_service``
and reports one JSON document with:

* ``single_process`` / ``sharded`` — achieved QPS per topology on the
  50%-duplicate mixed workload, and ``speedup_2shard`` (2-shard cluster
  vs the plain single-process server).  ``--smoke`` fails below the
  ≥ 1.5× floor, and skips it on a box with fewer than 2 CPUs, where two
  solver processes cannot outrun one.
* ``routed_identity`` — the same solve payloads through the router and
  through one single-process server produce bit-identical results (same
  ``content_digest()``, same fingerprints).
* ``update_locality`` — update chains through the router never break
  (zero ``stale_parent``), and the cluster snapshot shows every chain's
  live engine on exactly one shard (chains never cross shards).
* ``kill_restart`` — a shard worker is SIGKILLed mid-load: the only
  client-visible failures are retriable ``overloaded`` errors, the
  supervisor restarts the worker, and the full fleet serves again.

Modes::

    python benchmarks/bench_s3_sharded.py            # full load test
    python benchmarks/bench_s3_sharded.py --smoke    # make shard-smoke

Results land in ``benchmarks/results/s3_sharded.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path

from bench_s1_service import ServerThread, _mixed_workload, run_open_loop

from repro.errors import ServiceOverloadedError
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring
from repro.service import AsyncColoringClient, ColoringClient
from repro.service.sharding import ShardRouter, ShardSupervisor

RESULTS_DIR = Path(__file__).parent / "results"
SHARDED_FLOOR = 1.5  # --smoke: 2 shards must serve >= 1.5x one process


class ShardedCluster:
    """Supervisor + router + monitor on their own event-loop thread.

    The ``repro serve --shards N`` topology, embedded: N real
    ``repro serve`` child processes behind an in-thread
    :class:`ShardRouter`, with the supervision loop live (so the
    kill/restart phase exercises the real recovery path).  The load
    generator stays in the main thread, exactly as in ``bench_s1``.
    """

    def __init__(
        self, shards: int, *, serve_args=None, poll_interval_s=0.1,
        router_kwargs=None,
    ):
        self.supervisor = ShardSupervisor(
            shards,
            serve_args=serve_args,
            poll_interval_s=poll_interval_s,
            boot_timeout_s=60.0,
            backoff_base_s=0.1,
        )
        self._router_kwargs = dict(router_kwargs or {})
        self.port: int | None = None
        self._started = threading.Event()
        self._boot_error: BaseException | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            addresses = await self._loop.run_in_executor(
                None, self.supervisor.start
            )
            router = ShardRouter(addresses, port=0, **self._router_kwargs)
            await router.start()
        except BaseException as exc:  # surface boot failures to __enter__
            self._boot_error = exc
            self._started.set()
            raise
        self.port = router.port
        monitor = self._loop.create_task(
            self.supervisor.monitor(router, stop=self._stop)
        )
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await router.close()
            await monitor

    def __enter__(self) -> "ShardedCluster":
        self._thread.start()
        if not self._started.wait(timeout=120):
            raise RuntimeError("sharded cluster did not start within 120s")
        if self._boot_error is not None:
            raise RuntimeError(f"cluster boot failed: {self._boot_error}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        self.supervisor.stop(drain_s=5.0)


def _serve_args(count: int) -> dict:
    return {"max-queue": max(64, count)}


def run_routed_identity(
    sharded_port: int, single_port: int, *, sizes, delta, seed, count=8
) -> dict:
    """Bit-identity: routed replies == single-process replies."""
    graphs = [
        random_regular_graph(sizes[i % len(sizes)], delta, seed=seed + i)
        for i in range(count)
    ]
    identical = 0
    with ColoringClient(port=sharded_port, timeout=300.0) as routed, \
            ColoringClient(port=single_port, timeout=300.0) as single:
        for graph in graphs:
            a = routed.solve(graph, algorithm="auto", seed=seed)
            b = single.solve(graph, algorithm="auto", seed=seed)
            validate_coloring(
                graph, list(a.result.colors), max_colors=a.result.palette
            )
            if (
                a.fingerprint == b.fingerprint
                and a.result.content_digest() == b.result.content_digest()
            ):
                identical += 1
    return {"requests": count, "bit_identical": identical}


def run_update_locality(
    port: int, *, roots, chain_length, n, delta, seed
) -> dict:
    """Update chains through the router: no broken chains, and every
    chain's live engine on exactly one shard."""
    from repro.analysis.harness import carve_matching

    stale = 0
    updates = 0
    with ColoringClient(port=port, timeout=300.0) as client:
        for root in range(roots):
            full = random_regular_graph(n, delta, seed=seed + root)
            matching = carve_matching(full, chain_length)
            base = full.apply_updates(removed=matching)
            parent = client.solve(base, seed=seed).fingerprint
            current = base
            for step in range(chain_length):
                try:
                    reply = client.update(
                        parent, edges_added=[matching[step]]
                    )
                except Exception as exc:  # noqa: BLE001 - counted, re-raised below
                    if type(exc).__name__ == "StaleParentError":
                        stale += 1
                        break
                    raise
                updates += 1
                current = current.apply_updates(added=[matching[step]])
                validate_coloring(
                    current, list(reply.result.colors),
                    max_colors=reply.result.palette,
                )
                parent = reply.fingerprint
        stats = client.stats()
    per_shard_chains = [
        shard.get("graph_store", {}).get("chains", 0)
        for shard in stats["shards"]
        if shard.get("alive")
    ]
    return {
        "roots": roots,
        "chain_length": chain_length,
        "updates_ok": updates,
        "stale_parent": stale,
        "per_shard_chains": per_shard_chains,
        "total_chains": sum(per_shard_chains),
    }


def run_kill_restart(
    cluster: ShardedCluster, *, rate, count, sizes, delta, seed
) -> dict:
    """SIGKILL one shard mid-load; only retriable errors allowed, and the
    fleet must be whole (and serving) again afterwards."""
    workload, _ = _mixed_workload(count, sizes, delta, 0.5, 4, seed)
    kill_at = count // 4
    shards = len(cluster.supervisor.workers)

    async def drive():
        client = await AsyncColoringClient(port=cluster.port).connect()
        completed = retriable = 0
        unexpected: list[str] = []

        async def one(graph, index, fire_at):
            nonlocal completed, retriable
            delay = fire_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if index == kill_at:
                # murder shard-0 from under the open connections
                cluster.supervisor.workers[0].process.kill()
            try:
                await client.solve(graph, algorithm="auto", seed=seed)
                completed += 1
            except ServiceOverloadedError:
                retriable += 1
            except Exception as exc:  # noqa: BLE001 - the bench's whole point
                unexpected.append(f"{type(exc).__name__}: {exc}")

        start = time.perf_counter() + 0.05
        await asyncio.gather(
            *(
                one(graph, i, start + i / rate)
                for i, graph in enumerate(workload)
            )
        )
        # wait for the supervisor to bring the fleet back to full strength
        deadline = time.monotonic() + 60.0
        alive = 0
        while time.monotonic() < deadline:
            stats = await client.stats()
            alive = stats["router"]["alive"]
            if alive == shards:
                break
            await asyncio.sleep(0.2)
        # the restarted arc serves again (cold cache, fresh process)
        post = 0
        for i in range(8):
            try:
                await client.solve(
                    random_regular_graph(
                        sizes[0], delta, seed=seed + 10_000 + i
                    ),
                    algorithm="auto",
                    seed=seed,
                )
                post += 1
            except ServiceOverloadedError:
                pass
        await client.close()
        return completed, retriable, unexpected, alive, post

    completed, retriable, unexpected, alive, post = asyncio.run(drive())
    return {
        "requests": count,
        "completed": completed,
        "retriable_errors": retriable,
        "unexpected_errors": unexpected,
        "alive_after_recovery": alive,
        "shards": shards,
        "restarts": cluster.supervisor.workers[0].restarts,
        "post_recovery_completed": post,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate (make shard-smoke)")
    parser.add_argument("--rate", type=float, default=300.0,
                        help="offered requests/s (above capacity, so "
                        "achieved QPS measures capacity)")
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--sizes", default="64,256,1024")
    parser.add_argument("--delta", type=int, default=4)
    parser.add_argument("--dup-ratio", type=float, default=0.5)
    parser.add_argument("--hot-instances", type=int, default=8)
    parser.add_argument("--shard-counts", default="1,2,4",
                        help="sharded topologies to measure")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=str(RESULTS_DIR / "s3_sharded.json"))
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s]
    shard_counts = [int(s) for s in args.shard_counts.split(",") if s]
    count = args.requests
    rate = args.rate
    if args.smoke:
        sizes = [32, 64, 128]
        count = 60
        rate = 150.0
        shard_counts = [1, 2]

    open_loop_kwargs = dict(
        count=count, sizes=sizes, delta=args.delta,
        dup_ratio=args.dup_ratio, hot_instances=args.hot_instances,
        seed=args.seed,
    )
    report = {
        "bench": "s3_sharded",
        "mode": "smoke" if args.smoke else "load",
        "cpu_count": os.cpu_count() or 1,
        "shard_counts": shard_counts,
    }

    # -- throughput: plain single process, then each sharded topology ------
    with ServerThread(max_queue=max(64, count)) as single:
        report["single_process"] = run_open_loop(
            single.port, rate=rate, **open_loop_kwargs
        )
        single_qps = report["single_process"]["achieved_qps"]

        # routed identity needs both topologies up at once
        with ShardedCluster(2, serve_args=_serve_args(count)) as pair:
            report["routed_identity"] = run_routed_identity(
                pair.port, single.port,
                sizes=sizes, delta=args.delta, seed=args.seed + 777,
            )

    report["sharded"] = {}
    for shards in shard_counts:
        with ShardedCluster(shards, serve_args=_serve_args(count)) as cluster:
            point = run_open_loop(cluster.port, rate=rate, **open_loop_kwargs)
            point["speedup_vs_single_process"] = (
                round(point["achieved_qps"] / single_qps, 3)
                if single_qps else None
            )
            report["sharded"][str(shards)] = point
    two = report["sharded"].get("2")
    report["speedup_2shard"] = (
        two["speedup_vs_single_process"] if two else None
    )

    # -- correctness under the interesting failure modes -------------------
    with ShardedCluster(2, serve_args=_serve_args(count)) as cluster:
        report["update_locality"] = run_update_locality(
            cluster.port,
            roots=3 if args.smoke else 6,
            chain_length=4 if args.smoke else 8,
            n=64, delta=args.delta, seed=args.seed + 31,
        )
        report["kill_restart"] = run_kill_restart(
            cluster,
            rate=min(rate, 50.0),
            count=40 if args.smoke else 120,
            sizes=sizes, delta=args.delta, seed=args.seed + 97,
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failures = []
    identity = report["routed_identity"]
    if identity["bit_identical"] != identity["requests"]:
        failures.append(
            f"routed solves not bit-identical to single-process "
            f"({identity['bit_identical']}/{identity['requests']})"
        )
    locality = report["update_locality"]
    if locality["stale_parent"]:
        failures.append(
            f"{locality['stale_parent']} update chain(s) broke (stale_parent)"
        )
    if locality["total_chains"] != locality["roots"]:
        failures.append(
            f"chain accounting off: {locality['total_chains']} live engines "
            f"for {locality['roots']} chains (a chain crossed shards?)"
        )
    kill = report["kill_restart"]
    if kill["unexpected_errors"]:
        failures.append(
            f"kill/restart produced non-retriable client errors: "
            f"{kill['unexpected_errors'][:3]}"
        )
    if kill["alive_after_recovery"] != kill["shards"]:
        failures.append(
            f"fleet never recovered: {kill['alive_after_recovery']}/"
            f"{kill['shards']} alive"
        )
    if kill["post_recovery_completed"] == 0:
        failures.append("nothing served after the restart")
    speed = report["speedup_2shard"]
    if args.smoke and report["cpu_count"] < 2:
        print(
            f"2-shard throughput floor skipped: {report['cpu_count']} CPU",
            file=sys.stderr,
        )
    elif args.smoke and (speed is None or speed < SHARDED_FLOOR):
        failures.append(
            f"2-shard speedup {speed}x < the {SHARDED_FLOOR}x floor"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"s3_sharded ok: single {single_qps} qps, "
            + ", ".join(
                f"{k}-shard {v['achieved_qps']} qps"
                for k, v in report["sharded"].items()
            )
            + (f", 2-shard speedup {speed}x" if speed else "")
            + f", kill/restart clean ({kill['retriable_errors']} retriable, "
            f"{kill['restarts']} restart)",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
