"""S5 — durable store: populate a fleet, SIGKILL it, restart warm.

The tentpole contract of the pluggable storage layer
(:mod:`repro.service.storage`): a serving fleet started with
``--store-dir`` must come back from a hard kill *warm* — old digests
served from the durable store without re-solving, update chains rebuilt
from the WAL — because results are content-addressed and pure, so disk
is as authoritative as a solver run.  This bench drives that end to end
with real processes and reports one JSON document with:

* ``populate`` — N distinct solves + a few update chains through a
  2-shard fleet (per shard: ``<store-dir>/<shard-id>``), every coloring
  validated, every digest recorded.
* ``kill`` — every shard worker SIGKILLed (no drain, no atexit; the
  journal's write()-per-append discipline means process death loses
  nothing that was acknowledged).
* ``warm_restart`` — a fresh fleet on the *same* store directory:
  warm hit rate over the populated keyspace (gate: ≥ 90% ``cached``),
  every reply bit-identical (``content_digest``-asserted) to its
  pre-kill twin, per-shard WAL replay visible in ``stats()``
  (gate: every chain replayed), and restart-to-warm time bounded
  against the cold boot (gate: warm boot ≤ cold boot + 20 s).
* chain continuation after restart — recorded per chain; a head may
  route to a non-owning shard (the router's chain map is in-memory)
  where it degrades to the retriable ``stale_parent``, never to a
  wrong answer.  In-place continuation is gated at the gateway level
  in ``tests/test_storage_replay.py``.

Modes::

    python benchmarks/bench_s5_store.py            # full run
    python benchmarks/bench_s5_store.py --smoke    # make store-smoke

Results land in ``benchmarks/results/s5_store.json``; the store
directory itself (``benchmarks/results/s5_store_dir/``) is the CI
artifact to inspect when the gate fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from bench_s3_sharded import ShardedCluster

from repro.analysis.harness import carve_matching
from repro.errors import StaleParentError
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring
from repro.service import ColoringClient

RESULTS_DIR = Path(__file__).parent / "results"

#: Replay must not turn a restart into an outage: warm boot may exceed
#: the cold boot by at most this much (covers journal scans + chain
#: replays at bench scale with plenty of CI-box slack).
REPLAY_BUDGET_S = 20.0


def _serve_args(store_dir: Path, fsync: str) -> dict:
    return {
        "max-queue": 128,
        "store-dir": str(store_dir),
        "wal": "on",
        "fsync": fsync,
    }


def _workload(count, sizes, delta, seed):
    return [
        random_regular_graph(sizes[i % len(sizes)], delta, seed=seed + i)
        for i in range(count)
    ]


def run_populate(port, graphs, *, roots, chain_length, n, delta, seed) -> dict:
    """Fill the fleet: distinct solves + update chains, digests recorded."""
    solved = []
    chains = []
    started = time.perf_counter()
    with ColoringClient(port=port, timeout=300.0) as client:
        for graph in graphs:
            reply = client.solve(graph, algorithm="auto", seed=seed)
            validate_coloring(
                graph, list(reply.result.colors), max_colors=reply.result.palette
            )
            solved.append(
                {
                    "fingerprint": reply.fingerprint,
                    "digest": reply.result.content_digest(),
                }
            )
        for root in range(roots):
            full = random_regular_graph(n, delta, seed=seed + 10_000 + root)
            matching = carve_matching(full, chain_length + 1)
            base = full.apply_updates(removed=matching)
            parent = client.solve(base, seed=seed).fingerprint
            for step in range(chain_length):
                reply = client.update(parent, edges_added=[matching[step]])
                parent = reply.fingerprint
            chains.append(
                {
                    "head": parent,
                    "head_digest": reply.result.content_digest(),
                    "next_delta": list(matching[chain_length]),
                }
            )
    return {
        "solves": len(solved),
        "chains": len(chains),
        "chain_length": chain_length,
        "wall_s": round(time.perf_counter() - started, 3),
        "solved": solved,
        "chain_state": chains,
    }


def run_warm_phase(port, graphs, populate: dict, *, seed) -> dict:
    """Re-offer the populated keyspace to the restarted fleet."""
    hits = identical = 0
    with ColoringClient(port=port, timeout=300.0) as client:
        started = time.perf_counter()
        for graph, before in zip(graphs, populate["solved"]):
            reply = client.solve(graph, algorithm="auto", seed=seed)
            if reply.cached:
                hits += 1
            if (
                reply.fingerprint == before["fingerprint"]
                and reply.result.content_digest() == before["digest"]
            ):
                identical += 1
        serve_wall = time.perf_counter() - started

        # chain continuation: in place when the router's hash fallback
        # lands on the owning shard, retriable stale_parent otherwise
        continued = stale = 0
        for chain in populate["chain_state"]:
            try:
                reply = client.update(
                    chain["head"],
                    edges_added=[tuple(chain["next_delta"])],
                )
            except StaleParentError:
                stale += 1
                continue
            continued += 1
            if reply.parent_digest != chain["head"]:
                raise AssertionError(
                    "continued chain lost its lineage: "
                    f"{reply.parent_digest} != {chain['head']}"
                )
        stats = client.stats()

    shard_storage = [
        shard.get("storage") or {}
        for shard in stats["shards"]
        if shard.get("alive")
    ]
    replays = [s.get("replay") or {} for s in shard_storage]
    return {
        "requests": len(graphs),
        "warm_hits": hits,
        "hit_rate": round(hits / len(graphs), 4) if graphs else 0.0,
        "bit_identical": identical,
        "serve_wall_s": round(serve_wall, 3),
        "chains_continued_in_place": continued,
        "chains_stale_after_reroute": stale,
        "chains_replayed": sum(r.get("chains_replayed", 0) for r in replays),
        "deltas_replayed": sum(r.get("deltas_replayed", 0) for r in replays),
        "chains_skipped": sum(r.get("chains_skipped", 0) for r in replays),
        "per_shard_store": [
            {
                "entries": (s.get("store") or {}).get("entries", 0),
                "segments": (s.get("store") or {}).get("segments", 0),
                "bytes": (s.get("store") or {}).get("bytes", 0),
                "torn_records": (s.get("store") or {}).get("torn_records", 0),
            }
            for s in shard_storage
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate (make store-smoke)")
    parser.add_argument("--requests", type=int, default=40,
                        help="distinct solves to populate (the keyspace)")
    parser.add_argument("--sizes", default="64,256,1024")
    parser.add_argument("--delta", type=int, default=4)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--fsync", default="batch",
                        choices=("always", "batch", "never"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store-dir",
                        default=str(RESULTS_DIR / "s5_store_dir"))
    parser.add_argument("--json", default=str(RESULTS_DIR / "s5_store.json"))
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s]
    count = args.requests
    roots, chain_length = 4, 3
    if args.smoke:
        sizes = [32, 64, 128]
        count = 12
        roots, chain_length = 3, 2

    store_dir = Path(args.store_dir)
    if store_dir.exists():
        shutil.rmtree(store_dir)  # each run measures a fresh population
    serve_args = _serve_args(store_dir, args.fsync)
    graphs = _workload(count, sizes, args.delta, args.seed)

    report = {
        "bench": "s5_store",
        "mode": "smoke" if args.smoke else "load",
        "shards": args.shards,
        "fsync": args.fsync,
        "store_dir": str(store_dir),
    }

    # -- populate, then kill the whole fleet without ceremony --------------
    # poll_interval_s is high so the supervisor cannot resurrect the
    # corpses in the gap between our SIGKILLs and the teardown.
    boot_started = time.perf_counter()
    with ShardedCluster(
        args.shards, serve_args=serve_args, poll_interval_s=30.0
    ) as cluster:
        cold_boot_s = time.perf_counter() - boot_started
        report["populate"] = run_populate(
            cluster.port, graphs,
            roots=roots, chain_length=chain_length,
            n=64, delta=args.delta, seed=args.seed,
        )
        for worker in cluster.supervisor.workers:
            worker.process.kill()
    report["cold_boot_s"] = round(cold_boot_s, 3)
    report["kill"] = {"signal": "SIGKILL", "workers": args.shards}

    # -- fresh fleet, same directory: it must come back warm ---------------
    boot_started = time.perf_counter()
    with ShardedCluster(
        args.shards, serve_args=serve_args, poll_interval_s=30.0
    ) as cluster:
        warm_boot_s = time.perf_counter() - boot_started
        report["warm_restart"] = run_warm_phase(
            cluster.port, graphs, report["populate"], seed=args.seed
        )
    report["warm_boot_s"] = round(warm_boot_s, 3)
    report["restart_to_warm_budget_s"] = round(cold_boot_s + REPLAY_BUDGET_S, 3)

    # the digests themselves stay out of the committed JSON's way
    report["populate"] = {
        k: v for k, v in report["populate"].items()
        if k not in ("solved", "chain_state")
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failures = []
    warm = report["warm_restart"]
    if warm["hit_rate"] < 0.9:
        failures.append(
            f"warm hit rate {warm['hit_rate']} < 0.9 — the fleet re-solved "
            "the populated keyspace after restart"
        )
    if warm["bit_identical"] != warm["requests"]:
        failures.append(
            f"restart broke bit-identity: {warm['bit_identical']}/"
            f"{warm['requests']} digests matched pre-kill replies"
        )
    if warm["chains_replayed"] != report["populate"]["chains"]:
        failures.append(
            f"WAL replay incomplete: {warm['chains_replayed']}/"
            f"{report['populate']['chains']} chains rebuilt"
        )
    expected_deltas = report["populate"]["chains"] * report["populate"]["chain_length"]
    if warm["deltas_replayed"] != expected_deltas:
        failures.append(
            f"WAL replay incomplete: {warm['deltas_replayed']}/"
            f"{expected_deltas} deltas reapplied"
        )
    if warm["chains_continued_in_place"] + warm["chains_stale_after_reroute"] \
            != report["populate"]["chains"]:
        failures.append("a chain continuation failed non-retriably")
    if warm_boot_s > cold_boot_s + REPLAY_BUDGET_S:
        failures.append(
            f"restart-to-warm took {warm_boot_s:.1f}s "
            f"(cold boot {cold_boot_s:.1f}s + {REPLAY_BUDGET_S:g}s budget)"
        )
    if any(s["torn_records"] for s in warm["per_shard_store"]):
        failures.append("SIGKILL tore acknowledged records (flush discipline broken)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"s5_store ok: {warm['warm_hits']}/{warm['requests']} warm hits "
            f"after SIGKILL ({warm['bit_identical']} bit-identical), "
            f"{warm['chains_replayed']} chains / {warm['deltas_replayed']} "
            f"deltas replayed, warm boot {warm_boot_s:.1f}s "
            f"vs cold {cold_boot_s:.1f}s",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
