"""Command-line interface: ``python -m repro``.

Gives downstream users a zero-code path to the library:

* ``color`` — Δ-color a graph given as an edge list file (one ``u v``
  pair per line, whitespace-separated, ``#`` comments allowed, 0-based
  or arbitrary integer ids); writes ``node color`` lines to stdout or a
  file, or the full :class:`repro.api.ColoringResult` schema with
  ``--json``.  ``--algorithm`` accepts any registry name
  (``repro.api.list_algorithms()``); the default ``auto`` picks per
  instance and handles arbitrary graphs (nice components get Δ colors,
  Brooks' exceptions get their optimum).
* ``serve`` — run the newline-delimited-JSON coloring service
  (:mod:`repro.service`): an asyncio TCP gateway that fingerprints,
  caches, micro-batches and load-sheds solve and update requests,
  solving in its worker thread.  ``--shards N`` scales out to N
  supervised worker processes behind a consistent-hash router speaking
  the same protocol (the way to serve on many CPUs).  See docs/SERVICE.md for the protocol and the
  sharding topology.
* ``trace`` — render span JSONL exported by ``serve --trace-dir`` (see
  :mod:`repro.obs`) as a slowest-traces table plus per-trace waterfalls;
  the cross-process view of where one request's time went, router to
  solver phase.
* ``lint`` — run **reprolint**, the repository's AST-based invariant
  linter (:mod:`repro.devtools`): eight repo-contract rules (seeded-only
  randomness, non-blocking async tiers, no numpy under src/, clock-free
  fingerprints, typed storage excepts, validated wire access, complete
  vectorized/python fallback pairs, no wall-clock asserts in tests) with
  suppressions, pyproject config and a committed baseline.  See docs/DEVTOOLS.md.
* ``demo`` — run one of the bundled example scenarios.
* ``info`` — parse a graph and print its structural profile (Δ, girth
  probe, niceness, Gallai-tree status, component count), plus whether
  the native kernel loaded (its path and entry points) or why it did not.
* ``bench`` — wall-clock measurement via :mod:`repro.analysis.harness`:
  ``--smoke`` runs every ``benchmarks/bench_e*.py`` at its tiniest size
  (the CI rot check behind ``make bench-smoke``), ``--sweep`` times
  end-to-end Δ-coloring across instance sizes with warmup/repetition and
  optional JSON output; ``--workers N --batch B`` adds a throughput
  sweep that fans B instances per size over a shared N-worker pool via
  :func:`repro.api.solve_many`.

Examples::

    python -m repro color edges.txt
    python -m repro color edges.txt --algorithm deterministic -o colors.txt
    python -m repro color edges.txt --json
    python -m repro info edges.txt
    python -m repro bench --smoke
    python -m repro bench --sweep --sizes 2000,20000,250000 --json out.json
    python -m repro bench --sweep --workers 4 --batch 8
    python -m repro serve --port 8512 --max-queue 128
    python -m repro serve --port 8512 --shards 2
    python -m repro serve --port 8512 --shards 2 --trace-dir traces/
    python -m repro trace traces/ --top 3
    python -m repro lint src scripts benchmarks tests
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import native
from repro.api import SolverConfig, list_algorithms, solve
from repro.errors import GraphConstructionError, ReproError
from repro.graphs.graph import Graph
from repro.graphs.properties import girth_up_to, is_gallai_tree, is_nice

__all__ = ["main", "load_edge_list"]


def load_edge_list(path: str) -> tuple[Graph, list[int]]:
    """Parse an edge-list file into a Graph.

    Node ids may be arbitrary integers; they are compacted to 0..n-1.
    Returns ``(graph, original_ids)`` where ``original_ids[i]`` is the id
    written back in the output for internal node i.

    ``#`` starts a comment (full-line or trailing); blank lines are
    skipped.  Malformed lines, self-loops, and duplicate edges raise
    :class:`repro.errors.GraphConstructionError` naming the offending
    ``path:line`` — bad inputs fail at parse time with a clear message
    instead of surfacing as confusing downstream failures.

    The file is streamed line by line (never materialised as one
    string), so peak memory on large uploads — the service ingest path —
    is the parsed edge list, not the edge list plus its text.
    """
    pairs: list[tuple[int, int]] = []
    ids: set[int] = set()
    first_seen: dict[tuple[int, int], int] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphConstructionError(
                    f"{path}:{line_number}: expected 'u v', got {line.rstrip()!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphConstructionError(
                    f"{path}:{line_number}: node ids must be integers, "
                    f"got {line.rstrip()!r}"
                ) from None
            if u == v:
                raise GraphConstructionError(
                    f"{path}:{line_number}: self-loop at node {u} "
                    "(coloring graphs must be simple)"
                )
            key = (min(u, v), max(u, v))
            if key in first_seen:
                raise GraphConstructionError(
                    f"{path}:{line_number}: duplicate edge {u} {v} "
                    f"(first seen at line {first_seen[key]})"
                )
            first_seen[key] = line_number
            pairs.append((u, v))
            ids.add(u)
            ids.add(v)
    original_ids = sorted(ids)
    index = {node: i for i, node in enumerate(original_ids)}
    edges = [
        (min(index[u], index[v]), max(index[u], index[v])) for u, v in pairs
    ]
    return Graph(len(original_ids), edges), original_ids


def _cmd_color(args: argparse.Namespace) -> int:
    graph, original_ids = load_edge_list(args.edges)
    config = SolverConfig(algorithm=args.algorithm, seed=args.seed)
    result = solve(graph, config)
    if args.json:
        payload = dict(result.as_dict())
        payload["node_ids"] = original_ids
        output = json.dumps(payload, indent=2) + "\n"
    else:
        output = (
            "\n".join(
                f"{original_ids[v]} {result.colors[v]}" for v in range(graph.n)
            )
            + "\n"
        )
    if args.output:
        Path(args.output).write_text(output)
    else:
        sys.stdout.write(output)
    families = result.stats.get("component_families")
    summary = (
        f"components: {families}" if families is not None
        else f"phases: {result.phase_rounds}"
    )
    print(
        f"# colored n={graph.n} m={graph.num_edges} with {result.palette} "
        f"colors in {result.rounds} LOCAL rounds "
        f"[{result.algorithm}, {result.wall_time_s:.3f}s]; {summary}",
        file=sys.stderr,
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph, _ = load_edge_list(args.edges)
    components = graph.connected_components()
    girth = girth_up_to(graph, 12)
    print(f"nodes        : {graph.n}")
    print(f"edges        : {graph.num_edges}")
    print(f"max degree Δ : {graph.max_degree()}")
    print(f"min degree   : {graph.min_degree()}")
    print(f"components   : {len(components)}")
    print(f"girth (<=12) : {girth if girth is not None else '>12 or acyclic'}")
    print(f"nice         : {is_nice(graph)}")
    print(f"gallai tree  : {is_gallai_tree(graph)}")
    print(f"native kernel: {native.kernel_status().describe()}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if not args.smoke and not args.sweep:
        print("bench: pass --smoke and/or --sweep", file=sys.stderr)
        return 2
    status = 0
    if args.smoke:
        status = _bench_smoke(args.smoke_json)
    if args.sweep and status == 0:
        status = _bench_sweep(args)
    return status


def _bench_smoke(json_path: str | None = None) -> int:
    """Import every ``benchmarks/bench_e*.py`` and run its ``build_*``
    functions at smoke size; any exception fails the run.

    With ``json_path``, per-module wall-clock seconds are written as one
    JSON document — the input of ``scripts/check_bench_regression.py``,
    the CI perf-regression gate (compared against the committed baseline
    in ``benchmarks/baselines/``).
    """
    import importlib
    import os
    import platform
    import time
    import traceback

    os.environ["REPRO_BENCH_SMOKE"] = "1"
    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        print(f"bench: no benchmarks directory at {bench_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench_dir))
    failures = 0
    modules: dict[str, dict] = {}
    for path in sorted(bench_dir.glob("bench_e*.py")):
        module_name = path.stem
        started = time.perf_counter()
        try:
            module = importlib.import_module(module_name)
            builders = [
                fn
                for name in sorted(dir(module))
                if name.startswith("build_")
                and callable(fn := getattr(module, name))
                and getattr(fn, "__module__", None) == module.__name__
            ]
            if not builders:
                raise RuntimeError("no build_* functions found")
            for builder in builders:
                builder()
            elapsed = time.perf_counter() - started
            modules[module_name] = {"seconds": round(elapsed, 3), "ok": True}
            print(f"smoke {module_name:<28} ok    {elapsed:6.1f}s ({len(builders)} tables)")
        except Exception:
            failures += 1
            elapsed = time.perf_counter() - started
            modules[module_name] = {"seconds": round(elapsed, 3), "ok": False}
            print(f"smoke {module_name:<28} FAIL  {elapsed:6.1f}s")
            traceback.print_exc()
    if json_path:
        payload = {
            "bench": "smoke",
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "modules": modules,
        }
        out = Path(json_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    if failures:
        print(f"bench --smoke: {failures} bench module(s) failed", file=sys.stderr)
        return 1
    return 0


def _bench_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.harness import (
        HarnessReport,
        delta_coloring_sweep,
        throughput_sweep,
    )

    try:
        sweep_sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print(f"bench: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 2
    report = HarnessReport(name="delta-coloring-wall-clock")
    report.add(
        f"randomized-large Δ={args.delta}",
        delta_coloring_sweep(
            sweep_sizes,
            delta=args.delta,
            seed=args.seed,
            warmup=args.warmup,
            repeats=args.repeats,
        ),
    )
    if args.workers > 1:
        report.add(
            f"solve_many batch={args.batch} workers={args.workers} Δ={args.delta}",
            throughput_sweep(
                sweep_sizes,
                delta=args.delta,
                seed=args.seed,
                batch=args.batch,
                workers=args.workers,
                warmup=args.warmup,
                repeats=args.repeats,
            ),
        )
    print(report.render())
    if args.json:
        written = report.write_json(args.json)
        print(f"wrote {written}")
    return 0


def _publish_port(port_file: str | None, host: str, port: int) -> None:
    """Publish ``host port\\n`` for the ShardWorker boot handshake.

    Written to a sibling temp file and ``os.replace``d so a reader never
    observes a half-written line.
    """
    if not port_file:
        return
    import os

    target = Path(port_file)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(f"{host} {port}\n")
    os.replace(tmp, target)


def _install_stop_handlers(loop, stop) -> None:
    """SIGTERM/SIGINT set the stop event → graceful drain (best effort:
    not every platform/loop supports add_signal_handler)."""
    import signal

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass


def _serve_tracer(args: argparse.Namespace, filename: str):
    """Build the process's span exporter from ``--trace-dir`` (or None).

    Each process writes its own JSONL file under the shared directory —
    ``repro trace <dir>`` reads them all and reassembles cross-process
    traces by trace id.
    """
    if not getattr(args, "trace_dir", None):
        return None
    from repro.obs.trace import Tracer

    trace_dir = Path(args.trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    return Tracer(
        sample=args.trace_sample,
        export_path=str(trace_dir / filename),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    if args.shards > 1:
        return _cmd_serve_sharded(args)

    from repro.service.server import ColoringServer
    from repro.service.storage import StorageConfig

    storage = StorageConfig(
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes if args.cache_bytes > 0 else None,
        store_dir=args.store_dir or None,
        wal=args.wal == "on",
        fsync=args.fsync,
    )
    server = ColoringServer(
        host=args.host,
        port=args.port,
        storage=storage,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        max_queue=args.max_queue,
        max_cost=args.max_cost if args.max_cost > 0 else None,
        tracer=_serve_tracer(args, f"server-{os.getpid()}.jsonl"),
    )

    async def _serve() -> None:
        stop = asyncio.Event()
        _install_stop_handlers(asyncio.get_running_loop(), stop)
        host, port = await server.start()
        _publish_port(args.port_file, host, port)
        print(
            f"# repro service listening on {host}:{port} "
            f"[max_batch={args.max_batch} "
            f"max_queue={args.max_queue} cache_entries={args.cache_entries}"
            + (f" store_dir={args.store_dir} fsync={args.fsync}" if args.store_dir else "")
            + "]",
            file=sys.stderr,
        )
        try:
            await stop.wait()
        finally:
            await server.shutdown(drain_s=args.drain_s)
        print("# repro service stopped (drained)", file=sys.stderr)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("# repro service stopped", file=sys.stderr)
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: supervised worker fleet + front tier.

    Each shard is a full single-process server (its own gateway,
    cache and graph store) spawned as a child; the router speaks the
    same NDJSON protocol on ``--host:--port``, so clients are unchanged.
    """
    import asyncio

    from repro.service.sharding import ShardRouter, ShardSupervisor

    serve_args = {
        "max-batch": args.max_batch,
        "max-wait-ms": args.max_wait_ms,
        "max-queue": args.max_queue,
        "max-cost": args.max_cost,
        "cache-entries": args.cache_entries,
        "cache-bytes": args.cache_bytes,
        "drain-s": args.drain_s,
    }
    if args.store_dir:
        # Each shard persists its own ≈1/N keyspace partition: the worker
        # rewrites this to <store-dir>/<shard-id> (stable across restarts,
        # so a replacement process replays its predecessor's store).
        serve_args["store-dir"] = args.store_dir
        serve_args["wal"] = args.wal
        serve_args["fsync"] = args.fsync
    if args.trace_dir:
        # Shard children get the same flags; each exports to its own
        # server-<pid>.jsonl in the shared directory.  A shard traces
        # what its router sampled (remote parents force sampling on),
        # so the shard-local rate only governs direct-to-shard traffic.
        serve_args["trace-dir"] = args.trace_dir
        serve_args["trace-sample"] = args.trace_sample
    supervisor = ShardSupervisor(args.shards, host=args.host, serve_args=serve_args)

    async def _serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        _install_stop_handlers(loop, stop)
        # Fleet bring-up blocks on N child boot handshakes — off the loop.
        addresses = await loop.run_in_executor(None, supervisor.start)
        router = ShardRouter(
            addresses, host=args.host, port=args.port, vnodes=args.vnodes,
            tracer=_serve_tracer(args, "router.jsonl"),
        )
        monitor_task = None
        try:
            host, port = await router.start()
            _publish_port(args.port_file, host, port)
            shard_list = ", ".join(f"{h}:{p}" for h, p in addresses)
            print(
                f"# repro sharded service listening on {host}:{port} "
                f"[shards={args.shards} vnodes={args.vnodes}] -> {shard_list}",
                file=sys.stderr,
            )
            monitor_task = loop.create_task(
                supervisor.monitor(router, stop=stop)
            )
            await stop.wait()
        finally:
            await router.shutdown(drain_s=args.drain_s)
            if monitor_task is not None:
                await monitor_task
            await loop.run_in_executor(
                None, lambda: supervisor.stop(drain_s=args.drain_s)
            )
        print("# repro sharded service stopped (drained)", file=sys.stderr)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        supervisor.stop(drain_s=1.0)
        print("# repro sharded service stopped", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_spans, render_report

    records = load_spans(args.paths)
    if not records:
        print(
            f"repro trace: no spans in {', '.join(args.paths)}",
            file=sys.stderr,
        )
        return 1
    sys.stdout.write(
        render_report(
            records,
            top=args.top,
            trace_id=args.trace_id,
            min_ms=args.min_ms,
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the linter is dev tooling; `repro color` must not pay
    # for it (and it must never drag the service tier into this import).
    from repro.devtools import main as lint_main

    argv: list[str] = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.baseline is not None:
        argv.extend(["--baseline", args.baseline])
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_demo(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"examples.{args.name}")
    module.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Δ-coloring (PODC 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    color = sub.add_parser("color", help="Δ-color an edge-list graph")
    color.add_argument("edges", help="edge list file: one 'u v' per line")
    color.add_argument(
        "--algorithm",
        choices=list_algorithms(),
        default="auto",
        help="registry name; auto = per-instance dispatch incl. non-nice graphs",
    )
    color.add_argument("--seed", type=int, default=0)
    color.add_argument(
        "--json",
        action="store_true",
        help="emit the full ColoringResult schema as JSON instead of "
        "'node color' lines",
    )
    color.add_argument("-o", "--output", help="write the output here instead of stdout")
    color.set_defaults(func=_cmd_color)

    info = sub.add_parser("info", help="structural profile of a graph")
    info.add_argument("edges")
    info.set_defaults(func=_cmd_info)

    bench = sub.add_parser("bench", help="wall-clock benchmarks (harness)")
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="run every benchmarks/bench_e*.py at its tiniest size (CI rot check)",
    )
    bench.add_argument(
        "--smoke-json",
        help="write per-module --smoke timings to this JSON path (the "
        "input of scripts/check_bench_regression.py)",
    )
    bench.add_argument(
        "--sweep",
        action="store_true",
        help="time end-to-end Δ-coloring across --sizes with warmup/repeats",
    )
    bench.add_argument(
        "--sizes",
        default="2000,20000",
        help="comma-separated node counts for --sweep (default 2000,20000)",
    )
    bench.add_argument("--delta", type=int, default=8, help="degree for --sweep graphs")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--warmup", type=int, default=1)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="add a solve_many throughput sweep over this many processes",
    )
    bench.add_argument(
        "--batch",
        type=int,
        default=4,
        help="instances per size point for the --workers throughput sweep",
    )
    bench.add_argument("--json", help="write the sweep report to this JSON path")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the NDJSON coloring service (see docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8512, help="0 = ephemeral")
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="micro-batch size cap for the request gateway",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="how long a micro-batch waits for stragglers",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="outstanding-request bound; beyond it requests are rejected",
    )
    serve.add_argument(
        "--max-cost", type=int, default=8_000_000,
        help="cost-aware admission: bound on the summed n+m of outstanding "
        "requests, so backlog is metered in work, not request count "
        "(<= 0 disables; an oversize request is still admitted when idle)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=1152,
        help="entry bound of the memory store (results, the graphs that "
        "parent updates, and chain heads together)",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=768 * 1024 * 1024,
        help="byte bound of the memory store (<= 0 disables byte-based "
        "eviction)",
    )
    serve.add_argument(
        "--store-dir",
        help="durable content-addressed store directory: results and "
        "graphs persist as append-only segments and restarts replay "
        "instead of re-solving (sharded fleets partition it per shard); "
        "unset = in-memory only (see docs/STORAGE.md)",
    )
    serve.add_argument(
        "--wal", choices=("on", "off"), default="on",
        help="with --store-dir: keep the update write-ahead log so chain-"
        "head engines are rebuilt by delta replay on restart",
    )
    serve.add_argument(
        "--fsync", choices=("always", "batch", "never"), default="batch",
        help="durability policy for the store and WAL: fsync per append, "
        "every N appends, or leave flushing to the OS",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="run this many shard worker processes behind a consistent-"
        "hash router (1 = plain single-process server)",
    )
    serve.add_argument(
        "--vnodes", type=int, default=128,
        help="virtual nodes per shard on the hash ring (--shards > 1)",
    )
    serve.add_argument(
        "--port-file",
        help="publish the bound 'host port' to this file once listening "
        "(the shard supervisor's boot handshake)",
    )
    serve.add_argument(
        "--drain-s", type=float, default=5.0,
        help="graceful-shutdown deadline: how long SIGTERM/SIGINT waits "
        "for in-flight requests before forcing the close",
    )
    serve.add_argument(
        "--trace-dir",
        help="export finished spans as JSONL under this directory "
        "(server-<pid>.jsonl per process, router.jsonl for the front "
        "tier; read them back with 'repro trace'); unset = tracing off",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="root sampling probability in [0,1] (with --trace-dir); "
        "shards inherit the router's per-request decision",
    )
    serve.set_defaults(func=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="render span JSONL from serve --trace-dir as waterfalls",
    )
    trace.add_argument(
        "paths", nargs="+",
        help="span JSONL files, or directories of *.jsonl (a --trace-dir)",
    )
    trace.add_argument(
        "--top", type=int, default=5,
        help="how many of the slowest traces to render (default 5)",
    )
    trace.add_argument(
        "--trace-id",
        help="narrow the report to one trace (full 32-hex id or a prefix)",
    )
    trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="drop traces faster than this many milliseconds",
    )
    trace.set_defaults(func=_cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="reprolint: repo-contract static analysis (docs/DEVTOOLS.md)",
        description=(
            "Run the repository's AST-based invariant linter over the given "
            "paths.  Exit 0 when every finding is fixed, suppressed, or "
            "baselined; 1 on new findings or stale baseline entries."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "scripts", "benchmarks", "tests"],
        help="files or directories to lint (default: src scripts benchmarks tests)",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable report")
    lint.add_argument(
        "--baseline", default=None,
        help="baseline file (default: [tool.reprolint].baseline in pyproject.toml)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: every finding fails",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to tolerate every current finding",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="describe the registered rules and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    demo = sub.add_parser("demo", help="run a bundled example")
    demo.add_argument(
        "name",
        choices=[
            "quickstart",
            "frequency_assignment",
            "network_repair",
            "algorithm_shootout",
            "slocal_greedy",
        ],
    )
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphConstructionError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
