"""S4 — observability: cross-tier trace completeness + sampling-off tax.

Two acceptance gates behind ``make obs-smoke``:

* ``trace_completeness`` — a real 2-shard fleet (``repro serve`` child
  processes behind an in-thread :class:`ShardRouter`, exactly the
  ``--shards 2 --trace-dir`` topology) serves solves and an update with
  tracing on.  Every process exports its own span JSONL; the bench then
  reassembles them with :func:`repro.obs.load_spans` and asserts that
  each request produced one *connected* tree crossing every tier —
  ``router.request → router.forward → server.request → gateway.* →
  solver.*`` — with parent links resolving across process boundaries.
  The export directory is left in place as the CI trace artifact.
* ``overhead`` — the cached hot path is timed over TCP against a
  single-process server with no tracer and again with an
  enabled-but-sampling-off tracer (``sample=0.0``: every request walks
  the NOOP-span branches).  The sampling-off tax must stay under
  ``REPRO_OBS_MAX_OVERHEAD_PCT`` (default 2%); best-of-N batch timing
  keeps scheduler noise out of the comparison.

Modes::

    python benchmarks/bench_s4_obs.py            # full run
    python benchmarks/bench_s4_obs.py --smoke    # make obs-smoke

Results land in ``benchmarks/results/s4_obs.json``; spans in
``benchmarks/results/obs_traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from bench_s1_service import ServerThread
from bench_s3_sharded import ShardedCluster

from repro.analysis.harness import carve_matching
from repro.graphs.generators import random_regular_graph
from repro.graphs.validation import validate_coloring
from repro.obs import Tracer, group_traces, load_spans, render_report
from repro.service import ColoringClient

RESULTS_DIR = Path(__file__).parent / "results"
TRACE_TIERS = ("router.request", "router.forward", "server.request")


def run_trace_completeness(
    trace_dir: Path, *, solves: int, chain_length: int, seed: int
) -> dict:
    """Drive a traced 2-shard fleet and reassemble its span exports."""
    if trace_dir.exists():
        shutil.rmtree(trace_dir)
    trace_dir.mkdir(parents=True)
    router_tracer = Tracer(
        sample=1.0, export_path=str(trace_dir / "router.jsonl")
    )
    serve_args = {
        "trace-dir": str(trace_dir),
        "trace-sample": 1.0,
    }
    requests = 0
    with ShardedCluster(
        2, serve_args=serve_args, router_kwargs={"tracer": router_tracer}
    ) as cluster:
        with ColoringClient(port=cluster.port, timeout=300.0) as client:
            for i in range(solves):
                graph = random_regular_graph(64, 4, seed=seed + i)
                reply = client.solve(graph, algorithm="auto", seed=seed)
                requests += 1
                validate_coloring(
                    graph, list(reply.result.colors),
                    max_colors=reply.result.palette,
                )
            full = random_regular_graph(64, 4, seed=seed + 1000)
            matching = carve_matching(full, chain_length)
            base = full.apply_updates(removed=matching)
            parent = client.solve(base, seed=seed).fingerprint
            requests += 1
            for step in range(chain_length):
                parent = client.update(
                    parent, edges_added=[matching[step]]
                ).fingerprint
                requests += 1
            merged_metrics = client.metrics()
            prometheus_text = client.metrics(format="prometheus")
            fleet_stats = client.stats()

    records = load_spans([str(trace_dir)])
    views = group_traces(records)
    complete = []
    for view in views:
        names = {span.get("name") for span in view.spans}
        if not all(tier in names for tier in TRACE_TIERS):
            continue
        if not any(name.startswith("gateway.") for name in names):
            continue
        # every non-root parent pointer must resolve across the files
        by_id = {span["span_id"]: span for span in view.spans}
        if all(
            span.get("parent_id") is None or span["parent_id"] in by_id
            for span in view.spans
        ):
            complete.append(view)
    solver_spans = sum(
        1
        for view in complete
        for span in view.spans
        if str(span.get("name", "")).startswith(("solver.", "repair."))
    )
    fleet_completed = sum(
        series["value"]
        for series in merged_metrics.get("repro_requests_total", {}).get(
            "values", ()
        )
    )
    merged_latency_count = sum(
        series["count"]
        for series in merged_metrics.get(
            "repro_request_latency_seconds", {}
        ).get("values", ())
    )
    report = {
        "requests": requests,
        "export_files": sorted(
            p.name for p in trace_dir.glob("*.jsonl")
        ),
        "spans": len(records),
        "traces": len(views),
        "complete_traces": len(complete),
        "solver_or_repair_spans": solver_spans,
        "fleet_completed_via_metrics_verb": int(fleet_completed),
        "latency_count_via_metrics_verb": int(merged_latency_count),
        "latency_count_via_stats_verb": int(
            fleet_stats["metrics"].get("latency", {}).get("count", -1)
        ),
        "prometheus_exposition_ok": (
            "# TYPE repro_router_requests_total counter" in prometheus_text
            and "# TYPE repro_requests_total counter" in prometheus_text
        ),
    }
    if complete:
        # the slowest complete trace, rendered — the artifact a human
        # reads first when the smoke trips
        report["example_waterfall"] = render_report(
            [span for span in complete[0].spans], top=1
        )
    return report


def run_overhead(
    *, batch: int, repeats: int, trials: int, seed: int, threshold_pct: float
) -> dict:
    """Sampling-off tracing tax on the cached hot path, over real TCP.

    Both servers (no tracer; enabled tracer at ``sample=0.0``) stay up
    for the whole measurement and batches alternate between them —
    A/B/A/B, best-of per config — so scheduler and allocator drift hits
    both sides alike instead of whichever happened to run second.

    The reported ``overhead_pct`` is the *minimum* over ``trials``
    independent best-of-``repeats`` estimates.  Wall-clock A/B deltas on
    a busy single-CPU runner carry a few percent of one-sided noise per
    trial; a genuine hot-path regression shows up in every trial, while
    noise has to land high ``trials`` times in a row to survive the min.
    """
    graph = random_regular_graph(64, 4, seed=seed)
    estimates = []
    with ServerThread() as baseline_server, ServerThread(
        tracer=Tracer(sample=0.0, seed=seed)
    ) as traced_server:
        with ColoringClient(
            port=baseline_server.port, timeout=300.0
        ) as baseline_client, ColoringClient(
            port=traced_server.port, timeout=300.0
        ) as traced_client:
            def one_batch(client, size: int) -> float:
                started = time.perf_counter()
                for _ in range(size):
                    client.solve(graph, algorithm="auto", seed=seed)
                return time.perf_counter() - started

            for client in (baseline_client, traced_client):
                one_batch(client, max(8, batch // 4))  # cache + conn warmup
            for _ in range(trials):
                baseline_s = sampled_off_s = float("inf")
                for _ in range(repeats):
                    baseline_s = min(
                        baseline_s, one_batch(baseline_client, batch)
                    )
                    sampled_off_s = min(
                        sampled_off_s, one_batch(traced_client, batch)
                    )
                estimates.append(
                    100.0 * (sampled_off_s - baseline_s) / baseline_s
                )
    return {
        "batch": batch,
        "repeats": repeats,
        "trials": trials,
        "trial_estimates_pct": [round(e, 2) for e in estimates],
        "overhead_pct": round(min(estimates), 2),
        "threshold_pct": threshold_pct,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate (make obs-smoke)")
    parser.add_argument("--solves", type=int, default=8)
    parser.add_argument("--chain-length", type=int, default=4)
    parser.add_argument("--overhead-batch", type=int, default=400)
    parser.add_argument("--overhead-repeats", type=int, default=5)
    parser.add_argument("--overhead-trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-dir",
                        default=str(RESULTS_DIR / "obs_traces"))
    parser.add_argument("--json", default=str(RESULTS_DIR / "s4_obs.json"))
    args = parser.parse_args(argv)

    solves = args.solves
    chain_length = args.chain_length
    batch = args.overhead_batch
    repeats = args.overhead_repeats
    trials = args.overhead_trials
    if args.smoke:
        solves = 4
        chain_length = 2
        batch = 150
        repeats = 4
        trials = 3
    threshold_pct = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD_PCT", "2.0"))

    # Overhead first: it is the noise-sensitive measurement, and the
    # trace phase's child-process fleet leaves the box (especially a
    # single-CPU CI runner) churning for a while after teardown.
    report = {
        "bench": "s4_obs",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": os.cpu_count() or 1,
        "overhead": run_overhead(
            batch=batch, repeats=repeats, trials=trials, seed=args.seed,
            threshold_pct=threshold_pct,
        ),
        "trace_completeness": run_trace_completeness(
            Path(args.trace_dir),
            solves=solves, chain_length=chain_length, seed=args.seed,
        ),
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failures = []
    traces = report["trace_completeness"]
    if traces["complete_traces"] < traces["requests"]:
        failures.append(
            f"only {traces['complete_traces']}/{traces['requests']} requests "
            f"produced a complete router→shard→gateway trace"
        )
    if traces["solver_or_repair_spans"] == 0:
        failures.append("no solver-phase or repair-rung spans were emitted")
    if traces["fleet_completed_via_metrics_verb"] < traces["requests"]:
        failures.append(
            f"metrics verb undercounts the fleet: "
            f"{traces['fleet_completed_via_metrics_verb']} completed for "
            f"{traces['requests']} requests"
        )
    if (traces["latency_count_via_stats_verb"]
            != traces["latency_count_via_metrics_verb"]):
        failures.append(
            f"stats latency count {traces['latency_count_via_stats_verb']} "
            f"differs from the merged histogram's "
            f"{traces['latency_count_via_metrics_verb']}"
        )
    if not traces["prometheus_exposition_ok"]:
        failures.append("prometheus exposition missing expected TYPE lines")
    overhead = report["overhead"]
    if overhead["overhead_pct"] > threshold_pct:
        failures.append(
            f"sampling-off tracing overhead {overhead['overhead_pct']}% "
            f"exceeds {threshold_pct}% "
            f"(override via REPRO_OBS_MAX_OVERHEAD_PCT)"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"s4_obs ok: {traces['complete_traces']}/{traces['requests']} "
            f"complete cross-tier traces over "
            f"{len(traces['export_files'])} export files, "
            f"sampling-off overhead {overhead['overhead_pct']}% "
            f"(limit {threshold_pct}%)",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
