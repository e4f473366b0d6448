"""The service workload, ``serve-read``, and the update chains its traced
run also measures.

The system under test is one ``python -m repro serve`` process (default
settings, memory storage; the update chains' server adds
``--store-dir``).  This process is the only load generator: asyncio, at
most two connections, pipelined requests through the public
``AsyncColoringClient`` (so client encode and decode are part of every
latency).

Each run measures:

* set-up: launch to the first ``ping`` reply, median of ``setup_runs``
  launches at the reference CPU speed (the server warms before it binds,
  so work moved into warm-up shows here);
* capacity: a closed-loop ladder of 1, 2, 4 outstanding requests, cache
  hits only; the highest completed rate whose p95 stays under the frozen
  limit (refused and failed requests count as misses);
* latency: an open loop at the frozen offered rate, every request timed
  from its due time, with the generator's own lateness reported;
* between the load phases, in-process ``solve`` and ``solve_many`` runs of
  the workload's solve instances, which double as output checks.

The traced run (``--trace 1``) sends the ``traced`` requests once over TCP,
untraced, as an open loop at the frozen rate (the reference for coverage
and the generator's lateness), then drives the same requests in process
through the client's and the server's public functions, twice: through a
span log that records nothing and through the real one.
"""

from __future__ import annotations

import asyncio
import copy
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    SPEC,
    ROOT,
    NullSpanLog,
    Outcome,
    SpanLog,
    Speed,
    child_env,
    cpu_factor,
    cpu_loops,
    derive_seed,
    frozen_heap,
    mean,
    median,
    percentile,
    pinned_around,
    stop_process,
    use_src,
    vmhwm_mb,
)

use_src()

from repro.api import (  # noqa: E402
    ColoringResult,
    SolverPool,
    apply_incremental,
    default_workers,
    solve,
)
from repro.errors import ReproError, ServiceOverloadedError  # noqa: E402
from repro.service import AsyncColoringClient, ColoringClient  # noqa: E402
from repro.service.client import config_payload, graph_payload  # noqa: E402
from repro.service.fingerprint import (  # noqa: E402
    combine_fingerprints,
    config_fingerprint,
    edge_keys_fingerprint,
    request_fingerprint,
    update_fingerprint,
)
from repro.service.server import (  # noqa: E402
    config_from_payload,
    parse_edge_pairs,
    parse_graph_payload,
)
from repro.service.storage import StorageConfig, update_record  # noqa: E402

from inputs import Chain, ReadMix, write_chains  # noqa: E402
from library import check, traced_solve  # noqa: E402


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, work: Path, tag: str, store_dir: Path | None = None):
        port_file = work / f"port-{tag}"
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--port-file", str(port_file)]
        if store_dir is not None:
            cmd += ["--store-dir", str(store_dir)]
        started = time.perf_counter()
        self.log = open(work / f"server-{tag}.log", "w")
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT
        )
        try:
            while not port_file.exists():
                if self.proc.poll() is not None or time.perf_counter() - started > 60:
                    raise RuntimeError(f"server did not start; see {self.log.name}")
                time.sleep(0.002)
            host, port = port_file.read_text().split()
            self.host, self.port = host, int(port)
            with ColoringClient(self.host, self.port) as client:
                if not client.ping():
                    raise RuntimeError("server answered ping with an error")
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def client(self) -> ColoringClient:
        return ColoringClient(self.host, self.port, timeout=120)

    def vmhwm_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)
        self.log.close()


@dataclass
class Phase:
    """Accounting for one load phase.  A closed-loop phase is cut into
    ``windows`` equal time windows, each with its own completion rate."""

    name: str
    windows: int = 1
    start: float = 0.0
    seconds: float = 0.0  # closed loop: configured length
    samples: list[tuple[float, float]] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    sent: int = 0
    ok: int = 0
    failed: int = 0
    refused: int = 0
    elapsed: float = 0.0
    factor: float = 1.0  # common.cpu_factor of the loops around the phase

    def record(self, status: str, latency: float) -> None:
        """One reply; a refused or failed request counts as ∞ latency."""
        self.sent += 1
        if status == "ok":
            self.ok += 1
        else:
            setattr(self, status, getattr(self, status) + 1)
            latency = math.inf
        self.samples.append((latency, time.perf_counter()))

    def latencies(self) -> list[float]:
        return [latency for latency, _ in self.samples]

    def window_rates(self) -> list[float]:
        """Completed requests per second in each time window."""
        width = self.seconds / self.windows
        counts = [0] * self.windows
        for latency, done in self.samples:
            slot = int((done - self.start) / width)
            if latency < math.inf and slot < self.windows:
                counts[slot] += 1
        return [count / width for count in counts]

    def summary(self) -> dict:
        out = {
            "phase": self.name, "sent": self.sent, "succeeded": self.ok,
            "failed": self.failed, "refused": self.refused,
            "elapsed_s": round(self.elapsed, 4), "cpu_factor": round(self.factor, 4),
        }
        if self.samples:
            out["p50_ms"] = round(1000 * percentile(self.latencies(), 50), 3)
            out["p95_ms"] = round(1000 * percentile(self.latencies(), 95), 3)
        if self.seconds:
            out["window_rps"] = [round(r, 2) for r in self.window_rates()]
        if self.lags:
            out.update(
                lag_p50_ms=round(1000 * percentile(self.lags, 50), 3),
                lag_p95_ms=round(1000 * percentile(self.lags, 95), 3),
                lag_max_ms=round(1000 * max(self.lags), 3),
            )
        return out


async def _call(coro) -> tuple[str, object]:
    try:
        return "ok", await coro
    except ServiceOverloadedError:
        return "refused", None
    except ReproError:
        return "failed", None


class ReadTraffic:
    """``serve-read`` requests: repeats of warmed instances plus fresh
    misses, or with ``hits_only`` the repeats alone (the capacity ladder:
    the hit path, which leaves the server's state as it found it)."""

    def __init__(self, mix: ReadMix, warm: dict[int, ColoringResult], hits_only: bool = False):
        self.mix = mix
        self.warm = warm
        self.hits_only = hits_only
        self.next = 0
        self.hit_mismatches = 0
        self.miss_replies: list[tuple[int, ColoringResult]] = []

    async def issue(self, client: AsyncColoringClient, key: int) -> str:
        i, self.next = self.next, self.next + 1
        miss = not self.hits_only and self.mix.is_miss(i)
        if miss:
            graph, config = self.mix.request(i)
        else:
            graph, config = self.mix.hits[self.mix.hit_index(i)], self.mix.config
        status, reply = await _call(client.solve(graph, config))
        if status == "ok":
            if miss:
                self.miss_replies.append((i, reply.result))
            elif reply.result.colors != self.warm[self.mix.hit_index(i)].colors:
                self.hit_mismatches += 1
        return status


class WriteTraffic:
    """Update requests: single-edge updates on the chains; one op per
    chain in flight (an op needs its parent's digest)."""

    def __init__(self, chains: list[Chain], config: dict, delta: int):
        self.chains = chains
        self.config = config
        self.delta = delta
        self.locks = [asyncio.Lock() for _ in chains]
        self.invalid = 0
        self.broken_links = 0

    async def issue(self, client: AsyncColoringClient, key: int) -> str:
        index = key % len(self.chains)
        chain = self.chains[index]
        async with self.locks[index]:
            added, removed = chain.delta(chain.step)
            status, reply = await _call(
                client.update(chain.head, added, removed, config=self.config)
            )
            if status == "ok":
                if reply.parent_digest != chain.head:
                    self.broken_links += 1
                colors = np.asarray(reply.result.colors, dtype=np.int16)
                if not chain.coloring_ok(chain.step, colors, self.delta):
                    self.invalid += 1
                chain.head = reply.fingerprint
                chain.step += 1
        return status


async def run_closed(traffic, clients, outstanding: int, name: str,
                     seconds: float = 0.0, count: int = 0, windows: int = 1) -> Phase:
    """``outstanding`` callers, each sending its next request when the
    previous reply arrives, for ``seconds`` or until ``count`` are sent."""
    phase = Phase(name, windows=windows, seconds=seconds, start=time.perf_counter())
    issued = 0

    async def caller(slot: int) -> None:
        nonlocal issued
        k = 0
        while (not count or issued < count) and (
            not seconds or time.perf_counter() - phase.start < seconds
        ):
            issued += 1
            t0 = time.perf_counter()
            status = await traffic.issue(clients[slot % len(clients)], slot + outstanding * k)
            phase.record(status, time.perf_counter() - t0)
            k += 1

    await asyncio.gather(*(caller(s) for s in range(outstanding)))
    phase.elapsed = time.perf_counter() - phase.start
    return phase


async def run_open(traffic, clients, rate: float, count: int, name: str) -> Phase:
    """``count`` requests due at ``rate`` per second regardless of
    replies; latency runs from each request's due time and the
    generator's lateness in sending is kept as ``lags``."""
    phase = Phase(name, start=time.perf_counter() + 0.01)

    async def one(i: int, due: float) -> None:
        phase.lags.append(time.perf_counter() - due)
        status = await traffic.issue(clients[i % len(clients)], i)
        phase.record(status, time.perf_counter() - due)

    tasks = []
    for i in range(count):
        due = phase.start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    phase.elapsed = time.perf_counter() - phase.start
    return phase


async def drive(server: Server, traffic: dict, plan: list[tuple],
                local_block) -> tuple[list[Phase], dict]:
    """Run the ``plan`` over two pipelined connections, then read the
    gateway's counters through the ``stats`` verb.  ``"closed"`` and
    ``"open"`` steps send ``traffic[kind]``'s requests; ``("local", j)``
    steps call ``local_block(j)`` (in-process solves; the server idles).
    The generator's inputs are kept from its garbage collector
    (:func:`common.frozen_heap`), whose pauses would show as the
    server's latency."""
    clients = [await AsyncColoringClient(server.host, server.port).connect() for _ in range(2)]
    phases = []
    try:
        with frozen_heap():
            for kind, *args in plan:
                if kind == "local":
                    local_block(*args)
                    continue
                runner = run_closed if kind == "closed" else run_open
                before = cpu_loops()
                phase = await runner(traffic[kind], clients, *args)
                phase.factor = cpu_factor([before, cpu_loops()])
                phases.append(phase)
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return phases, stats


def _load_plan(spec: dict, seconds: float, trace: bool) -> list[tuple]:
    """The run as ``("closed", outstanding, name, seconds, count, windows)``,
    ``("open", rate, count, name)`` and ``("local", j)`` steps.  Ladder
    passes and in-process blocks are spread evenly between the open-loop
    windows, so a slow spell of the box lands on a part of every figure,
    not on all of one."""
    if trace:
        segments = [[("open", spec["open_rate_rps"], spec["traced"], "open")]]
    else:
        passes, windows = spec["ladder_passes"], spec["open_windows"]
        step = spec["ladder_share"] * seconds / (len(spec["ladder"]) * passes)
        segments = []
        for k in range(windows):
            if k * passes % windows < passes:  # passes evenly among windows
                segments.append([("closed", c, f"ladder-{c}", step, 0, spec["ladder_windows"])
                                 for c in spec["ladder"]])
            segments.append([("open", spec["open_rate_rps"], spec["open_requests"], "open")])
    plan = []
    blocks = spec["local_blocks"]
    for index, segment in enumerate(segments):
        plan += [("local", j) for j in range(blocks) if j * len(segments) // blocks == index]
        plan += segment
    return plan


def _start(work: Path, trace: bool) -> tuple[Server, list[tuple[float, float]]]:
    """Launch ``setup_runs`` servers (one in a trace run); keep the last.
    Also returns each launch's time and its :func:`common.cpu_factor`."""
    runs = 1 if trace else SPEC["setup_runs"]
    setups = []
    for r in range(runs):
        server, _, factor = pinned_around(Server, work, str(r))
        setups.append((server.setup_s, factor))
        if r < runs - 1:
            server.stop()
    return server, setups


def _server_graph(graph):
    """The graph exactly as the server builds it from the wire payload."""
    return parse_graph_payload(graph_payload(graph)).build()


def _load_metrics(outcome: Outcome, spec: dict, phases: list[Phase], trace: bool) -> None:
    """Capacity: per ladder level, the median window rate and the p95 of
    all its requests.  Latency: the median over the open-loop windows of
    each window's percentile, so a pause of the box that spoils one
    window does not move the figure.  Every rate and latency is taken at
    the reference speed by its phase's ``factor`` (README.md,
    Steadiness)."""
    outcome.details["phases"] = [p.summary() for p in phases]
    opens = [p for p in phases if p.name == "open"]
    lags = [lag for p in opens for lag in p.lags]
    outcome.details["loadgen_lag_p95_ms"] = 1000 * percentile(lags, 95)
    if trace:
        return
    passing = []
    for level in spec["ladder"]:
        steps = [p for p in phases if p.name == f"ladder-{level}"]
        p95 = 1000 * percentile([lat / p.factor for p in steps for lat in p.latencies()], 95)
        if p95 < spec["latency_limit_ms"]:
            passing.append(median([r * p.factor for p in steps for r in p.window_rates()]))
    m = outcome.metrics
    m["capacity_rps"] = max(passing, default=0.0)
    for q in (50, 95):
        m[f"latency_p{q}_ms"] = 1000 * median(
            [percentile(p.latencies(), q) / p.factor for p in opens]
        )
        outcome.details[f"raw_latency_p{q}_ms"] = 1000 * median(
            [percentile(p.latencies(), q) for p in opens]
        )


class Local:
    """In-process ``solve`` calls and warmed-pool ``solve_many`` batches
    of the workload's solve instances: they give ``solve_p50_s``,
    ``local_rounds_p50`` and ``batch_solves_per_s`` and double as output
    checks.  Workloads run them in blocks interleaved with the
    service's load phases (see :func:`_load_plan`)."""

    def __init__(self, config, delta: int, outcome: Outcome):
        self.config = config
        self.delta = delta
        self.outcome = outcome
        self.speed = Speed()
        self.walls: list[float] = []
        self.factors: list[float] = []
        self.rounds: list[int] = []
        self.batch_rates: list[float] = []
        self.batch_factors: list[float] = []

    def __enter__(self) -> "Local":
        from repro.graphs.generators import random_regular_graph

        self.pool = SolverPool(default_workers()).warm()
        solve(random_regular_graph(64, 8, seed=0))  # first-solve imports, untimed
        # The same for the pool's workers: one untimed batch of two
        # instances per worker, of the size the timed batches solve.
        n = SPEC["workloads"]["serve-read"]["miss_n"]
        self.pool.solve_many(
            [random_regular_graph(n, self.delta, seed=s) for s in range(2 * self.pool.workers)],
            self.config,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.pool.close()

    def _check(self, graph, result) -> None:
        self.outcome.attempted += 1
        if not check(graph, result, self.delta):
            self.outcome.failed += 1
            self.outcome.problem("an in-process solve failed validation")

    def solve(self, graph, config=None) -> ColoringResult:
        result, wall, factor = self.speed.around(solve, graph, config or self.config)
        self.walls.append(wall)
        self.factors.append(factor)
        self.rounds.append(result.rounds)
        self._check(graph, result)
        return result

    def batch(self, graphs: list, config=None) -> None:
        results, wall, factor = pinned_around(self.pool.solve_many, graphs, config or self.config)
        self.batch_rates.append(len(graphs) / wall)
        self.batch_factors.append(factor)
        for graph, result in zip(graphs, results):
            self._check(graph, result)

    def metrics(self, m: dict, details: dict) -> None:
        # Each solve at the speed of the loops right around it.
        m["solve_p50_s"] = median([w / f for w, f in zip(self.walls, self.factors)])
        m["local_rounds_p50"] = median(self.rounds)
        # Each batch at the speed of the loops pinned around it.
        m["batch_solves_per_s"] = median(
            [rate * factor for rate, factor in zip(self.batch_rates, self.batch_factors)]
        )
        details.update(
            speed_factor=self.speed.factor, raw_solve_p50_s=median(self.walls),
            batch_factors=self.batch_factors, raw_batch_solves_per_s=median(self.batch_rates),
        )


def _counts(outcome: Outcome, phases: list[Phase]) -> None:
    for phase in phases:
        outcome.attempted += phase.sent
        outcome.failed += phase.failed + phase.refused
    if any(p.failed or p.refused for p in phases):
        outcome.problem("requests were refused or failed")


def _gateway_metrics(outcome: Outcome, stats: dict) -> None:
    gm = stats["metrics"]
    cache = stats["cache"]
    m = outcome.metrics
    m["gateway.mean_batch_size"] = gm["mean_batch_size"]
    m["gateway.coalesced"] = stats["coalesced"]
    m["gateway.rejected"] = gm["rejected"]
    m["gateway.queue_depth_peak"] = gm["queue_depth_peak"]
    m["cache.hit_ratio"] = gm["cache_hit_rate"]
    memory = cache.get("memory", cache)
    m["cache.evictions"] = memory["evictions_lru"] + memory["evictions_ttl"]


# -- serve-read ----------------------------------------------------------------


def run_read(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    spec = SPEC["workloads"]["serve-read"]
    outcome = Outcome()
    mix = ReadMix(seed)
    every = spec["miss_every"]
    misses = [i for i in range(spec["check_misses"] * every) if mix.is_miss(i)]
    config = config_from_payload(mix.config)
    plan = _load_plan(spec, seconds, trace)
    per, batch = spec["check_misses"] // spec["local_blocks"], spec["batch"]
    local_digests = {}

    def local_block(j: int) -> None:
        # Misses the load sends early; their replies are compared below.
        for i in misses[j * per:(j + 1) * per]:
            graph, request_config = mix.request(i)
            result = local.solve(_server_graph(graph), config_from_payload(request_config))
            local_digests[i] = result.content_digest()
        if not trace:  # pool instances the load sends after the checked misses
            first = spec["check_misses"] + j * batch
            local.batch([_server_graph(mix.pool[k % len(mix.pool)])
                         for k in range(first, first + batch)],
                        config_from_payload(mix.miss_config(0)))

    with Local(config, spec["delta"], outcome) as local:
        server, setups = _start(work, trace)
        try:
            warm = {}
            with server.client() as client:
                for h, graph in enumerate(mix.hits):
                    warm[h] = client.solve(graph, mix.config).result
            outcome.attempted += len(warm)
            traffic, ladder = ReadTraffic(mix, warm), ReadTraffic(mix, warm, hits_only=True)
            phases, stats = asyncio.run(
                drive(server, {"open": traffic, "closed": ladder}, plan, local_block)
            )
            rss = server.vmhwm_mb()
        finally:
            server.stop()
        hit_digests = [local.solve(_server_graph(g)).content_digest()
                       for g in mix.hits[: spec["check_hits"]]]
    _counts(outcome, phases)
    _load_metrics(outcome, spec, phases, trace)

    # Every distinct coloring is validated; a sample of the replies is
    # compared by digest with a local solve of the same request.
    served = dict(traffic.miss_replies)
    mismatches = traffic.hit_mismatches + ladder.hit_mismatches
    if mismatches:
        outcome.failed += mismatches
        outcome.problem(f"{mismatches} cache hits differ from their first reply")
    for h, digest in enumerate(hit_digests):
        if digest != warm[h].content_digest():
            outcome.failed += 1
            outcome.problem(f"hit instance {h}: served digest != local solve")
    for h, result in warm.items():
        if not check(mix.hits[h], result, spec["delta"]):
            outcome.failed += 1
            outcome.problem(f"hit instance {h}: invalid coloring")
    for i, result in served.items():
        if not check(mix.request(i)[0], result, spec["delta"]) or (
            i in local_digests and local_digests[i] != result.content_digest()
        ):
            outcome.failed += 1
            outcome.problem(f"request {i}: invalid coloring or digest != local solve")
    if set(local_digests) - set(served):
        outcome.problem("a locally solved miss was never served")
    if trace:
        _gateway_metrics(outcome, stats)
        outcome.metrics["loadgen.lag_ms"] = outcome.details["loadgen_lag_p95_ms"]
        traced_read(outcome, mix, phases[0], work, seed)
        traced_updates(outcome, seed, work)
        return outcome
    m = outcome.metrics
    m["setup_s"] = median([elapsed / factor for elapsed, factor in setups])
    m["peak_rss_mb"] = rss
    local.metrics(m, outcome.details)
    m["ok_ratio"] = 1 - outcome.failed / outcome.attempted
    outcome.details.update(
        setup_probes_s=[t for t, _ in setups], setup_factors=[f for _, f in setups],
        raw_setup_s=median([t for t, _ in setups]),
    )
    return outcome


# -- update chains (traced run of serve-read) ------------------------------------


def traced_updates(outcome: Outcome, seed: int, work: Path) -> None:
    """The update path's layers: the incremental engine, the WAL and the
    durable store work only here.  A ``repro serve --store-dir`` server
    (``--fsync batch``, the default) takes single-edge updates on the
    chains as an untraced open loop at ``open_rate_rps``, every reply
    checked; the same updates then run in process, as in
    :func:`traced_write`.  Its figures override the read pass's for the
    update-only layers; the shared layers keep the read pass's."""
    spec = SPEC["updates"]
    chains = write_chains(seed)
    config = {"algorithm": "auto", "seed": derive_seed(seed, "write-config") % 1000}
    solver_config = config_from_payload(config)
    built = [_server_graph(chain.base) for chain in chains]
    server = Server(work, "updates", work / "store-updates")
    try:
        bases = []
        with server.client() as client:
            for chain in chains:
                reply = client.solve(chain.base, config)
                chain.head = reply.fingerprint
                bases.append(reply.result)
        outcome.attempted += len(bases)
        traffic = WriteTraffic(chains, config, spec["delta"])
        plan = [("open", spec["open_rate_rps"], spec["traced"], "open")]
        phases, _ = asyncio.run(drive(server, {"open": traffic}, plan, None))
    finally:
        server.stop()
    _counts(outcome, phases)
    outcome.details["update_phases"] = [p.summary() for p in phases]
    for count, what in ((traffic.invalid, "invalid child colorings"),
                        (traffic.broken_links, "replies with a wrong parent_digest")):
        if count:
            outcome.failed += count
            outcome.problem(f"{count} {what}")
    local = [solve(graph, solver_config) for graph in built]
    for j, (graph, served) in enumerate(zip(built, bases)):
        if not check(graph, served, spec["delta"]) or (
            local[j].content_digest() != served.content_digest()
        ):
            outcome.failed += 1
            outcome.problem(f"base {j}: served solve differs from the local solve")
    traced_write(outcome, chains, built, local, config, phases[0], work, seed)


# -- traced in-process passes ---------------------------------------------------


def _encode(obj) -> bytes:
    import json

    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def _decode(line: bytes):
    import json

    return json.loads(line)


def _reply(spans: SpanLog, root: dict, body: dict) -> ColoringResult:
    """``server.encode`` then ``client.decode`` of one reply."""
    with spans.span("server.encode", root) as handle:
        payload = _encode(body)
        handle["attrs"]["bytes"] = len(payload)
    with spans.span("client.decode", root):
        return ColoringResult.from_dict(_decode(payload)["result"])


def traced_read_request(spans: SpanLog, stores, graph, config_dict: dict, rid: int):
    """One ``solve`` request through the public functions the client and
    server call, in the server's order, one span per call."""
    with spans.span("request", op="solve") as root:
        with spans.span("client.encode", root) as handle:
            request = {"id": rid, "op": "solve", "graph": graph_payload(graph),
                       "config": config_payload(config_dict, {})}
            line = _encode(request)
            handle["attrs"]["bytes"] = len(line)
        with spans.span("server.decode", root):
            request = _decode(line)
        with spans.span("server.parse", root):
            parsed = parse_graph_payload(request["graph"])
            config = config_from_payload(request["config"])
        with spans.span("fingerprint", root):
            fingerprint = combine_fingerprints(
                edge_keys_fingerprint(parsed.n, parsed.edge_keys),
                config_fingerprint(config.without_observer()),
            )
        with spans.span("cache.probe", root) as handle:
            result = stores.cache.get(fingerprint)
            handle["attrs"]["hit"] = result is not None
        cached = result is not None
        if not cached:
            with spans.span("graph.build", root):
                built = parsed.build()
            result, _ = traced_solve(spans, built, config, parent=root)
            with spans.span("cache.put", root):
                stores.cache.put(fingerprint, result)
            with spans.span("graphstore.put", root):
                stores.graph_store.put(fingerprint, built)
        return _reply(spans, root, {
            "id": rid, "ok": True, "cached": cached, "fingerprint": fingerprint,
            "result": result.as_dict(),
        })


def traced_update_request(spans: SpanLog, stores, chain: Chain, config_dict: dict, rid: int):
    """One ``update`` request, as :func:`traced_read_request`."""
    from repro.core.incremental import IncrementalColoring

    with spans.span("request", op="update") as root:
        with spans.span("client.encode", root) as handle:
            added, removed = chain.delta(chain.step)
            request = {"id": rid, "op": "update", "parent_digest": chain.head,
                       "edges_added": added, "edges_removed": removed,
                       "config": config_payload(config_dict, {})}
            line = _encode(request)
            handle["attrs"]["bytes"] = len(line)
        with spans.span("server.decode", root):
            request = _decode(line)
        with spans.span("server.parse", root):
            added = parse_edge_pairs(request["edges_added"], "edges_added")
            removed = parse_edge_pairs(request["edges_removed"], "edges_removed")
            config = config_from_payload(request["config"]).without_observer()
        parent = request["parent_digest"]
        with spans.span("fingerprint", root):
            child = update_fingerprint(parent, added, removed, config_fingerprint(config))
        with spans.span("cache.probe", root):
            if stores.cache.get(child) is not None:
                raise RuntimeError("an update chain revisited a digest")
        with spans.span("graphstore.pop", root) as handle:
            engine = stores.graph_store.pop_engine(parent)
            reused = handle["attrs"]["reused"] = engine is not None
        with spans.span("incremental.repair", root):
            if engine is None:
                engine = IncrementalColoring.from_result(
                    stores.graph_store.get(parent), stores.cache.get(parent),
                    config=config, backend="auto",
                )
            updated = apply_incremental(engine, added, removed, config, materialize_graph=False)
        with spans.span("store.wal_append", root):
            stores.wal.append(update_record(parent, child, added, removed, config, "auto"))
        with spans.span("cache.put", root):
            stores.cache.memory.put(child, updated.result)
        with spans.span("store.put", root):
            stores.durable.put(child, updated.result)
        with spans.span("graphstore.put", root):
            stores.graph_store.put_engine(child, engine)
        result = _reply(spans, root, {
            "id": rid, "ok": True, "cached": False, "fingerprint": child,
            "parent_digest": parent, "update": updated.update,
            "result": updated.result.as_dict(),
        })
    return child, updated.update, result, reused


#: Span name -> per-layer metric (summed self time, ms per request).
LAYER_SPANS = {
    "client.encode": "client.encode_ms",
    "server.decode": "server.decode_ms",
    "server.parse": "server.parse_ms",
    "fingerprint": "fingerprint_ms",
    "cache.probe": "cache.probe_ms",
    "graph.build": "graph.build_ms",
    "api.solve": "api.overhead_ms",
    "cache.put": "cache.put_ms",
    "server.encode": "server.encode_ms",
    "client.decode": "client.decode_ms",
}

#: Layers that work only on the update path -> their spans.
UPDATE_LAYERS = {
    "incremental.repair_ms": ("incremental.repair",),
    "graphstore.put_ms": ("graphstore.pop", "graphstore.put"),
    "store.wal_append_ms": ("store.wal_append",),
    "store.put_ms": ("store.put",),
}


def _layer_metrics(outcome: Outcome, spans: SpanLog, reference: Phase, requests: int,
                   solves: list[ColoringResult], extra: list[float], path: Path) -> None:
    """Per-request self time of every layer, coverage against the
    untraced reference phase (the same requests over TCP), residual, and
    the tracing overhead: the median over requests of ``extra``, each
    request's time with spans minus its time without; solver figures are
    means per solve."""
    from library import PHASES, STRUCTURE, phase_key

    spans.write(path)
    outcome.details["trace_file"] = str(path)
    selfs = spans.self_times()
    m = outcome.metrics
    for metric in set(LAYER_SPANS.values()):
        m[metric] = 0.0
    for name, metric in LAYER_SPANS.items():
        m[metric] += 1000 * selfs.get(name, 0.0) / requests
    for phase in PHASES:
        key = phase_key(phase)
        m[f"solver.{key}.ms"] = 1000 * selfs.get(f"solver.{key}", 0.0) / requests
        m[f"solver.{key}.rounds"] = mean([r.phase_rounds.get(phase, 0) for r in solves])
    for stat in STRUCTURE:
        m[f"solver.{stat}"] = mean([r.stats.get(stat, 0) for r in solves])
    layered = 1000 * sum(v for k, v in selfs.items() if k != "request") / requests
    untraced = 1000 * mean(reference.latencies())
    m["coverage"] = layered / untraced
    m["residual_ms"] = untraced - layered
    m["trace.overhead_ms"] = 1000 * median(extra)
    sizes = {"client.encode": "client.request_bytes", "server.encode": "server.reply_bytes"}
    for name, metric in sizes.items():
        m[metric] = mean([r["attrs"]["bytes"] for r in spans.records if r["name"] == name])


def traced_read(outcome: Outcome, mix: ReadMix, reference: Phase, work: Path, seed: int) -> None:
    spec = SPEC["workloads"]["serve-read"]
    # The same requests through a span log that records nothing and
    # through the real one, each on its own stores.  Which pass goes first
    # alternates within hits and within misses: the first pass over a
    # request pays costs the second does not.
    logs = [NullSpanLog(), SpanLog(seed)]
    stores = [StorageConfig().build() for _ in logs]
    for log, store in zip(logs, stores):
        for h, graph in enumerate(mix.hits):  # warm, as the server was
            traced_read_request(log, store, graph, mix.config, h)
    logs[1].records.clear()
    extra = []
    solves = []
    turns = [0, 0]  # hits, misses sent so far
    with frozen_heap():
        for i in range(spec["traced"]):
            graph, config = mix.request(i)
            miss = mix.is_miss(i)
            order = (0, 1) if turns[miss] % 2 == 0 else (1, 0)
            turns[miss] += 1
            walls = [0.0, 0.0]
            for k in order:
                t0 = time.perf_counter()
                result = traced_read_request(logs[k], stores[k], graph, config, i)
                walls[k] = time.perf_counter() - t0
                outcome.attempted += 1
                if miss and not check(graph, result, spec["delta"]):
                    outcome.failed += 1
                    outcome.problem(f"traced request {i}: invalid coloring")
                if miss and k == 1:
                    solves.append(result)
            extra.append(walls[1] - walls[0])
    _layer_metrics(outcome, logs[1], reference, spec["traced"], solves, extra,
                   work.parent / "traces" / f"serve-read-seed{seed}.jsonl")


def traced_write(outcome: Outcome, chains: list[Chain], built: list, bases: list,
                 config: dict, reference: Phase, work: Path, seed: int) -> None:
    spec = SPEC["updates"]
    # As in :func:`traced_read`: one pass without spans, one with, each on
    # its own stores and its own copy of the chains, in alternating order.
    logs = [NullSpanLog(), SpanLog(seed)]
    runs = [chains, [copy.copy(chain) for chain in chains]]
    stores = [StorageConfig(store_dir=work / f"store-traced-{k}").build() for k in range(2)]
    try:
        solver_config = config_from_payload(config)
        for store, copies in zip(stores, runs):
            for chain, graph, result in zip(copies, built, bases):  # as the server stores them
                fingerprint = request_fingerprint(graph, solver_config)
                store.cache.put(fingerprint, result)
                store.graph_store.put(fingerprint, graph)
                chain.head, chain.step = fingerprint, 0
        before = _store_totals(stores[1])
        extra = []
        reused = recolored = conflicts = full = 0
        with frozen_heap():
            for i in range(spec["traced"]):
                walls = [0.0, 0.0]
                for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                    chain = runs[k][i % len(chains)]
                    t0 = time.perf_counter()
                    child, update, result, was_reused = traced_update_request(
                        logs[k], stores[k], chain, config, i
                    )
                    walls[k] = time.perf_counter() - t0
                    outcome.attempted += 1
                    colors = np.asarray(result.colors, dtype=np.int16)
                    if not chain.coloring_ok(chain.step, colors, spec["delta"]):
                        outcome.failed += 1
                        outcome.problem(f"traced update {i}: invalid coloring")
                    chain.head, chain.step = child, chain.step + 1
                    if k == 1:
                        real = update, was_reused
                update, was_reused = real
                extra.append(walls[1] - walls[0])
                reused += was_reused
                recolored += update["recolored_count"]
                conflicts += update["conflicts"]
                full += bool(update["full_resolve"])
        after = _store_totals(stores[1])
    finally:
        for store in stores:
            store.close()
    ops = spec["traced"]
    m = outcome.metrics
    m["graphstore.engine_reuse_ratio"] = reused / ops
    m["incremental.recolored"] = recolored / ops
    m["incremental.conflicts"] = conflicts / ops
    m["incremental.full_resolves"] = full
    m["store.bytes_per_op"] = (after[0] - before[0]) / ops
    m["store.fsyncs_per_op"] = (after[1] - before[1]) / ops
    path = work.parent / "traces" / f"serve-read-seed{seed}-updates.jsonl"
    logs[1].write(path)
    selfs = logs[1].self_times()
    for metric, names in UPDATE_LAYERS.items():
        m[metric] = 1000 * sum(selfs.get(name, 0.0) for name in names) / ops
    layered = 1000 * sum(v for k, v in selfs.items() if k != "request") / ops
    outcome.details["updates"] = {
        "trace_file": str(path),
        "untraced_ms": 1000 * mean(reference.latencies()),
        "layered_ms": layered,
        "trace_overhead_ms": 1000 * median(extra),
    }


def _store_totals(stores) -> tuple[int, int]:
    """Bytes written and fsyncs issued by the durable store and the WAL."""
    durable, wal = stores.durable.stats(), stores.wal.stats()
    return (durable["bytes"] + durable["index_bytes"] + wal["bytes"],
            durable["fsyncs"] + wal["fsyncs"])
