"""Warm-restart replay: rebuild chain heads from the WAL + durable base.

A restarted process opens its :class:`DurableStore` and immediately
serves every persisted solve result (reads fall through the tiered
store).  What it cannot serve yet are *updates*: the chain-head engines
died with the old process.  :func:`replay_chains` brings them back:

1. Read the WAL (append order).  Identify the **heads** — child digests
   no later record uses as a parent; everything else is interior to some
   chain.
2. For each head, walk parent pointers back to the **base**: the first
   parent with no WAL record of its own, necessarily an ``r1:`` solve
   digest (or a ``u1:`` digest whose prefix predates the WAL — then the
   chain is unreplayable and is skipped, not failed).
3. Load the base graph and base result from the durable store, seed an
   :class:`~repro.core.incremental.IncrementalColoring`, and reapply
   the lineage's deltas in order (the ``"backend"`` field of older
   records is ignored: there is one update path).  Repair is
   deterministic, so the rebuilt head is bit-identical to the engine the
   dead process held — the next ``update`` against it continues the
   chain as if the restart never happened.
4. Park the engine in the :class:`~repro.service.graphstore.GraphStore`
   under the head digest.

Replay is **idempotent**: it writes nothing durable (engines go to the
in-memory graph store; result puts during replay are all key-present
no-ops), so running it twice — or crashing mid-replay and running it
again — converges to the same state.  Broken chains (missing base,
delta that no longer applies) are counted and skipped; the service
degrades to the stale-parent → full-solve fallback for exactly those
chains, never refuses to start.
"""

from __future__ import annotations

import time
from typing import Any

from repro.service.storage.wal import config_from_payload

__all__ = ["replay_chains"]


def _lineages(records: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    """Group WAL records into per-head lineages, base-first.

    ``records`` is in append order.  When the same child digest was
    produced twice (an update retried after a crash that lost the
    result but kept the WAL record), the last record wins.
    """
    by_child: dict[str, dict[str, Any]] = {}
    for record in records:
        by_child[record["child"]] = record
    parents = {record["parent"] for record in by_child.values()}
    heads = [child for child in by_child if child not in parents]
    lineages = []
    for head in heads:
        chain: list[dict[str, Any]] = []
        cursor: str | None = head
        seen = set()
        while cursor in by_child and cursor not in seen:
            seen.add(cursor)
            record = by_child[cursor]
            chain.append(record)
            cursor = record["parent"]
        chain.reverse()
        lineages.append(chain)
    return lineages


def replay_chains(
    wal: Any,
    durable: Any,
    graph_store: Any,
    cache: Any | None = None,
    meters: Any | None = None,
) -> dict[str, Any]:
    """Rebuild every replayable chain head; returns the replay report.

    ``cache`` (a :class:`ResultStore`) optionally receives each rebuilt
    head's result, so the first post-restart ``solve`` probe of a chain
    digest hits even if the old process died before persisting it.
    """
    from repro.api.solver import apply_incremental
    from repro.core.incremental import IncrementalColoring

    start = time.monotonic()
    report = {
        "chains_seen": 0,
        "chains_replayed": 0,
        "chains_skipped": 0,
        "deltas_replayed": 0,
        "results_indexed": len(durable) if durable is not None else 0,
        "wall_s": 0.0,
    }
    if wal is None or durable is None:
        return report

    for lineage in _lineages(list(wal.replay())):
        report["chains_seen"] += 1
        base_digest = lineage[0]["parent"]
        base_graph = durable.get_graph(base_digest)
        base_result = durable.get(base_digest)
        if base_graph is None or base_result is None:
            report["chains_skipped"] += 1
            continue
        try:
            config = config_from_payload(lineage[0].get("config"))
            engine = IncrementalColoring.from_result(
                base_graph, base_result, config=config
            )
            updated = None
            for record in lineage:
                updated = apply_incremental(
                    engine,
                    [(u, v) for u, v in record["added"]],
                    [(u, v) for u, v in record["removed"]],
                    config_from_payload(record.get("config")),
                    materialize_graph=False,
                )
                report["deltas_replayed"] += 1
        # Replay runs before the server binds and must never block
        # startup: *any* failure to rebuild a chain (typed engine
        # rejection, malformed WAL payload, or a genuine regression in a
        # re-registered engine) degrades to the retriable stale-parent
        # fallback rather than keeping the fleet down.
        # reprolint: disable=RPL005 -- breadth is the contract here
        except Exception:
            # A delta that no longer applies (e.g. its base was solved by
            # an engine since re-registered) downgrades to the stale-
            # parent fallback; replay must never block startup.
            report["chains_skipped"] += 1
            continue
        head_digest = lineage[-1]["child"]
        graph_store.put_engine(head_digest, engine)
        if cache is not None and updated is not None:
            cache.put(head_digest, updated.result)
        report["chains_replayed"] += 1

    report["wall_s"] = time.monotonic() - start
    if meters is not None:
        meters.replayed("result", report["results_indexed"])
        meters.replayed("chain", report["chains_replayed"])
        meters.replayed("delta", report["deltas_replayed"])
        meters.replay_seconds(report["wall_s"])
    return report
