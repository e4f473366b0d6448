"""Golden update stream: the incremental engine's outputs, frozen.

One fixed stream on a random 4-regular graph (n=256) minus a matching:
single-edge inserts (conflict-free and conflicting), deletes, a mixed
batch and a Δ-raising insert that forces the resolve rung, then more
ops on the re-solved state.  After every op the digest absorbs the
outcome (wall times dropped), the coloring, Δ, the palette and the raw
CSR bytes of the current graph; the lifetime totals close it.

The constant was captured before the update path was collapsed onto the
in-place :class:`repro.graphs.dynamic.DynamicGraph`, so it pins that
refactor to the behaviour of the code it replaced: same colors, same
neighbour order, same repair statistics.  Regenerate (only for an
intended behaviour change) with::

    PYTHONPATH=src python tests/test_golden_update_stream.py
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.harness import carve_matching
from repro.api import solve
from repro.core.incremental import IncrementalColoring
from repro.graphs.generators import random_regular_graph

GOLDEN_STREAM_DIGEST = "00c60379cd0dbd7a61d8928cbabf9c41"
SAME_COLORED_INSERTS = 6


def _stream_digest() -> str:
    full = random_regular_graph(256, 4, seed=11)
    matching = carve_matching(full, 40)
    base = full.apply_updates(removed=matching)
    result = solve(base, seed=3)
    engine = IncrementalColoring.from_result(base, result, validate=True)
    digest = hashlib.sha256()

    def absorb(outcome) -> None:
        payload = outcome.as_dict()
        payload.pop("wall_time_s")
        payload.pop("rung_wall_s")
        offsets, indices = engine.graph.csr()
        digest.update(json.dumps(payload, sort_keys=True).encode())
        digest.update(",".join(map(str, engine.colors)).encode())
        digest.update(f"|{engine.delta}|{engine.palette}|".encode())
        digest.update(offsets.tobytes() + b"|" + indices.tobytes())

    present = [e for e in base.edges() if e not in matching][:8]
    for u, v in matching[:10]:
        absorb(engine.insert_edge(u, v))
    for u, v in present[:3]:
        absorb(engine.delete_edge(u, v))
    absorb(engine.batch_update(added=matching[10:16], removed=present[3:6]))
    absorb(engine.delete_edge(*matching[0]))
    # Same-colored slack nodes (degree Δ-1, each used once) joined by a
    # new edge: the greedy rung or the Theorem 5 token walk repairs it.
    colors = engine.colors
    slack = sorted(x for e in matching[24:] for x in e)
    used: set[int] = set()
    for a in slack:
        b = next(
            (b for b in slack if b > a and b not in used
             and colors[a] == colors[b] and not engine.graph.has_edge(a, b)),
            None,
        )
        if a in used or b is None:
            continue
        used.update((a, b))
        absorb(engine.insert_edge(a, b))
        colors = engine.colors
        if len(used) == 2 * SAME_COLORED_INSERTS:
            break
    # Two nodes at full degree Δ=4 with no edge between them: inserting
    # it raises Δ, so the engine falls to the resolve rung.
    graph = engine.graph
    full_nodes = [v for v in range(graph.n) if graph.degree(v) == 4]
    raise_edge = next(
        (u, v)
        for i, u in enumerate(full_nodes)
        for v in full_nodes[i + 1:]
        if not graph.has_edge(u, v)
    )
    absorb(engine.insert_edge(*raise_edge))
    for u, v in matching[16:20]:
        absorb(engine.insert_edge(u, v))
    absorb(engine.delete_edge(*raise_edge))
    absorb(engine.batch_update(
        added=matching[20:24] + present[:1], removed=present[6:8]
    ))
    digest.update(json.dumps(engine.totals, sort_keys=True).encode())
    return digest.hexdigest()[:32]


def test_golden_update_stream():
    assert _stream_digest() == GOLDEN_STREAM_DIGEST


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(_stream_digest())
